"""Spans and counters around the library's layer boundaries.

The tracer wraps library functions from outside: it replaces each traced
function on its module, on every other module that imported it by name
(``census.canonical_key``, ``moves.validate``, ...) and, for methods, on
its class.  ``installed()`` puts the wrappers in and takes them out again,
so untraced passes run the library unchanged.

A span is (name, start, end, parent index, pass id).  Spans stay in
memory and are written out once, at the end of the run.  A span's self
time is its duration minus the time its child spans cover; a function's
busy time counts only its outermost spans, so recursion is not counted
twice.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("annulus", "census", "maps", "homology", "coorient", "polytope",
          "moves", "torus", "cli")

# traced functions per layer; "Class.method" names a method
TRACED = {
    "annulus": ("count_crossings", "count_self_crossings", "crossing_shifts",
                "segment_intersection"),
    "census": ("census", "word_to_map", "has_separating_cycle",
               "verify_main_theorem", "Genus2Build.dual_ball",
               "Genus2Build.standard_basis"),
    "maps": ("canonical_key", "validate", "curves", "parse_map",
             "serialize_map"),
    "homology": ("homology_basis", "smith_normal_form", "integer_inverse",
                 "intersection_form", "class_of", "check_walk"),
    "coorient": ("enumerate_eulerian", "EulcoSet.classes", "eulco_classes"),
    "polytope": ("convex_hull", "in_convex_hull", "support", "minkowski_sum",
                 "is_p8", "parse_polytope", "serialize_polytope"),
    "moves": ("reduce_map", "smooth"),
    "torus": ("realize", "realized_ball", "realize_map", "torus_norm"),
    "cli": ("main",),
}


def _hull_points(pass_, args, result):
    points = args[0]
    if isinstance(points, (list, tuple, set, frozenset)):
        pass_.counts["polytope.hull_points"] += len(
            {tuple(p) for p in points})
    pass_.counts["polytope.hull_vertices"] += len(result.vertices)


def _one_faced(pass_, args, result):
    # faces are cached on the map, and the census asks for them next
    if len(result.map.faces) == 1:
        pass_.counts["census.one_faced"] += 1


def _eulerian(pass_, args, result):
    pass_.counts["coorient.eulerian_count"] += len(result)
    pass_.lists["coorient.enumerate_eulerian"].append(len(result))


def _classes(pass_, args, result):
    pass_.counts["coorient.distinct_classes"] += len(result)


def _map_vertices(pass_, args, result):
    if result is not None:
        pass_.counts["torus.map_vertices"] += result.num_vertices


def _reduce_steps(pass_, args, result):
    pass_.counts["moves.reduce_steps"] += len(result[1])


# counters read from a traced function's arguments and result
HOOKS = {
    "polytope.convex_hull": _hull_points,
    "census.word_to_map": _one_faced,
    "coorient.enumerate_eulerian": _eulerian,
    "coorient.EulcoSet.classes": _classes,
    "torus.realize_map": _map_vertices,
    "moves.reduce_map": _reduce_steps,
}

COUNTERS = ("polytope.hull_points", "polytope.hull_vertices",
            "census.one_faced", "coorient.eulerian_count",
            "coorient.distinct_classes", "torus.map_vertices",
            "moves.reduce_steps")

KNOWN_METRICS = frozenset(
    [layer + ".self_s" for layer in LAYERS]
    + ["%s.%s.%s" % (layer, qualname, field)
       for layer, names in TRACED.items() for qualname in names
       for field in ("calls", "busy_s", "self_s")]
    + list(COUNTERS))


class PassRecord:
    """Spans and counters of one traced pass."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self.counts = Counter()
        self.lists = defaultdict(list)


class Tracer:
    def __init__(self):
        self.passes = []
        self._stack = []
        self._depth = Counter()
        self._current = None

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._current
            spans = rec.spans
            idx = len(spans)
            parent = self._stack[-1] if self._stack else -1
            outermost = self._depth[name] == 0
            spans.append(None)
            self._stack.append(idx)
            self._depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth[name] -= 1
                self._stack.pop()
                spans[idx] = (name, start, end, parent, outermost)
            if hook is not None:
                hook(rec, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of one pass."""
        modules = [importlib.import_module("isonorm." + layer)
                   for layer in LAYERS]
        undo = []
        try:
            for layer, names in TRACED.items():
                module = importlib.import_module("isonorm." + layer)
                for qualname in names:
                    self._install(module, layer, qualname, modules, undo)
            self._current = PassRecord(len(self.passes))
            self.passes.append(self._current)
            yield self._current
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self._current = None

    def _install(self, module, layer, qualname, modules, undo):
        name = layer + "." + qualname
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def write_spans(self, path):
        """All spans as tab-separated lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("pass\tindex\tname\tstart\tend\tparent\n")
            for rec in self.passes:
                for i, (name, start, end, parent, _) in enumerate(rec.spans):
                    fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\n"
                             % (rec.pass_id, i, name, start, end, parent))


def summarize(rec):
    """Per-function calls, busy and self seconds, and per-layer self time."""
    covered = [0.0] * len(rec.spans)
    for name, start, end, parent, _ in rec.spans:
        if parent >= 0:
            covered[parent] += end - start
    funcs = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    layers = Counter()
    for (name, start, end, _, outermost), child in zip(rec.spans, covered):
        f = funcs[name]
        f["calls"] += 1
        if outermost:
            f["busy_s"] += end - start
        f["self_s"] += end - start - child
        layers[name.split(".", 1)[0] + ".self_s"] += end - start - child
    return funcs, layers


def pass_values(rec):
    """Flat metric dict of one traced pass: per-function calls, busy and
    self seconds, per-layer self seconds and the hook counters."""
    funcs, layers = summarize(rec)
    out = dict(layers)
    for name, f in funcs.items():
        for field, value in f.items():
            out[name + "." + field] = value
    out.update(rec.counts)
    return out


def combine(records, durations):
    """Metrics of a run: times (names ending in ``_s``) from the traced
    pass of median duration, counts from the first one.  Also returns the
    counts that differ between passes, which must repeat exactly."""
    values = [pass_values(rec) for rec in records]
    order = sorted(range(len(durations)), key=durations.__getitem__)
    middle = values[order[(len(order) - 1) // 2]]
    out = {}
    unsteady = []
    for key in sorted(set().union(*values)):
        if key.endswith("_s"):
            out[key] = middle.get(key, 0.0)
            continue
        series = [v.get(key, 0) for v in values]
        out[key] = series[0]
        if len(set(series)) > 1:
            unsteady.append(key)
    return out, unsteady
