"""The three benchmark workloads: set-up, one timed pass, answer checks.

A workload imports the library inside ``setup``, so that import time is
part of set-up time, and builds its list of jobs.  A pass runs one
operation per job and keeps what the library returns; ``check`` compares
those results with answers recorded from the library or computed by
:mod:`inputs`.  Checks run outside the timed and the traced region.  An
operation that raises, or whose answer is wrong, counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from math import gcd

import inputs


def digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def guarded(fn, *args):
    """(result, None), or (None, traceback text) when ``fn`` raises."""
    try:
        return fn(*args), None
    except Exception:  # one failed operation must not stop the pass
        return None, traceback.format_exc()


class Workload:
    name = ""
    seed_note = ""

    def setup(self, root, seed, workdir):
        """Import the library and make ``self.jobs`` from the seed."""
        raise NotImplementedError

    def operation(self, job):
        raise NotImplementedError

    def check_one(self, job, result):
        """None when ``result`` is the right answer, else a message."""
        raise NotImplementedError

    def check_counts(self, lists):
        """Messages for wrong answers seen only by the tracer."""
        return []

    def run_pass(self):
        return [guarded(self.operation, job) for job in self.jobs]

    def check(self, results):
        """One message per failed operation."""
        bad = []
        for job, (res, exc) in zip(self.jobs, results):
            if exc is None:
                msg, exc = guarded(self.check_one, job, res)
                if msg:
                    bad.append(msg)
            if exc:
                bad.append(exc)
        return bad


class CliWorkload(Workload):
    """Jobs are argument lists for ``isonorm``, run in-process."""

    def operation(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = self.cli.main(job["argv"])
        if code != 0:
            raise RuntimeError("isonorm %s: exit %s: %s"
                               % (" ".join(job["argv"]), code,
                                  err.getvalue()))
        return json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# census: isonorm --json verify-theorem --twist-bound 2
# ---------------------------------------------------------------------------

# Recorded from the library: sorted (word, vertices, is_p8) of the four
# classes.  The acceptance tests' golden set for one class has 10 vertices
# and is disputed (README, "Two deliberately failing tests"); the benchmark
# reads no golden data and pins the computed 12-vertex ball.
CENSUS_VERTEX_COUNTS = [10, 10, 12, 16]
CENSUS_DIGEST = \
    "38afa83217b733e2a250c1e833ba7afb2a15513d1d3e135f786d4918d1095875"


class Census(CliWorkload):
    name = "census"
    seed_note = "seed ignored: the census input has no randomness"

    def setup(self, root, seed, workdir):
        from isonorm import cli
        self.cli = cli
        self.jobs = [{"argv": ["--json", "verify-theorem",
                               "--twist-bound", "2"]}]

    def check_one(self, job, doc):
        balls = sorted([b["word"], b["vertices"], b["is_p8"]]
                       for b in doc["balls"])
        if not (doc["pass"] and doc["intro_is_p8"] and doc["classes"] == 4
                and sorted(b[1] for b in balls) == CENSUS_VERTEX_COUNTS
                and digest(balls) == CENSUS_DIGEST):
            return "verify-theorem answer differs: %s" % json.dumps(doc)
        return None


# ---------------------------------------------------------------------------
# dualball: isonorm --json dualball MAP --walks WALKS on eight maps
# ---------------------------------------------------------------------------

# zonotope generators of the torus polygons whose maps are measured
TORUS_GENERATORS = (
    ((2, 0), (0, 2), (2, 2)),
    ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)),
    ((1, 0), (0, 1), (1, 2), (2, 1), (1, -1)),
    ((2, 0), (0, 2), (2, 2), (1, -1)),
)

# Per map, recorded from the library: Eulerian co-orientations, distinct
# classes, ball vertices and a digest of the exact class and vertex lists.
# The walks move with the relabelling, so none of these depend on the seed.
DUALBALL_EXPECTED = {
    "census1": (16, 16, 16, "504e1f1116a6beae2fb6f443753c49da"
                "fff693efbe70c20cfb37c70c02cdd350"),
    "census2": (10, 10, 10, "c225a3bc4649637f30954bc3dbf62cb3"
                "1ce457777efab2287c5b2f805f6affc0"),
    "census3": (12, 12, 12, "a35ae24c452a6c634be000f9666809e2"
                "36092d6444ec30bd17b61b57f714bd43"),
    "census4": (10, 10, 10, "f2f4c03ce285d03b4abfa10376465562"
                "d736770dd910f394170b05cff3d6b10d"),
    "torus12": (528, 19, 6, "8b57157124edec866738033cfe018c7a"
                "0f884be2ffed0c5cd4b6ae52adb235b2"),
    "torus14": (1348, 20, 10, "1eeb990cc8fcfd0dadfa916029da4cc5"
                "01520b75f37635cf4c16acb2d426849e"),
    "torus18": (8216, 24, 10, "6f5cf7431bb2473fdab9f4b9f21cf1f0"
                "fe341e51a3934ed224df382d255af0cf"),
    "torus20": (18122, 28, 8, "f713cefb5577883606a25ba3da672a78"
                "048319b8ea98e8f72607e40de2cfc497"),
}


def families(generators):
    """(primitive direction, multiplicity) for each zonotope generator."""
    out = []
    for w in generators:
        g = gcd(w[0], w[1])
        out.append(((w[0] // g, w[1] // g), g))
    return out


class Dualball(CliWorkload):
    name = "dualball"
    seed_note = "seed relabels the half-edges of every map"

    def setup(self, root, seed, workdir):
        from isonorm import cli, homology, polytope, torus
        self.cli = cli
        sources = []
        for i in range(1, 5):
            stem = root / "tests" / "fixtures" / ("census%d" % i)
            rot, pair = inputs.read_map_text(
                stem.with_suffix(".map").read_text())
            walks = inputs.read_walks_text(
                stem.with_suffix(".walks").read_text(), pair)
            sources.append(("census%d" % i, rot, pair, walks, None))
        for gens in TORUS_GENERATORS:
            pts = inputs.zonotope_points(families(gens))
            poly = polytope.LatticePolytope(inputs.hull_vertices(pts))
            m = torus.realize_map(torus.realize(poly))
            sources.append(("torus%d" % m.num_vertices, list(m.rotation),
                            list(m.pairing),
                            list(homology.homology_basis(m).walks),
                            inputs.doubled_area(pts)))
        rng = random.Random(seed)
        self.jobs = []
        for name, rot, pair, walks, area2 in sources:
            perm = inputs.order_keeping_relabelling(rot, rng)
            rot, pair, walks = inputs.relabel(rot, pair, walks, perm)
            map_path = workdir / (name + ".map")
            walks_path = workdir / (name + ".walks")
            map_path.write_text(inputs.map_text(
                rot, pair, "%s, half-edges relabelled by seed %d"
                % (name, seed)))
            walks_path.write_text(inputs.walks_text(pair, walks))
            self.jobs.append({
                "name": name, "area2": area2,
                "argv": ["--json", "dualball", str(map_path),
                         "--walks", str(walks_path)]})

    def check_one(self, job, doc):
        _, n_classes, n_vertices, want = DUALBALL_EXPECTED[job["name"]]
        if (len(doc["classes"]), len(doc["vertices"])) != \
                (n_classes, n_vertices) \
                or digest([doc["classes"], doc["vertices"]]) != want:
            return "%s: classes or ball differ" % job["name"]
        if job["area2"] is not None and \
                inputs.doubled_area(doc["vertices"]) != job["area2"]:
            return "%s: ball area differs" % job["name"]
        return None

    def check_counts(self, lists):
        """Eulerian counts per map, when the pass enumerated them."""
        got = lists.get("coorient.enumerate_eulerian")
        want = [DUALBALL_EXPECTED[job["name"]][0] for job in self.jobs]
        if got and got != want:
            return ["Eulerian counts %r, expected %r" % (got, want)]
        return []


# ---------------------------------------------------------------------------
# realize: the torus pipeline on seeded symmetric polygons
# ---------------------------------------------------------------------------

REALIZE_SLOTS = (3, 4, 5, 4, 3, 4, 5, 4, 3, 4)  # directions per polygon
REALIZE_TOTAL_V = 600                           # vertices of all maps
REALIZE_BAND = (50, 70)                         # vertices of one map
REALIZE_QUERIES = 12                            # norm queries per polygon


class Realize(Workload):
    name = "realize"
    seed_note = "seed draws the polygons and the norm queries"

    def setup(self, root, seed, workdir):
        from isonorm import homology, maps, moves, polytope, torus
        self.lib = (homology, maps, moves, polytope, torus)
        rng = random.Random(seed)
        drawn = inputs.draw_polygons(rng, REALIZE_SLOTS, REALIZE_TOTAL_V,
                                     *REALIZE_BAND, max_mult=2)
        self.jobs = []
        for i, fams in enumerate(drawn):
            pts = inputs.zonotope_points(fams)
            path = workdir / ("polygon%d.poly" % i)
            path.write_text("# families %r\n" % (fams,)
                            + "".join("%d %d\n" % p for p in pts))
            hull = inputs.hull_vertices(pts)
            queries = [(rng.randint(-4, 4), rng.randint(-4, 4))
                       for _ in range(REALIZE_QUERIES)]
            self.jobs.append({
                "text": path.read_text(), "hull": tuple(sorted(hull)),
                "V": inputs.crossing_count(fams),
                "curves": sum(m for _, m in fams),
                "queries": queries,
                "norms": [max(v[0] * a[0] + v[1] * a[1] for v in hull)
                          for a in queries]})

    def operation(self, job):
        homology, maps, moves, polytope, torus = self.lib
        p = polytope.parse_polytope(job["text"])
        collection = torus.realize(p)
        ball = torus.realized_ball(collection)
        m = torus.realize_map(collection)
        basis = homology.homology_basis(m)
        key = maps.canonical_key(m)
        reduced, steps = moves.reduce_map(m)
        norms = [(polytope.support(ball, a), torus.torus_norm(collection, a))
                 for a in job["queries"]]
        return p, ball, m, basis, key, reduced, steps, norms

    def check_one(self, job, result):
        p, ball, m, basis, key, reduced, steps, norms = result
        V = job["V"]
        checks = (
            ("parsed polygon", lambda: p.vertices == job["hull"]),
            ("realized ball", lambda: ball == p),
            ("map size", lambda: m.num_vertices == V and len(m.faces) == V),
            ("genus", lambda: m.genus == 1),
            ("curve count",
             lambda: len(self.lib[1].curves(m)) == job["curves"]),
            ("basis size", lambda: len(basis.walks) == 2),
            ("canonical key", lambda: len(key[0]) == 4 * V),
            ("reduction", lambda: len(reduced.faces) <= 2
             and len(steps) == V - len(reduced.faces)),
            ("norms", lambda: norms == [(x, x) for x in job["norms"]]),
        )
        wrong = [name for name, ok in checks if not ok()]
        return "polygon %s: %s wrong" % (job["hull"], ", ".join(wrong)) \
            if wrong else None


WORKLOADS = {w.name: w for w in (Census, Dualball, Realize)}
