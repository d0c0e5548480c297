import ast
import importlib.util
from pathlib import Path

from isonorm import maps


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so no invariant may rest on one
    paths = sorted(Path(maps.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    found = ["%s:%d" % (p.name, node.lineno)
             for p in paths
             for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_level_memo_tables():
    # a functools.cache or lru_cache on a top-level function is a table
    # that lives as long as the process and grows with every call
    memo = {"cache", "lru_cache", "functools.cache", "functools.lru_cache"}
    paths = sorted(Path(maps.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    found = ["%s:%d" % (p.name, stmt.lineno)
             for p in paths
             for stmt in ast.parse(p.read_text(), str(p)).body
             if isinstance(stmt, ast.FunctionDef)
             for dec in stmt.decorator_list
             if ast.unparse(dec).split("(")[0] in memo]
    assert found == []


def _names(tree):
    """Every identifier a module defines, imports or refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_only_maps_decides_validity():
    # a map is validated once, when it is built, so no other module
    # re-checks one it is handed
    paths = sorted(Path(maps.__file__).parent.glob("*.py"))
    names = {p.name: set(_names(ast.parse(p.read_text(), str(p))))
             for p in paths}
    assert len(names) >= 9
    assert [p for p, ids in names.items() if "check_valid" in ids] == []
    assert [p for p, ids in names.items() if "validate" in ids] == ["maps.py"]


def _resolve(dotted):
    """The library object named 'layer.name' or 'layer.Class.method',
    or None when some part of the name is missing."""
    layer, qualname = dotted.split(".", 1)
    obj = importlib.import_module("isonorm." + layer)
    for attr in qualname.split("."):
        obj = getattr(obj, attr, None)
    return obj


def _tracing():
    """perfbench/tracing.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced_names():
    tracing = _tracing()
    return ["%s.%s" % (layer, qualname)
            for layer, qualnames in tracing.TRACED.items()
            for qualname in qualnames] + list(tracing.HOOKS)


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps these names with getattr, so a deleted
    # or renamed one breaks a traced run
    names = _traced_names()
    assert len(names) > 30
    assert [n for n in names if not callable(_resolve(n))] == []


# Library API that states one of the paper's lemmas; only the tests call
# it, and it stays in the library all the same.
LEMMA_API = {
    "maps.canonical_form", "maps.isomorphic",
    "homology.coboundary", "homology.vertex_circle", "homology.evaluate",
    "coorient.is_eulerian", "coorient.vertex_type",
    "census.self_intersection", "census.AnnulusArc",
    "census.arc_intersection",
    "moves.eulco_union_check",
}


def test_every_library_definition_has_a_library_caller():
    # a top-level function or class that no library module refers to is
    # dead code or a test oracle (whose place is tests/_helpers.py),
    # unless it is lemma API or the benchmark's tracer fetches it by name
    defined = {}   # "module.name" -> top-level definition
    referrers = {}  # name -> the "module.name" of each referring definition
    for path in sorted(Path(maps.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = "%s.%s" % (path.stem, getattr(stmt, "name", ""))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[owner] = stmt
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or (
                    node.attr if isinstance(node, ast.Attribute) else None)
                if name:
                    referrers.setdefault(name, set()).add(owner)
    assert len(defined) > 100
    assert LEMMA_API <= set(defined)
    kept = LEMMA_API | {".".join(n.split(".")[:2]) for n in _traced_names()}
    # a definition's references to itself (recursion) do not count
    unreferenced = [qualname for qualname, stmt in defined.items()
                    if not referrers.get(stmt.name, set()) - {qualname}]
    assert [n for n in unreferenced if n not in kept] == []


# The library modules that still compute with fractions.Fraction, each for
# a reason that ROADMAP.md tracks as an open item.
FRACTION_USERS = {
    "polytope.py",  # hull and membership LPs in dimension 3 and up
    "homology.py",  # integer_inverse, a test oracle still in the library
    "torus.py",     # curve offsets and crossing parameters on the torus
}


def test_only_named_modules_import_fractions():
    # crossing parameters elsewhere are exact integer keys
    paths = sorted(Path(maps.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    found = {p.name for p in paths
             for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import)
             and any(a.name == "fractions" for a in node.names)}
    assert found == FRACTION_USERS
