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


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps these names with getattr, so a deleted
    # or renamed one breaks a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = ["%s.%s" % (layer, qualname)
             for layer, qualnames in tracing.TRACED.items()
             for qualname in qualnames] + list(tracing.HOOKS)
    assert len(names) > 30
    assert [n for n in names if not callable(_resolve(n))] == []
