import ast
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
