import ast
from pathlib import Path

import nsbox

SRC = Path(nsbox.__file__).resolve().parent


def test_library_has_no_assert_statements():
    """python -O strips assert, so no check in the library may rely on it."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
