"""Properties of the package source itself."""

import ast
from pathlib import Path

import garside


def test_no_assert_statements():
    # guards must survive python -O, which strips assert statements
    found = []
    for path in sorted(Path(garside.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
