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


def test_every_public_function_is_used_in_the_package():
    # a public top-level function must be called or named somewhere else in
    # the package, or exported by name in __all__; code that serves only the
    # tests belongs in tests/oracles.py
    defined, used = set(), set()
    for path in sorted(Path(garside.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            is_def = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def and not top.name.startswith("_"):
                defined.add(top.name)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and not (is_def and name == top.name):
                    used.add(name)
    used.update(garside.__all__)
    assert sorted(defined - used) == []
