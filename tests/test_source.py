"""Properties of the package source itself."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import garside


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # start-up compiles every module a CLI call imports; argparse,
    # dataclasses (which brings inspect) and json are not among them: json
    # is loaded by the --format json paths alone
    script = ("import garside.cli, sys; "
              "print(sorted({'argparse', 'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_assert_statements():
    # guards must survive python -O, which strips assert statements
    found = []
    for path in sorted(Path(garside.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_are_relative_or_stdlib():
    # the package is pure Python on the standard library alone
    found = []
    for path in sorted(Path(garside.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def _public_defs(tree):
    """Public top-level functions, and public methods that are not
    properties."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not top.name.startswith("_"):
                yield top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")
                        and not any(isinstance(d, ast.Name) and d.id == "property"
                                    for d in node.decorator_list)):
                    yield node


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_function_is_used_in_the_package():
    # a public function or method must be called or named somewhere else in
    # the package, or exported by name in __all__; code that serves only the
    # tests belongs in tests/oracles.py
    defined, used, own = set(), Counter(), Counter()
    for path in sorted(Path(garside.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(_names(tree))
        for d in _public_defs(tree):
            defined.add(d.name)
            own.update(n for n in _names(d) if n == d.name)
    unused = {name for name in defined if used[name] == own[name]}
    assert sorted(unused - set(garside.__all__)) == []
