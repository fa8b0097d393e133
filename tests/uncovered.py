"""List every statement of src/garside that the tier-1 suite never runs.

    python tests/uncovered.py [pytest arguments, by default the tests folder]

The line trace starts before anything imports garside and the suite runs in
this process, so code run only by a child process counts as not run.
Skipped: `raise NotImplementedError` stubs, the `if __name__` block and the
`_dispatch` fall-through.  The traced suite runs several times slower.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "garside"
SKIP = ("raise NotImplementedError", "if __name__", "raise RuntimeError(f'unhandled command")
ran: dict = {}  # code file name -> the set of its lines that ran, None outside the package


def trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in ran:
        path = Path(name).resolve()
        ran[name] = ran.setdefault(path, set()) if path.parent == PACKAGE else None
    lines = ran[name]

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local
    return None if lines is None else local


def unrun(path: Path, lines: set) -> list:
    out, todo = [], [ast.parse(path.read_text())]
    while todo:
        node = todo.pop()
        if ast.unparse(node).startswith(SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # docstrings compile to no instruction
        body = [c for c in ast.iter_child_nodes(node)
                if isinstance(c, (ast.stmt, ast.excepthandler, ast.match_case))]
        if body or not isinstance(node, ast.stmt):
            todo += body
        elif lines.isdisjoint(range(node.lineno, node.end_lineno + 1)):
            out.append(node.lineno)
    return sorted(out)


if __name__ == "__main__":
    sys.settrace(trace)
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider", *(sys.argv[1:] or [str(ROOT / "tests")])])
    sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in unrun(path, ran.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    sys.exit(status)
