"""List the statements of src/polyspec that a pytest run never executes.

    PYTHONPATH=src python tools/uncovered.py [pytest arguments]

Runs pytest in this process (default arguments: ``-q tests``) under a
``sys.settrace`` hook that traces only frames whose code lives under
src/polyspec, then prints one ``path:line: source`` line per statement
that never ran, and a count.  Standard library only, Python 3.10 and up.

A statement ran if a line event fell anywhere in it, decorators
included: a compound statement (``def``, ``if``, ``for``, ...) whose
header makes no event of its own still ran if a statement inside it did,
and a branch that never ran is listed through its own statements.
Docstrings are excluded by the rule tools/code_lines.py uses.  The
package must be imported after the hook is installed, so run it in a
fresh process.  The exit status is 0 once the list is printed, whether
or not tests failed (tier-1 is the gate, not this listing); pytest's own
status is passed on when the run did not complete.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from code_lines import docstring_lines  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def statements(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of each statement in a file, in line order;
    docstrings are left out."""
    tree = ast.parse(path.read_text())
    skip = docstring_lines(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno not in skip:
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            out.append((first, node.end_lineno))
    return sorted(out)


def traced_lines(src: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with the trace hook; pytest's exit status and the lines
    that ran, per file under src."""
    import pytest

    prefix = str(src.resolve()) + "/"
    hits: dict[str, set[int]] = {}
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = name.startswith(prefix)
            if keep:
                hits[name] = set()
        return local if keep else None

    previous = sys.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return int(status), hits


def never_ran(src: Path, hits: dict[str, set[int]]) -> list[tuple[Path, int, str]]:
    """(path, first line, first source line) of each statement under src
    that no line event reached."""
    missed = []
    for path in sorted(src.resolve().rglob("*.py")):
        ran = hits.get(str(path), set())
        lines = path.read_text().splitlines()
        for first, last in statements(path):
            if ran.isdisjoint(range(first, last + 1)):
                missed.append((path, first, lines[first - 1].strip()))
    return missed


def main(argv: list[str]) -> int:
    src = ROOT / "src" / "polyspec"
    status, hits = traced_lines(src, argv or ["-q", str(ROOT / "tests")])
    missed = never_ran(src, hits)
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} statements never ran")
    return 0 if status in (0, 1) else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
