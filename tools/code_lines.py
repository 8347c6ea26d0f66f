"""Count the code lines of Python files: lines that hold a token other than
a comment, blank-line or indentation token, docstrings excluded.

    python tools/code_lines.py src/polyspec

Prints one ``<code lines> <total lines>  <path>`` line per ``*.py`` file
under the given directories, and a total; total lines count every line of
the file.  A token that spans several lines (a long string, say) counts
every line it covers.
Docstrings are the string statements that open a module, class or
function; ``ast`` finds them, ``tokenize`` finds the code.  Standard
library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    code_total = line_total = 0
    for path in (p for root in argv for p in sorted(Path(root).rglob("*.py"))):
        code, lines = code_lines(path), len(path.read_text().splitlines())
        code_total += code
        line_total += lines
        print(f"{code:6d} {lines:6d}  {path}")
    print(f"{code_total:6d} {line_total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
