"""Physical and code lines of the package, per file and in total.

Run from the repository root:

    python3 tools/loc.py

Prints one line per module of `src/opident`, then the total: its physical
lines and its code lines. Code lines leave out docstrings, comments and
blank lines: a line counts when a token other than a comment starts, ends
or runs across it, outside the docstring of a module, class or function.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opident"
# tokens that hold no code: comments, line ends, indentation and markers
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring of a module, class or function."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of a module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    total = [0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        physical, code = count(path.read_text())
        total[0] += physical
        total[1] += code
        print(f"{physical:6,} {code:6,}  {path.name}")
    print(f"{total[0]:6,} {total[1]:6,}  total (physical, code)")


if __name__ == "__main__":
    main()
