"""Line counts of the package's modules: total lines and code lines.

    python3 scripts/count_lines.py

Code lines are the lines that hold a token other than a comment, a line
break or an indentation change, leaving out the lines of docstrings (the
string that opens a module, class or function body).  One row per module
of src/weylstrata, then the totals.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "weylstrata")

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                lines, code = count(handle.read())
            totals = [totals[0] + lines, totals[1] + code]
            print(f"{name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {totals[0]:>6,} {totals[1]:>6,}")


if __name__ == "__main__":
    main()
