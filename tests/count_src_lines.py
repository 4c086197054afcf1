"""Line counts of the package source, one line per module and a total.

Run from the repository root:

    python tests/count_src_lines.py

For each ``src/vectorlight/*.py`` file it prints the number of lines and of
code lines: lines that are not blank, not only a comment and not part of a
docstring (of the module, a class or a function).  A change's net line
delta is the difference of two such tables.  pytest does not collect this
file.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "vectorlight")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str):
    """(lines, code lines) of the Python source `text`."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> int:
    rows = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            rows.append((os.path.basename(path), *count(fh.read())))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'file':<14} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<14} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
