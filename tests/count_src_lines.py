"""Line counts of the package source, one line per module and a total.

Run from the repository root:

    python tests/count_src_lines.py
    python tests/count_src_lines.py --against REV

For each ``src/vectorlight/*.py`` file it prints the number of lines and of
code lines: lines that are not blank, not only a comment and not part of a
docstring (of the module, a class or a function).  With ``--against REV``
it prints each module's counts at the git revision REV (read through
``git show``), its counts in the working tree and the deltas; a module
missing on one side counts as 0 lines there.  pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import os
import subprocess
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "vectorlight")

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


def _tree_counts() -> dict:
    counts = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = count(fh.read())
    return counts


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def _rev_counts(rev: str) -> dict:
    names = _git("ls-tree", "--name-only", rev, "src/vectorlight/").split()
    return {os.path.basename(n): count(_git("show", f"{rev}:{n}"))
            for n in names if n.endswith(".py")}


def _total(counts: dict):
    return tuple(map(sum, zip(*counts.values()))) or (0, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also count the modules at git revision REV "
                             "and print the deltas")
    args = parser.parse_args(argv)
    tree = _tree_counts()
    if args.against is None:
        print(f"{'file':<14} {'lines':>6} {'code':>6}")
        for name, (lines, code) in [*tree.items(), ("total", _total(tree))]:
            print(f"{name:<14} {lines:>6} {code:>6}")
        return 0
    try:
        old = _rev_counts(args.against)
    except subprocess.CalledProcessError as err:
        print(f"count_src_lines: {err.stderr.strip()}", file=sys.stderr)
        return 2
    rows = [(name, old.get(name, (0, 0)), tree.get(name, (0, 0)))
            for name in sorted(old.keys() | tree.keys())]
    rows.append(("total", _total(old), _total(tree)))
    print(f"against {args.against}: lines and code lines there, in the "
          "working tree, and the deltas")
    print(f"{'file':<14} {'lines':>6} {'code':>6} {'lines':>6} {'code':>6} "
          f"{'dlines':>7} {'dcode':>6}")
    for name, (l0, c0), (l1, c1) in rows:
        print(f"{name:<14} {l0:>6} {c0:>6} {l1:>6} {c1:>6} "
              f"{l1 - l0:>+7} {c1 - c0:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
