#!/usr/bin/env python3
"""Count the code lines of each module of a Python package.

A code line holds at least one token that is neither a comment nor part of
a docstring; blank lines, comment lines and the lines of module, class and
function docstrings are not counted.  A line that carries a statement and a
trailing comment counts once.

Example:
    python3 scripts/code_lines.py            # the modules of src/qll
    python3 scripts/code_lines.py src/qll/cli.py
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/qll"],
                        help="package directories or module files")
    args = parser.parse_args()
    files = sorted(f for p in map(Path, args.paths)
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        count = code_lines(f.read_text("utf-8"))
        total += count
        print("%6d  %s" % (count, f))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
