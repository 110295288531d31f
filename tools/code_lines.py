#!/usr/bin/env python3
"""Count the code lines of Python modules: lines outside docstrings, comments and blanks.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files; the default
is src/afpipe. Prints each module's count and then the total. A line counts
when it holds a token other than a comment, a newline or an indent, and it
is not part of a module, class or function docstring. Every line a
multi-line token spans counts, so a long string that is not a docstring
counts in full.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path("src/afpipe")]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
