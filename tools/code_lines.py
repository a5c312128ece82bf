#!/usr/bin/env python3
"""Count the code lines of a package: every line that holds a token, apart
from blank lines, comments and docstrings.

Usage, from the root of a checkout:

    python3 tools/code_lines.py            # src/lsrsim
    python3 tools/code_lines.py PATH ...   # these .py files or directories

It prints one line per module, ``<count> <path>``, then ``<total> total``.
``tokenize`` finds the lines that hold a token, and ``ast`` finds the
docstrings: the string that opens a module, a class or a function.  A
string that spans lines counts each of its lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = node.body if isinstance(node, _SCOPES) else []
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NO_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path(__file__).resolve().parent.parent / "src" / "lsrsim"]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
