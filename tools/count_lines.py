"""Count code and physical lines of Python files.

A line counts as code if it holds a token outside comments and outside
module, class or function docstrings; blank lines do not count. Physical
lines are all lines of the file.

Usage: python tools/count_lines.py [PATH ...]   (default: src/adval)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, physical lines) of one file's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source))), len(source.splitlines())


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path("src/adval")]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py")))
    total_code = total_physical = 0
    for f in files:
        code, physical = count(f.read_text(encoding="utf-8"))
        total_code += code
        total_physical += physical
        print(f"{code:6d} {physical:6d}  {f}")
    print(f"{total_code:6d} {total_physical:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
