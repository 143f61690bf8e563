"""Count the code lines of Python modules: lines that hold code, leaving out
docstrings, comments and blank lines.

Usage, from the root of a checkout::

    python tools/code_lines.py [PATH ...]

Each ``PATH`` is a ``.py`` file or a directory, whose ``.py`` files are
counted recursively; the default is ``src/hominv``.  One line a module
gives its count, and a last line the total.

A line counts when a token other than a comment starts, ends or runs
through it; a string that spans lines counts on each of them.  A docstring
is a string that stands alone as the first statement of a module, class or
function, and its lines do not count, nor do blank lines, comment lines or
the lines a bracket or backslash continuation leaves empty.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that mark layout, not code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths) -> list[Path]:
    out = []
    for path in map(Path, paths):
        out.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return out


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src/hominv"]
    total = 0
    for module in _modules(paths):
        count = code_lines(module.read_text())
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
