"""Count physical and code lines of Python sources.

A code line carries a Python token other than a comment; a module's,
class's or function's docstring does not count, whatever it spans.
A multi-line string that is not a docstring counts on every line it
spans, and so does each line of a statement continued over several.

Usage::

    python tools/code_lines.py [PATH ...]     # default: src

Each path is a ``.py`` file or a directory searched for them.  Prints
each file's physical and code lines, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set, Tuple

#: tokens that carry no code: layout, comments, the stream's ends
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
             tokenize.ENCODING}

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> Set[Tuple[int, int]]:
    """Where each docstring token of ``tree`` starts: (row, column)."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> Tuple[int, int]:
    """``(physical, code)`` lines of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(lines)


def python_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: List[str]) -> int:
    total_physical = total_code = 0
    print(f"{'physical':>8} {'code':>7}  path")
    for path in python_files(argv or ["src"]):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{physical:>8,} {code:>7,}  {path}")
    print(f"{total_physical:>8,} {total_code:>7,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
