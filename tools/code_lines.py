"""Count the code lines of a Python package: the non-blank lines that are
neither comment nor docstring, per module and in total.

A line counts when a token other than a comment or a line break starts on
it or spans it, unless it lies in a docstring (the leading string of a
module, class or function).  Only the standard library is used
(``ast`` and ``tokenize``).

    python tools/code_lines.py            # src/qhcurv
    python tools/code_lines.py PACKAGE_DIR
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_line_set(path: Path) -> set:
    """The numbers of the code lines of one source file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(ast.parse(path.read_bytes(), filename=str(path)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else Path(__file__).resolve().parent.parent / "src" / "qhcurv")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = len(code_line_set(path))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
