"""Count the lines of the criotq package, in all and as code.

Usage, from any directory:

    python3 scripts/src_lines.py

For each ``src/criotq/*.py`` module of the checkout this script sits in,
and in total, it prints the line count that ``wc -l`` gives and the
count of code lines.  Under that table it prints the same two totals
over the ``tests/*.py`` files, so a change that moves code between the
package and its tests shows both sides.  A code line holds at least
one token that is not a comment, and is not part of a docstring (the
leading string of a module, class or function).  Blank lines,
comment-only lines and docstring lines are therefore not code; a line
that continues a statement, a string or a bracket is.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "criotq"
TESTS = ROOT / "tests"

#: Tokens that are not code on their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code, as the module docstring defines it."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def counts(path: Path) -> tuple[int, int]:
    """The ``wc -l`` count and the code-line count of one file."""
    source = path.read_text()
    return source.count("\n"), code_lines(source)


def main() -> None:
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    rows = [(path.name, *counts(path)) for path in sorted(SRC.glob("*.py"))]
    for name, wc, code in rows:
        print(f"{name:<16}{wc:>8}{code:>8}")
    print(f"{'total':<16}{sum(r[1] for r in rows):>8}{sum(r[2] for r in rows):>8}")
    tests = [counts(path) for path in sorted(TESTS.glob("*.py"))]
    print(f"{'tests/ total':<16}{sum(r[0] for r in tests):>8}{sum(r[1] for r in tests):>8}")


if __name__ == "__main__":
    main()
