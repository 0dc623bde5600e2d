"""Print the code lines of src/onebit, per file and in total.

A code line is a non-blank line that is neither a comment-only line nor a
line of a docstring (the string that opens a module, class or function).

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "onebit"


def code_lines(source: str) -> int:
    """Non-blank lines of source that are not comments or docstrings."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docstring_lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:<12} {count:>6,}")
    print(f"{'total':<12} {total:>6,}")


if __name__ == "__main__":
    main()
