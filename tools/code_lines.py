"""Count the code lines of the Python modules under a directory.

    python3 tools/code_lines.py [DIR]

prints each module's code lines, its path relative to DIR (default
src/ppgf), then the total.  A code line is one that is not blank, not
a comment alone, and not inside a module, class or function docstring,
which are found with ast.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text):
    """The number of code lines in the Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, _SCOPES) and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if n not in docstrings
               and line.strip() and not line.strip().startswith("#"))


def main(argv):
    root = Path(argv[0] if argv else "src/ppgf")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%6d  %s" % (n, path.relative_to(root)))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
