"""Print the functions, classes and methods of the package that nothing else names.

    python3 tools/dead_names.py

It lists each function, class and method defined in ``src/mfcpoisson/``
whose name, as a whole word, appears nowhere else in the ``.py`` files of
``src/``, ``perfbench/`` and ``tools/``: code that only the tests reach, or
nothing.  Dunder methods are left out, since Python calls them by protocol.
It is a word match, so a name that is only built at run time (``getattr``,
a format string) looks dead, and a name that a comment, an unrelated
identifier or a second definition repeats looks alive.  It prints one
``module.qualified_name`` per line and always exits 0.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mfcpoisson"
SEARCHED = ("src", "perfbench", "tools")


def definitions(path: Path) -> list:
    """(qualified name, name) of every function, class and method in ``path``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def main():
    defs = {path: definitions(path) for path in sorted(PACKAGE.glob("*.py"))}
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    for path, found in defs.items():
        for qualified, name in found:
            if name.startswith("__") and name.endswith("__"):
                continue
            if words[name] == 1:
                print(f"{path.stem}.{qualified}")


if __name__ == "__main__":
    main()
