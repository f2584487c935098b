"""Run every fenced ``python`` block of README.md and fail on any exception.

    python3 tools/readme_examples.py

The blocks run in order in one namespace, so a later block may use the names
an earlier one defined.  They run with this checkout's ``src/`` first on the
import path and with a temporary directory as the working directory, so any
file an example writes goes there and not into the checkout.  The script
prints each block's line number and wall time, and exits 1 at the first block
that raises, after printing its traceback.
"""
from __future__ import annotations

import os
import re
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLOCK = re.compile(r"^```python[ \t]*\n(.*?)^```[ \t]*$", re.MULTILINE | re.DOTALL)


def python_blocks(text: str) -> list:
    """(first line number, source) of each fenced python block, in order."""
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in BLOCK.finditer(text)
    ]


def run(readme: Path) -> int:
    """Run the python blocks of ``readme``; 0 if all pass, 1 otherwise."""
    readme = Path(readme).resolve()
    blocks = python_blocks(readme.read_text())
    if not blocks:
        print(f"no python block in {readme}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    namespace = {"__name__": "__readme__"}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="readme-examples-") as work:
        os.chdir(work)
        try:
            for line, source in blocks:
                start = time.perf_counter()
                try:
                    exec(compile(source, f"{readme.name}:{line}", "exec"), namespace)
                except Exception:
                    traceback.print_exc()
                    print(f"{readme.name} block at line {line} failed", file=sys.stderr)
                    return 1
                print(f"{readme.name} block at line {line}: ok in {time.perf_counter() - start:.2f} s")
        finally:
            os.chdir(cwd)
    return 0


def main() -> int:
    return run(ROOT / "README.md")


if __name__ == "__main__":
    sys.exit(main())
