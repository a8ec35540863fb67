"""List the `raise` lines of src/multirate that the test suite never runs.

Runs the tier-1 tests in this process under `sys.settrace`, with a line
tracer only on frames of the package's own files, then prints each `raise`
statement (by its first line) that no test reached, and a count.  Code that
tests run in child processes (the command line under `subprocess`, a killed
writer) is not traced, so a raise reached only there is listed too.

Standard library and pytest only; run it by hand from the repository root:

    python tools/unreached_raises.py [extra pytest arguments]

Tracing makes the suite several times slower.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multirate"


def raise_lines(path: Path) -> dict[int, str]:
    """The first line of each `raise` statement in `path`, with its text."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    return {
        node.lineno: lines[node.lineno - 1].strip()
        for node in ast.walk(ast.parse(text, str(path)))
        if isinstance(node, ast.Raise)
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    files = {str(p): raise_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        # only the package's frames get a line tracer; every other call costs this lookup
        return local if frame.f_code.co_filename in ran else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = [
        (Path(name).relative_to(ROOT), line, text)
        for name, raises in files.items()
        for line, text in sorted(raises.items())
        if line not in ran[name]
    ]
    for path, line, text in unreached:
        print(f"{path}:{line}: {text}")
    total = sum(len(raises) for raises in files.values())
    print(f"{len(unreached)} of {total} raise statements never ran (pytest exit status {status})")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
