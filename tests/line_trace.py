"""List every line of src/fracrd that the tier-1 suite never runs.

Runs the suite under tests/ in this process with a line tracer installed by
sys.settrace and threading.settrace, records the line events in src/fracrd,
and compares them with the lines of each module's code objects (co_lines,
recursively).  Prints each line that never ran and exits 1 if any line other
than `sys.exit(main())` never ran, or if the suite fails.  Pytest does not
collect this file; run it from the repository root with

    python tests/line_trace.py
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fracrd"
# run only when the module is a script; the suite imports it
NEVER_RUN_BY_TESTS = {"sys.exit(main())"}


def code_lines(code) -> set:
    """The line numbers of code and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def main() -> int:
    sources = {os.path.realpath(p): p for p in sorted(SRC.glob("*.py"))}
    ran = {path: set() for path in sources}
    real = {}  # co_filename -> its realpath, or None outside src/fracrd

    def local(frame, event, arg):
        ran[real[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            path = os.path.realpath(name)
            real[name] = path if path in ran else None
        return local(frame, event, arg) if real[name] else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path, src in sources.items():
        text = src.read_text()
        lines = text.splitlines()
        for n in sorted(code_lines(compile(text, str(src), "exec")) - ran[path]):
            missed.append((src.relative_to(ROOT), n, lines[n - 1].strip()))
    print(f"\n{len(missed)} src/fracrd lines never ran")
    for rel, n, line in missed:
        print(f"{rel}:{n}: {line}")
    return int(status != 0 or any(line not in NEVER_RUN_BY_TESTS for *_, line in missed))


if __name__ == "__main__":
    sys.exit(main())
