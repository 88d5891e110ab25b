#!/usr/bin/env python3
"""Run tier-1 in-process under a line trace and print every executable line
of ``src/struveint`` that no test reached.

Usage: python scripts/line_trace.py [PYTEST_ARGS...]

The trace is ``sys.settrace`` (and ``threading.settrace``, for the tests that
use a thread pool); the executable lines of each module are those that
``code.co_lines()`` names in its compiled code objects.  Tracing starts
before ``struveint`` is imported, so module-level lines count too.  Each
unreached line prints as ``path:line: source``, followed by one summary
line, then each unreached line that ``ACCEPTED`` does not name, as
``not accepted: path: source``.  The exit code is pytest's if that is
nonzero, else 1 if a line is not accepted, else 0: the verdict of CI's
Python 3.12 tier-1 step, which runs this script.  Extra arguments go to
pytest, after the tier-1 defaults (``-q --continue-on-collection-errors
-p no:cacheprovider``).  A full tier-1 run takes a few times its untraced
time.

Stdlib only, apart from pytest itself.
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "struveint"

# the unrun lines ROADMAP "Settled" accepts, as path: source; the line
# number is left out, so an edit above an accepted line does not move it
ACCEPTED = {
    "src/struveint/cli.py: sys.exit(main())",
    "src/struveint/specfun.py: c = tiny",
    "src/struveint/specfun.py: d = tiny",
}


def executable_lines(path: Path) -> set[int]:
    """Every line number that some instruction of the module carries."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    sources = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    reached = {path: set() for path in sources}
    local_tracers = {}  # co_filename -> local trace function, or None

    def local_tracer(filename):
        path = os.path.realpath(filename)
        if path not in reached:
            return None
        seen = reached[path]

        def trace_lines(frame, event, arg):
            seen.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return local_tracers[filename]
        except KeyError:
            tracer = local_tracers[filename] = local_tracer(filename)
            return tracer

    # what `PYTHONPATH=src python -m pytest` would put first on sys.path
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = []  # path: source of each unrun line
    total = 0
    for path, file in sources.items():
        lines = executable_lines(file)
        total += len(lines)
        text = file.read_text().splitlines()
        name = file.relative_to(ROOT)
        for line in sorted(lines - reached[path]):
            source = text[line - 1].strip()
            unreached.append(f"{name}: {source}")
            print(f"{name}:{line}: {source}")
    print(f"{len(unreached)} of {total} executable lines in src/struveint never ran")
    stranded = [line for line in unreached if line not in ACCEPTED]
    for line in stranded:
        print(f"not accepted: {line}")
    return int(code) or int(bool(stranded))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
