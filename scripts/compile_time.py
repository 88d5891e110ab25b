#!/usr/bin/env python3
"""Print how long CPython takes to compile the modules ``import struveint``
loads.

Usage: PYTHONPATH=src python scripts/compile_time.py [ROUNDS]

Where no bytecode can be read (PYTHONDONTWRITEBYTECODE=1 and no
``__pycache__``), each import compiles its module from source, and that is
most of what ``import struveint`` costs.  Each of ROUNDS rounds (7 by
default) compiles every module once.  The script prints each module's median
and, last, the median of the rounds' totals.  Stdlib only.
"""

import statistics
import sys
import time

import struveint


def main(rounds: int = 7) -> None:
    sources = []
    for name, module in sorted(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if path and (name == "struveint" or name.startswith("struveint.")):
            with open(path, encoding="utf-8") as fh:
                sources.append((name, path, fh.read()))
    times = {name: [] for name, _, _ in sources}
    totals = []
    for _ in range(rounds):
        total = 0.0
        for name, path, text in sources:
            start = time.perf_counter()
            compile(text, path, "exec", dont_inherit=True)
            seconds = time.perf_counter() - start
            times[name].append(seconds)
            total += seconds
        totals.append(total)
    for name, _, _ in sources:
        print(f"{name} {statistics.median(times[name]) * 1e3:.3f} ms")
    print(
        f"compile {statistics.median(totals) * 1e3:.2f} ms (median of {rounds}) "
        f"over the {len(sources)} modules import struveint loads"
    )


if __name__ == "__main__":
    main(*map(int, sys.argv[1:2]))
