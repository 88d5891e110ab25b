#!/usr/bin/env python3
"""Say how far the engine's logs moved between two fingerprint runs.

Usage: python scripts/engine_change.py OLD_DIR NEW_DIR

Reads the ``engine.txt`` that ``scripts/fingerprint.py`` wrote to each
directory, one ``(nu, beta, x) result`` line per point, where the result is
``integrals.fg_log``'s (ln F, ln G) or the raise.  Prints how many points
moved, the largest |d ln F| and |d ln G| with the point of each, and how
many points went from a value to a raise or back.  Exits 2 if the two runs
did not evaluate the same points.  Stdlib only.
"""

import sys
from pathlib import Path


def read(out_dir) -> list[tuple[str, str]]:
    """(point, result) of each line of OUT_DIR/engine.txt, in order."""
    text = (Path(out_dir) / "engine.txt").read_text(encoding="utf-8")
    return [tuple(line.split(") ", 1)) for line in text.splitlines()]


def logs(result: str):
    """(ln F, ln G) of a result, or None for a raise."""
    if not result.startswith("("):
        return None
    return tuple(map(float, result.strip("()").split(", ")))


def change(old, new) -> str:
    """One line on how the results ``new`` differ from ``old``."""
    moved = kind = 0
    worst = [(0.0, None), (0.0, None)]  # (|d ln F|, point), (|d ln G|, point)
    for (point, before), (_, after) in zip(old, new):
        if before == after:
            continue
        moved += 1
        before, after = logs(before), logs(after)
        if before is None or after is None:
            kind += (before is None) != (after is None)  # not a raise's new message
            continue
        for i, (b, a) in enumerate(zip(before, after)):
            delta = 0.0 if a == b else abs(a - b)
            if delta > worst[i][0]:
                worst[i] = (delta, point + ")")
    (d_f, at_f), (d_g, at_g) = worst
    return (
        f"engine: {moved} of {len(new)} points moved; max |d ln F| {d_f:.3g}"
        f"{f' at {at_f}' if at_f else ''}, max |d ln G| {d_g:.3g}"
        f"{f' at {at_g}' if at_g else ''}; {kind} between a value and a raise"
    )


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python scripts/engine_change.py OLD_DIR NEW_DIR")
    old, new = read(sys.argv[1]), read(sys.argv[2])
    if [p for p, _ in old] != [p for p, _ in new]:
        print("engine: the two runs evaluated different points", file=sys.stderr)
        sys.exit(2)
    print(change(old, new))
