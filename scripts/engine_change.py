#!/usr/bin/env python3
"""Say how far the engine's logs, and the L and I kernels', moved between two
fingerprint runs.

Usage: python scripts/engine_change.py OLD_DIR NEW_DIR

Reads the ``engine.txt`` that ``scripts/fingerprint.py`` wrote to each
directory, one ``(nu, beta, x) result`` line per point, where the result is
``integrals.fg_log``'s (ln F, ln G) or the raise.  Prints how many points
moved, the largest |d ln F| and |d ln G| with the point of each, and how
many points went from a value to a raise or back.  Then, where both
directories hold a ``kernels.txt`` (``L (nu, x) result`` and ``I (nu, x)
result`` lines), one line per kernel: how many of its points moved and the
largest |d| of its log.  Exits 2 if the two runs did not evaluate the same
points.  Stdlib only.
"""

import sys
from pathlib import Path


def read(out_dir, name="engine.txt") -> list[tuple[str, str]]:
    """(point, result) of each line of OUT_DIR/NAME, in order."""
    text = (Path(out_dir) / name).read_text(encoding="utf-8")
    return [tuple(line.split(") ", 1)) for line in text.splitlines()]


def logs(result: str):
    """The logs of a result, (ln F, ln G) or a kernel's (log,), or None for a
    raise."""
    try:
        return tuple(map(float, result.strip("()").split(", ")))
    except ValueError:
        return None


def tally(old, new, width):
    """(points moved, [(largest |d|, its point)] per log, points that went
    from a value to a raise or back) from ``new`` against ``old``, whose
    results hold ``width`` logs each."""
    moved = kind = 0
    worst = [(0.0, None)] * width
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
    return moved, worst, kind


def at(point) -> str:
    return f" at {point}" if point else ""


def change(old, new) -> str:
    """One line on how the results ``new`` differ from ``old``."""
    moved, ((d_f, at_f), (d_g, at_g)), kind = tally(old, new, 2)
    return (
        f"engine: {moved} of {len(new)} points moved; max |d ln F| {d_f:.3g}{at(at_f)}, "
        f"max |d ln G| {d_g:.3g}{at(at_g)}; {kind} between a value and a raise"
    )


def kernel_changes(old, new) -> list[str]:
    """One line per kernel, L then I, on how its logs in ``new`` differ from
    ``old``."""
    out = []
    for name in ("L", "I"):
        rows = [i for i, (point, _) in enumerate(new) if point.startswith(name + " ")]
        moved, ((delta, point),), kind = tally(
            [old[i] for i in rows], [new[i] for i in rows], 1
        )
        out.append(
            f"kernel {name}: {moved} of {len(rows)} points moved; max |d ln| {delta:.3g}"
            f"{at(point)}; {kind} between a value and a raise"
        )
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python scripts/engine_change.py OLD_DIR NEW_DIR")
    old, new = read(sys.argv[1]), read(sys.argv[2])
    if [p for p, _ in old] != [p for p, _ in new]:
        print("engine: the two runs evaluated different points", file=sys.stderr)
        sys.exit(2)
    print(change(old, new))
    if all((Path(d) / "kernels.txt").is_file() for d in sys.argv[1:]):
        old, new = read(sys.argv[1], "kernels.txt"), read(sys.argv[2], "kernels.txt")
        if [p for p, _ in old] != [p for p, _ in new]:
            print("kernels: the two runs evaluated different points", file=sys.stderr)
            sys.exit(2)
        print("\n".join(kernel_changes(old, new)))
