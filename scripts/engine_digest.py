#!/usr/bin/env python3
"""Print one sha256 digest over ``integrals.fg_log`` at a fixed point set.

Usage: python scripts/engine_digest.py

The points are the 1,375 distinct (nu, beta, x) of the default sweep grid,
a ``random.Random(15)`` sample over nu in (-1, 30], beta in {0, 1} and
(0, 1), x log-uniform on [1e-3, 2000], and edge points at x = 5e-324 and
1e-300 and at nu = -1 + 1e-12.  The script prints the point count, the
raises grouped by message, and the digest of the ``repr`` of every result
(a raise enters as its type and message).  Two checkouts that print the same
digest return bit-identical (ln F, ln G) at every point:

    PYTHONPATH=/path/to/other/src python scripts/engine_digest.py
    PYTHONPATH=src python scripts/engine_digest.py

Stdlib only.
"""

import collections
import hashlib
import math
import random

from struveint import harness, integrals

SAMPLE_SIZE = 10_000


def points() -> list[tuple[float, float, float]]:
    """The fixed point set, in a fixed order."""
    grid = harness.default_grid()
    out = sorted(
        {(nu, beta, x) for nu in grid.nu_values for beta in grid.beta_values
         for x in grid.x_values}
    )
    rng = random.Random(15)
    log_lo, log_hi = math.log(1e-3), math.log(2000.0)
    for _ in range(SAMPLE_SIZE):
        nu = 30.0 - 31.0 * rng.random()
        u = rng.random()
        beta = 0.0 if u < 0.1 else 1.0 if u < 0.2 else rng.random()
        out.append((nu, beta, math.exp(rng.uniform(log_lo, log_hi))))
    for x in (5e-324, 1e-300):
        out += [(1.0, 0.5, x), (-0.5, 0.0, x), (5.0, 1.0, x)]
    nu = -1.0 + 1e-12
    out += [(nu, beta, x) for beta in (0.0, 0.5, 1.0) for x in (1e-3, 1.0, 50.0, 1000.0)]
    return out


def digest(pts) -> tuple[str, dict[str, int]]:
    """(sha256 hex of every result's repr, raise count by message)."""
    h = hashlib.sha256()
    raises = collections.Counter()
    for point in pts:
        try:
            result = repr(integrals.fg_log(*point))
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            result = f"{type(exc).__name__}: {exc}"
            raises[result] += 1
        h.update(f"{point!r} {result}\n".encode())
    return h.hexdigest(), dict(raises)


if __name__ == "__main__":
    pts = points()
    hexdigest, raises = digest(pts)
    print(f"points: {len(pts)}")
    for message, count in sorted(raises.items()):
        print(f"raised {count}: {message}")
    print(f"sha256: {hexdigest}")
