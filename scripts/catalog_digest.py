#!/usr/bin/env python3
"""Print one sha256 digest over the bound catalog at a fixed point set.

Usage: python scripts/catalog_digest.py

Every catalog entry is run through ``eval_bound`` and ``check`` at each
point of NU x BETA x X where its hypothesis holds (``beta`` is None for the
entries that take none).  UB-3.8 takes x_star in {x*, 1.5 x*}, x* =
``default_x_star(beta)``, and LB-2.3 each truncation in TRUNCATIONS.  The
point set reaches past the default grid: orders near -1 and -1/2, beta near
0 and 1, subnormal and large x.  The script prints the result count, the
raises grouped by type, and the digest of the ``repr`` of every result (a
raise enters as its type and message).  Two checkouts that print the same
digest return identical bounds and margins at every point:

    PYTHONPATH=/path/to/other/src python scripts/catalog_digest.py
    PYTHONPATH=src python scripts/catalog_digest.py

Stdlib only; public API only.
"""

import collections
import hashlib

from struveint import check, default_x_star, eval_bound, list_bounds

NU = (-0.99, -0.5, -0.49, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 10.0, 30.0)
BETA = (0.001, 0.1, 0.5, 0.9, 0.999)
X = (5e-324, 1e-300, 1e-6, 0.05, 1.0, 7.5, 127.0, 500.0, 1000.0)
TRUNCATIONS = (None, 1, 2, 5, 17)


def calls():
    """(bound_id, nu, beta, x, x_star, truncation) in a fixed order, each
    inside its bound's hypothesis."""
    for spec in list_bounds():
        truncations = TRUNCATIONS if spec.bound_id == "LB-2.3" else (None,)
        for nu in NU:
            for beta in BETA if spec.uses_beta else (None,):
                x_stars = (None,)
                if spec.uses_x_star:
                    x_star = default_x_star(beta)
                    x_stars = (x_star, 1.5 * x_star)
                for x_star in x_stars:
                    for x in X:
                        if spec.validity(nu, beta, x, x_star) is not None:
                            continue
                        for truncation in truncations:
                            yield spec.bound_id, nu, beta, x, x_star, truncation


def digest() -> tuple[str, int, dict[str, int]]:
    """(sha256 hex of every result's repr, result count, raises by type)."""
    h = hashlib.sha256()
    raises = collections.Counter()
    count = 0
    for args in calls():
        for fn in (eval_bound, check):
            try:
                result = repr(fn(*args))
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                result = f"{type(exc).__name__}: {exc}"
                raises[type(exc).__name__] += 1
            h.update(f"{fn.__name__}{args!r} {result}\n".encode())
            count += 1
    return h.hexdigest(), count, dict(raises)


if __name__ == "__main__":
    hexdigest, count, raises = digest()
    print(f"results: {count}")
    for name, n in sorted(raises.items()):
        print(f"raised {n}: {name}")
    print(f"sha256: {hexdigest}")
