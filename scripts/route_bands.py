#!/usr/bin/env python3
"""Where eval-domain's F/G time goes, by the route that serves each point.

Usage: PYTHONPATH=src python scripts/route_bands.py [SEED ...]   (default: 1 7 11)

Draws each seed's eval-domain points (``perfbench/workloads.draw_points``),
names the route that serves each by calling the route functions themselves,
and times its F or G call cold, every struveint lru cache cleared, as the
least of REPEATS calls.  Prints per band the points, share of points, share
of time and microseconds per call: a markdown table, then one JSON line.
Stdlib only.
"""

import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from struveint import bounds, integrals, large_x, specfun  # noqa: E402
from workloads import draw_points  # noqa: E402

REPEATS = 7
CACHES = [f for m in (bounds, integrals, specfun) for f in vars(m).values() if hasattr(f, "cache_clear")]


def band(fn: str, nu: float, beta: float, x: float) -> str:
    if x <= 100.0:
        return "x < 10" if x < 10.0 else "10 <= x <= 100"
    if large_x.pair_log(nu, beta, x) is not None:
        return "x > 100, large-x route"
    if beta == 1.0 and fn == "F" and nu > -0.5 and integrals._beta1_log(nu, x) is not None:
        return "x > 100, F's closed form at beta = 1"
    split = getattr(large_x, "beta1_log", None)  # None in checkouts without the split
    if beta == 1.0 and split is not None and large_x.beta1_x1(nu) < x:
        x1, half = large_x.beta1_x1(nu), int(fn == "G")
        if split(nu + half, nu, x, x1, integrals._termwise_pair_log(nu, 1.0, x1)[half]) is not None:
            return "x > 100, beta = 1 split"
    return "x > 100, engine"


def cold_us(fn: str, nu: float, beta: float, x: float) -> float:
    best = math.inf
    for _ in range(REPEATS):
        for cache in CACHES:
            cache.cache_clear()
        start = time.perf_counter()
        try:
            getattr(integrals, fn)(nu, beta, x)
        except Exception:  # eval-domain times its failures too
            pass
        best = min(best, time.perf_counter() - start)
    return best * 1e6


if __name__ == "__main__":
    points = [p for seed in sys.argv[1:] or ("1", "7", "11") for p in draw_points(int(seed))]
    rows = {}
    for point in points:
        n, us = rows.get(name := band(*point), (0, 0.0))
        rows[name] = (n + 1, us + cold_us(*point))
    total = sum(us for _, us in rows.values())
    table = {name: {"points": n, "share_points": round(n / len(points), 4),
                    "share_time": round(us / total, 4), "us_per_call": round(us / n, 1)}
             for name, (n, us) in sorted(rows.items())}
    print("| band | points | share of points | share of time | per call |\n|---|---|---|---|---|")
    for name, r in table.items():
        print(f"| {name} | {r['points']} | {r['share_points']:.1%} | {r['share_time']:.1%} "
              f"| {r['us_per_call']:.0f} µs |")
    print(json.dumps({"points": len(points), "total_ms": round(total / 1e3, 2), "bands": table}))
