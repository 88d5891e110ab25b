"""The three workloads: their inputs, one timed pass each, and output checks.

A workload's ``run_pass`` does only the calls a user waits for and returns
their raw outputs; ``check`` compares those outputs with the expected ones
outside the timed region and returns (ops attempted, ops failed, worst error,
whether every failure is a documented one).
"""

from __future__ import annotations

import contextlib
import decimal
import gzip
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path

from struveint import cli, harness, integrals
from struveint.errors import ConvergenceError

from spans import rebind
from speed import SpeedClock

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

# a check passes when |value - expected| <= CLOSE * (1 + |expected|): both
# sides are documented accurate to 1e-9, so they may differ by twice that
CLOSE = 2e-9
# eval-domain values must match the 30-digit reference to this relative error
REL_TOL = 1e-9


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= CLOSE * (1.0 + abs(expected))


def scaled_error(value: float, expected: float) -> float:
    return abs(value - expected) / (1.0 + abs(expected))


class OpTimes:
    """Durations of one pass's timed ops in call order, in reference seconds
    (see speed.py), and whether each op returned (1) or raised (0); the
    arrays are reused from pass to pass.  ``start`` and ``stop`` bracket a
    pass; the host's speed is probed between ops, and ``stop`` returns the
    pass's time in reference seconds, the probes left out."""

    def __init__(self) -> None:
        self.seconds = array("d")
        self.returned = array("b")
        self.clock = SpeedClock()
        self._unscaled = array("d")

    def start(self) -> None:
        del self.seconds[:]
        del self.returned[:]
        self.clock.start()

    def add(self, seconds: float, returned: bool) -> None:
        self._unscaled.append(seconds)
        self.returned.append(returned)
        factor = self.clock.lap()
        if factor is not None:
            self._scale(factor)

    def stop(self) -> float:
        self._scale(self.clock.lap(force=True))
        return self.clock.total

    def _scale(self, factor: float) -> None:
        self.seconds.extend(t * factor for t in self._unscaled)
        del self._unscaled[:]

    @property
    def failed_s(self) -> float:
        return sum(t for t, ok in zip(self.seconds, self.returned) if not ok)


@contextlib.contextmanager
def timed_calls(functions, times: OpTimes):
    """Record the duration of every call to one of ``functions`` in times."""

    def timer(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                times.add(time.perf_counter() - start, False)
                raise
            times.add(time.perf_counter() - start, True)
            return result

        return wrapper

    undo = []
    for fn in functions:
        undo += [(module, attr, fn) for module, attr in rebind(fn, timer(fn))]
    try:
        yield
    finally:
        for module, attr, fn in undo:
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# verify-default
# ---------------------------------------------------------------------------

VERIFY_ARGV = ["verify"]
VERIFY_HEADER = "bound_id,nu,beta,x,bound_value_log,reference_value_log,rel_margin,status"
VERIFY_COUNTS = {"strict": 16_505, "inconclusive": 20, "violated": 0}


def verify_rows(csv_text: str):
    """(key, rel_margin, status) per margins-CSV row; key = id,nu,beta,x."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != VERIFY_HEADER:
        raise ValueError("margins CSV header changed")
    for line in lines[1:]:
        fields = line.split(",")
        yield ",".join(fields[:4]), float(fields[6]), fields[7]


class VerifyDefault:
    """``struveint verify`` on the shipped default grid; the seed is unused."""

    def __init__(self, seed: int, cache: Path) -> None:
        with gzip.open(EXPECTED / "verify-default.csv.gz", "rt") as fh:
            self.expected = {}
            for line in fh:
                key, _, rest = line.rstrip("\n").rpartition(",")
                key, _, margin = key.rpartition(",")
                self.expected[key] = (float(margin), rest)
        counts = {s: 0 for s in VERIFY_COUNTS}
        for _, status in self.expected.values():
            counts[status] += 1
        if counts != VERIFY_COUNTS:
            raise ValueError(f"expected verify statuses changed: {counts}")

    @staticmethod
    def run_pass(times: OpTimes | None):
        out, err = io.StringIO(), io.StringIO()
        timer = timed_calls([harness.check], times) if times is not None else contextlib.nullcontext()
        with timer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(VERIFY_ARGV)
        return code, out.getvalue()

    def check(self, output):
        code, csv_text = output
        attempted = len(self.expected)
        if code != 0:
            return attempted, attempted, 1.0, False
        seen = set()
        failed = 0
        worst = 0.0
        try:
            for key, margin, status in verify_rows(csv_text):
                expected = self.expected.get(key)
                if expected is None or key in seen:
                    failed += 1
                    continue
                seen.add(key)
                worst = max(worst, scaled_error(margin, expected[0]))
                if not close(margin, expected[0]) or status != expected[1]:
                    failed += 1
        except (ValueError, IndexError):
            return attempted, attempted, 1.0, False
        failed += attempted - len(seen)  # rows that went missing
        return attempted, failed, worst, failed == 0


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------

# the two documented misprints of the published Table 2; they must stay red
RED_CELLS = {(2, 10.0, 0.5, 0.5), (2, 5.0, 0.75, 0.5)}


def reproduce_outputs(reports) -> dict[str, list]:
    """Comparable form of the two table reports and the limits report."""
    table1, table2, limits = reports
    cells = [
        [r.which, r.row.nu, r.row.beta, r.row.x, r.row.metric, r.ok]
        for r in table1.rows + table2.rows
    ]
    lims = [[r.name, r.point, r.computed, r.ok] for r in limits.rows]
    return {"cells": cells, "limits": lims}


class ReproducePaper:
    """Tables 1 and 2 and the limiting-form checks; the seed is unused."""

    def __init__(self, seed: int, cache: Path) -> None:
        self.expected = json.loads((EXPECTED / "reproduce-paper.json").read_text())
        red = {tuple(c[:4]) for c in self.expected["cells"] if not c[5]}
        if red != RED_CELLS or not all(lim[3] for lim in self.expected["limits"]):
            raise ValueError("expected reproduce-paper outcomes changed")

    def run_pass(self, times: OpTimes | None):
        timer = (
            timed_calls([harness.truncated_sum_error, harness.simple_upper_error], times)
            if times is not None
            else contextlib.nullcontext()
        )
        with timer:
            return (
                harness.reproduce_table(1),
                harness.reproduce_table(2),
                harness.asymptotic_check(),
            )

    def check(self, output):
        got = reproduce_outputs(output)
        exp = self.expected
        attempted = len(exp["cells"]) + len(exp["limits"])
        failed = abs(len(got["cells"]) - len(exp["cells"])) + abs(len(got["limits"]) - len(exp["limits"]))
        worst = 0.0
        for g, e in zip(got["cells"], exp["cells"]):
            worst = max(worst, scaled_error(g[4], e[4]))
            if g[:4] != e[:4] or not close(g[4], e[4]) or g[5] != e[5]:
                failed += 1
        for g, e in zip(got["limits"], exp["limits"]):
            worst = max(worst, scaled_error(g[2], e[2]))
            if g[:2] != e[:2] or not close(g[2], e[2]) or g[3] != e[3]:
                failed += 1
        return attempted, failed, worst, failed == 0


# ---------------------------------------------------------------------------
# eval-domain
# ---------------------------------------------------------------------------

X_RANGE = (0.05, 1000.0)
# The mix is chosen for coverage of the documented domain, not taken from
# usage data (the repository has none).  beta has fixed shares at exactly 0
# and 1, in (0, 0.05) and in [0.05, 1), so every F route is reached.  The nu
# stratum (-1, -0.5) gets 1/16 of the points: about its 1/22 share of the nu
# range, rounded up so that both quadrature routes of F keep a point below
# nu = -0.98, where F raises the documented ConvergenceError.  In it nu + 1 is
# log-uniform on [1e-3, 0.5], because the integrand behaves like t^(2nu+1) at
# the origin and its difficulty grows with -ln(nu + 1).  With these shares 3
# of the 480 calls fail, for about a fifth of a pass's time.
BETA_SHARES = {"zero": 0.125, "one": 0.125, "tiny": 0.25, "interior": 0.5}
NU_SHARES = {"endpoint": 1 / 16, "bulk": 15 / 16}
POINTS_PER_FN = 240

_BETA_DRAW = {
    "zero": lambda u: 0.0,
    "one": lambda u: 1.0,
    "tiny": lambda u: 0.05 * (1.0 - u),  # (0, 0.05)
    "interior": lambda u: 0.05 + 0.95 * u,  # [0.05, 1)
}
_NU_DRAW = {
    "endpoint": lambda u: -1.0 + math.exp(math.log(1e-3) + u * math.log(500.0)),
    "bulk": lambda u: -0.5 + 10.5 * u,
}


def _stratified(rng: random.Random, n: int, centred: bool = False) -> list[float]:
    """One uniform in each of n equal slices of [0, 1) (its midpoint if
    centred), in an order set by rng."""
    u = [(j + (0.5 if centred else rng.random())) / n for j in range(n)]
    rng.shuffle(u)
    return u


def draw_points(seed: int) -> list[tuple[str, float, float, float]]:
    """(fn, nu, beta, x) points: fixed counts per (fn, beta, nu) stratum and a
    Latin hypercube inside each, so every seed covers the domain alike.  nu
    takes slice midpoints, so the number of points in any nu range, and with
    it the count of the known failures near nu = -1, is the same for every
    seed; beta, x and the pairing are drawn from the seed."""
    rng = random.Random(seed)
    lo, hi = X_RANGE
    points = []
    for fn in ("F", "G"):
        for b_name, b_share in BETA_SHARES.items():
            for n_name, n_share in NU_SHARES.items():
                n = round(POINTS_PER_FN * b_share * n_share)
                nus = [_NU_DRAW[n_name](u) for u in _stratified(rng, n, centred=True)]
                betas = [_BETA_DRAW[b_name](u) for u in _stratified(rng, n)]
                xs = [lo * (hi / lo) ** u for u in _stratified(rng, n)]
                points += [(fn, nu, b, x) for nu, b, x in zip(nus, betas, xs)]
    rng.shuffle(points)
    return points


def known_defect(point, exc: BaseException) -> bool:
    """F's quadrature routes raise ConvergenceError for nu close to -1
    (tanh-sinh head walk cap); a documented open defect of the package."""
    fn, nu, beta, _ = point
    quad_route = 0.0 < beta < 0.05 or beta == 1.0
    return fn == "F" and quad_route and nu < -0.98 and isinstance(exc, ConvergenceError)


def references(points, cache: Path) -> list[tuple[int, float]]:
    """ln of the mpmath reference per point as (integer part, fraction),
    computed in a child process and cached by the points' digest."""
    payload = json.dumps(points)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:24]
    path = cache / f"eval-domain-ref-{digest}.json"
    if not path.is_file():
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "reference.py")],
                input=payload, capture_output=True, text=True, timeout=170, check=True,
            )
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(f"reference computation failed:\n{exc.stderr}") from None
        cache.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(proc.stdout)
        tmp.replace(path)
    return [split_log(text) for text in json.loads(path.read_text())]


def split_log(text: str) -> tuple[int, float]:
    """A decimal logarithm as (integer part, fraction), so the fraction keeps
    full double precision whatever the magnitude."""
    d = decimal.Decimal(text)
    whole = int(d.to_integral_value(rounding=decimal.ROUND_FLOOR))
    return whole, float(d - whole)


def relative_error(value, ref: tuple[int, float]) -> float:
    """|value / reference - 1|; 1 (its lower bound) for a value <= 0."""
    if not value.sign > 0.0:
        return 1.0
    whole, frac = ref
    return abs(math.expm1((value.log_abs() - whole) - frac))


class EvalDomain:
    """Independent F and G calls over the documented domain, drawn from seed."""

    def __init__(self, seed: int, cache: Path) -> None:
        self.points = draw_points(seed)
        self.refs = references(self.points, cache)
        self.calls = [
            (integrals.F if fn == "F" else integrals.G, nu, beta, x)
            for fn, nu, beta, x in self.points
        ]

    def run_pass(self, times: OpTimes | None):
        results = []
        clock = time.perf_counter
        for fn, nu, beta, x in self.calls:
            start = clock()
            try:
                value = fn(nu, beta, x)
            except Exception as exc:  # every error is an outcome to check
                value = exc
            if times is not None:
                times.add(clock() - start, not isinstance(value, Exception))
            results.append(value)
        return results

    def check(self, output):
        failed = 0
        worst = 0.0
        documented = True
        for point, ref, value in zip(self.points, self.refs, output):
            if isinstance(value, BaseException):
                failed += 1
                documented = documented and known_defect(point, value)
                continue
            err = relative_error(value, ref)
            worst = max(worst, err)
            if not err <= REL_TOL:
                failed += 1
                documented = False
        return len(self.points), failed, worst, documented


WORKLOADS = {
    "verify-default": VerifyDefault,
    "eval-domain": EvalDomain,
    "reproduce-paper": ReproducePaper,
}
