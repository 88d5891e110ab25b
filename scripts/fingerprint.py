#!/usr/bin/env python3
"""Fingerprint the package's three outputs: F and G, the bound catalog, the CLI.

Usage: python scripts/fingerprint.py OUT_DIR

Prints one line per stream, ``engine``, ``catalog`` and ``cli``, with its
result count and one sha256 over every result, each followed by its raises
grouped by message (a raise enters the digest as its type and message):

* engine: ``integrals.fg_log`` at the 1,375 distinct (nu, beta, x) of the
  default sweep grid, a ``random.Random(15)`` sample over nu in (-1, 30],
  beta in {0, 1} and (0, 1), x log-uniform on [1e-3, 2000], and edge points
  at x = 5e-324 and 1e-300 and at nu = -1 + 1e-12;
* catalog: ``eval_bound`` and ``check`` for every catalog entry at each point
  of NU x BETA x X where its hypothesis holds (``beta`` is None for the
  entries that take none), UB-3.8 at x_star in {x*, 1.5 x*} with
  x* = ``default_x_star(beta)``, and LB-2.3 at each truncation in TRUNCATIONS;
* cli: the ``struveint`` command lines of RUNS, run in-process; each run's
  stdout, stderr and exit code go to OUT_DIR as NAME.stdout, NAME.stderr and
  NAME.code, and the digest covers all three in RUNS order.  Usage errors
  (exit 2) come from argparse as SystemExit and are recorded like any other
  exit code.

The engine's lines, the text its digest covers, go to OUT_DIR/engine.txt.
Two checkouts that print the same lines return bit-identical (ln F, ln G),
bounds and margins at every point, and byte-identical CLI output:

    PYTHONPATH=/path/to/other/src python scripts/fingerprint.py /tmp/fp-old
    PYTHONPATH=src python scripts/fingerprint.py /tmp/fp-new
    diff -r /tmp/fp-old /tmp/fp-new
    python scripts/engine_change.py /tmp/fp-old /tmp/fp-new

where the last line says how far the engine's logs moved.

Stdlib only.
"""

import collections
import contextlib
import hashlib
import io
import math
import random
import sys
from pathlib import Path

from struveint import check, cli, default_x_star, eval_bound, harness, integrals, list_bounds

SAMPLE_SIZE = 10_000
NU = (-0.99, -0.5, -0.49, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 10.0, 30.0)
BETA = (0.001, 0.1, 0.5, 0.9, 0.999)
X = (5e-324, 1e-300, 1e-6, 0.05, 1.0, 7.5, 127.0, 500.0, 1000.0)
TRUNCATIONS = (None, 1, 2, 5, 17)
RUNS = (
    ("verify", ["verify"]),
    ("verify-ratios", ["verify", "--bounds", "RB-3.1,RB-AUG18,RB-NASELL,RB-SEGURA,IMON"]),
    ("verify-lb23-kl", ["verify", "--bounds", "LB-2.3,PRB-KL1,PRB-KL0,NB-3.10"]),
    ("verify-unknown", ["verify", "--bounds", "LB-9.9"]),
    ("tables-csv", ["tables", "--format", "csv"]),
    ("tables-md", ["tables", "--format", "md"]),
    ("tables-1", ["tables", "--which", "1"]),
    ("tables-2", ["tables", "--which", "2"]),
    ("asymptotics", ["asymptotics"]),
    ("eval-F", ["eval", "--fn", "F", "--nu", "1", "--beta", "0.25", "--x", "5"]),
    ("eval-F-1000", ["eval", "--fn", "F", "--nu", "2", "--beta", "0.5", "--x", "1000"]),
    ("eval-G", ["eval", "--fn", "G", "--nu", "0.5", "--beta", "0.75", "--x", "10"]),
    ("eval-G-1000", ["eval", "--fn", "G", "--nu", "-0.999", "--beta", "1", "--x", "1000"]),
    ("eval-L", ["eval", "--fn", "L", "--nu", "0", "--x", "2"]),
    ("eval-L-1000", ["eval", "--fn", "L", "--nu", "1", "--x", "1000"]),
    ("eval-I", ["eval", "--fn", "I", "--nu", "0.5", "--x", "1000"]),
    ("eval-K", ["eval", "--fn", "K", "--nu", "2", "--x", "1000"]),
    ("tightness-ub38", ["tightness", "--bound", "UB-3.8", "--nu", "1", "--beta", "0.5",
                        "--xs", "10,100"]),
    ("tightness-kl1", ["tightness", "--bound", "PRB-KL1", "--nu", "1", "--xs", "0.5,5,50"]),
    ("tightness-lb23-k5", ["tightness", "--bound", "LB-2.3", "--nu", "1", "--beta", "0.5",
                           "--xs", "50,100", "--truncation", "5"]),
    ("tightness-lb23-k5001", ["tightness", "--bound", "LB-2.3", "--nu", "1", "--beta", "0.5",
                              "--xs", "10", "--truncation", "5001"]),
    ("tightness-lb23-inf", ["tightness", "--bound", "LB-2.3", "--nu", "1", "--beta", "0.5",
                            "--xs", "inf"]),
    ("tightness-lb21-invalid", ["tightness", "--bound", "LB-2.1", "--nu", "1", "--beta", "0.5",
                                "--xs", "1"]),
    ("tightness-xs-a", ["tightness", "--bound", "RB-3.1", "--nu", "1", "--xs", "a"]),
    ("tightness-ub24-truncation", ["tightness", "--bound", "UB-2.4", "--nu", "1", "--beta",
                                   "0.5", "--xs", "10", "--truncation", "5"]),
    ("tightness-lb21-x-star", ["tightness", "--bound", "LB-2.1", "--nu", "-0.25", "--beta",
                               "0.5", "--xs", "10", "--x-star", "9"]),
    ("tightness-imon-beta", ["tightness", "--bound", "IMON", "--nu", "1", "--beta", "0.5",
                             "--xs", "5"]),
    ("eval-L-beta", ["eval", "--fn", "L", "--nu", "0", "--beta", "0.5", "--x", "2"]),
)


def points() -> list[tuple[float, float, float]]:
    """The engine's fixed point set, in a fixed order."""
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


def calls():
    """The catalog's (bound_id, nu, beta, x, x_star, truncation) in a fixed
    order, each inside its bound's hypothesis."""
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


def engine_stream(pts):
    return ((repr(point), integrals.fg_log, point) for point in pts)


def catalog_stream(args_list):
    return ((f"{fn.__name__}{args!r}", fn, args) for args in args_list
            for fn in (eval_bound, check))


def run(out_dir: Path, name: str, argv: list[str]) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of one ``struveint`` command line, also
    written to ``out_dir`` as NAME.stdout, NAME.stderr and NAME.code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout, stderr = out.getvalue(), err.getvalue()
    for suffix, text in (("stdout", stdout), ("stderr", stderr), ("code", f"{code}\n")):
        (out_dir / f"{name}.{suffix}").write_text(text, encoding="utf-8")
    return stdout, stderr, code


def cli_stream(out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return ((name, run, (out_dir, name, argv)) for name, argv in RUNS)


def digest(stream, lines=None) -> tuple[int, str, dict[str, int]]:
    """(result count, sha256 hex over every ``key result`` line, raise count
    by message) of a stream of (key, function, args); each line is also
    written to the text file ``lines`` if one is given."""
    h = hashlib.sha256()
    raises = collections.Counter()
    count = 0
    for key, fn, args in stream:
        try:
            result = repr(fn(*args))
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            result = f"{type(exc).__name__}: {exc}"
            raises[result] += 1
        line = f"{key} {result}\n"
        h.update(line.encode())
        if lines is not None:
            lines.write(line)
        count += 1
    return count, h.hexdigest(), dict(raises)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/fingerprint.py OUT_DIR")
    out_dir = Path(sys.argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "engine.txt", "w", encoding="utf-8") as engine_lines:
        for name, stream, lines in (("engine", engine_stream(points()), engine_lines),
                                    ("catalog", catalog_stream(calls()), None),
                                    ("cli", cli_stream(out_dir), None)):
            count, hexdigest, raises = digest(stream, lines)
            print(f"{name}: {count} results, sha256 {hexdigest}")
            for message, n in sorted(raises.items()):
                print(f"  raised {n}: {message}")
