#!/usr/bin/env python3
"""Run a fixed list of ``struveint`` command lines in-process and write each
run's stdout, stderr and exit code to OUT_DIR as NAME.stdout, NAME.stderr
and NAME.code.

Usage: python scripts/cli_snapshot.py OUT_DIR

Two checkouts compare byte for byte with ``diff -r``:

    PYTHONPATH=src python scripts/cli_snapshot.py /tmp/snap-new
    PYTHONPATH=/path/to/other/src python scripts/cli_snapshot.py /tmp/snap-old
    diff -r /tmp/snap-old /tmp/snap-new

Stdlib only.  Usage errors (exit 2) come from argparse as SystemExit, which
is caught and recorded like any other exit code.
"""

import contextlib
import io
import sys
from pathlib import Path

from struveint import cli

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


def run(argv: list[str]) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of one ``struveint`` command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def snapshot(out_dir) -> dict[str, int]:
    """Write every run of RUNS to ``out_dir``; return the exit code by name."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, argv in RUNS:
        stdout, stderr, code = run(argv)
        (out_dir / f"{name}.stdout").write_text(stdout, encoding="utf-8")
        (out_dir / f"{name}.stderr").write_text(stderr, encoding="utf-8")
        (out_dir / f"{name}.code").write_text(f"{code}\n", encoding="utf-8")
        codes[name] = code
    return codes


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/cli_snapshot.py OUT_DIR")
    snapshot(sys.argv[1])
