"""struveint benchmark runner.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload {verify-default,eval-domain,reproduce-paper}
                             --seed N --seconds S --trace {0,1}

One process, one thread, one caller in a closed loop: each pass starts only
after the previous one ends, and every lru cache in struveint is cleared
before each pass, since each CLI invocation starts cold.  Passes repeat until
S seconds of passes have been measured.  Times are reported in reference
seconds, which the host's changing speed does not move (see speed.py).  Every
output of every pass is checked outside the timed region.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics, the tracing overhead, and
writes the spans of the first traced pass under .perfbench/.  Each metric is
printed as "name value unit"; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md for
what each metric means and what should move it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
CACHE = ROOT / ".perfbench"
SETUP_RUNS = 21

# import struveint and build the catalog, timed inside a fresh interpreter and
# scaled to reference seconds by probes just before and after
_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import speed
sys.path[:1] = [sys.argv[1]]
before = speed.probe_median(5)
start = time.perf_counter()
import struveint
struveint.list_bounds()
seconds = time.perf_counter() - start
after = speed.probe_median(5)
print(repr(seconds * 2.0 * speed.REFERENCE_PROBE_S / (before + after)))
"""


def setup_once() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "struveint" or name.startswith("struveint."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


class Tally:
    """Checked outcomes summed over passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.documented = True

    def add(self, workload, output) -> tuple[int, int]:
        """Check one pass's output; return its ops attempted and failed."""
        attempted, failed, worst, documented = workload.check(output)
        self.attempted += attempted
        self.failed += failed
        self.worst = max(self.worst, worst)
        self.documented = self.documented and documented
        return attempted, failed


def timed_pass(workload, times: OpTimes):
    """Run one pass; return its time in reference seconds and its output."""
    clear_caches()
    times.start()
    output = workload.run_pass(times)
    return times.stop(), output


def end_to_end(workload, seconds: float, tally: Tally) -> dict[str, tuple[float, str]]:
    """Passes run until ``seconds`` of pass time have passed.  Each timing
    figure is the median over passes of the pass's figure, in reference
    seconds (see speed.py).  Set-up runs are spread over the measuring time,
    so that their median sees the same machine as the passes."""
    from workloads import OpTimes

    setup_once()  # writes the bytecode
    setups: list[float] = []
    figures: list[tuple[float, ...]] = []
    times = OpTimes()
    elapsed = 0.0
    while elapsed < seconds or not figures:
        if len(setups) < SETUP_RUNS * elapsed / seconds:
            setups.append(setup_once())
        wall, output = timed_pass(workload, times)
        tally.add(workload, output)
        del output
        clock = times.clock
        elapsed += clock.unscaled
        q = statistics.quantiles(
            [t for t, ok in zip(times.seconds, times.returned) if ok], n=100, method="inclusive"
        )
        figures.append((wall, q[49], q[98], times.failed_s, clock.unscaled, clock.probe_s / clock.probes))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_once())
    wall, p50, p99, failed_s, unscaled, probe_s = (statistics.median(column) for column in zip(*figures))
    # ops completed per second: failed ops do not count
    completed = (tally.attempted - tally.failed) / len(figures)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (completed / wall, "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_p99_ms": (1e3 * p99, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ops_s": (failed_s, "s"),
        "unscaled_wall_s": (unscaled, "s"),
        "probe_us": (1e6 * probe_s, "us"),
        "passes": (len(figures), "count"),
        "timed_ops_per_pass": (len(times.seconds), "count"),
    }


def per_layer(workload, seconds: float, tally: Tally, stem: str) -> dict[str, tuple[float, str]]:
    """Untraced passes, timed as in end_to_end, alternate with traced passes,
    which run without the op timer and its probes, so that no probe time
    lands in a span; the tracing overhead compares the unscaled times."""
    from spans import Tracer
    from workloads import OpTimes

    tracer = Tracer()
    times = OpTimes()
    plain: list[float] = []
    traced: list[float] = []
    failed_s: list[float] = []
    layers: list[dict[str, float]] = []
    while sum(plain) + sum(traced) < seconds or not traced:
        _, output = timed_pass(workload, times)
        tally.add(workload, output)
        plain.append(times.clock.unscaled)
        failed_s.append(times.failed_s)
        clear_caches()
        tracer.reset_pass()
        tracer.install()
        try:
            start = time.perf_counter()
            output = workload.run_pass(None)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        layers.append(tracer.end_pass())
        tally.add(workload, output)
    tracer.write_spans(CACHE, stem)
    out: dict[str, tuple[float, str]] = {}
    for key in layers[0]:
        unit = "s" if key.endswith("_s") else "ratio" if key.endswith("ratio") else "count"
        out[key] = (statistics.median(pass_[key] for pass_ in layers), unit)
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    out["failed_ops_s"] = (statistics.median(failed_s), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify-default", "eval-domain", "reproduce-paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "struveint" / "__init__.py").is_file():
        print(f"error: no struveint package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, CACHE)
    tally = Tally()
    if args.trace:
        stem = f"trace-{args.workload}-seed{args.seed}"
        metrics = per_layer(workload, args.seconds, tally, stem)
    else:
        metrics = end_to_end(workload, args.seconds, tally)
    # accuracy sits beside every timing, whichever metric set is reported
    metrics["fail_frac"] = (tally.failed / tally.attempted, "ratio")
    metrics["max_rel_err"] = (tally.worst, "ratio")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    reported = metrics if args.trace else {k: metrics[k] for k in END_TO_END}
    result = {
        "correct": tally.documented,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


END_TO_END = ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")

if __name__ == "__main__":
    sys.exit(main())
