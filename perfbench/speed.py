"""Pass times in reference seconds, steady against the host's changing speed.

The benchmark runs on a shared host whose speed changes by up to 1.7x from
one second to the next, as other load on the same cores comes and goes; a
pass's wall time moved by 12-50% between runs of the same code.  So the
runner measures the host's speed while it measures the program: at least
every ``INTERVAL_S`` of a pass it runs a fixed stretch of pure-Python work,
the probe, and scales the wall time since the previous probe by
``REFERENCE_PROBE_S`` over the mean of the two probes around it.  A time so
scaled is in reference seconds: seconds on a host where the probe takes
``REFERENCE_PROBE_S``, roughly this host's usual speed.  The probe's own time
is left out of every figure.

This module imports nothing but ``time``, so a fresh interpreter can load it
before the package whose import it times.
"""

from __future__ import annotations

import time

# probe work: this many loop turns of float arithmetic and a dict store, the
# kinds of work the package's pure-Python numerics do.  The probe runs cold,
# straight after the program's code, as the program's own code does; a probe
# warmed up first tracked the program's speed less closely.
PROBE_TURNS = 200
REFERENCE_PROBE_S = 7e-5
INTERVAL_S = 0.01


def _work(turns: int) -> float:
    total = 0.0
    seen = {}
    for i in range(turns):
        x = (i % 97) * 0.013 + 1.0
        y = x**0.5 / (1.0 + x * x)
        total += y if i & 1 else -y
        seen[i & 7] = total
    return total


def probe() -> float:
    """Seconds the probe work takes now."""
    start = time.perf_counter()
    _work(PROBE_TURNS)
    return time.perf_counter() - start


def probe_median(count: int) -> float:
    """Median of ``count`` probes (``count`` odd), after two discarded ones."""
    probe(), probe()
    return sorted(probe() for _ in range(count))[count // 2]


class SpeedClock:
    """Integrates one pass's wall time, probes left out: ``total`` in
    reference seconds and ``unscaled`` in seconds.

    ``start`` probes and starts the pass.  ``lap`` closes the current segment
    once ``INTERVAL_S`` has passed (or always, with ``force``): it probes,
    adds the segment's time, scaled by the factor of the two probes around
    it, and returns that factor; else it returns None.
    """

    def __init__(self) -> None:
        self.start()

    def start(self) -> None:
        self.total = 0.0
        self.unscaled = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._last = self._probe()
        self._mark = time.perf_counter()

    def lap(self, force: bool = False) -> float | None:
        now = time.perf_counter()
        if not force and now - self._mark < INTERVAL_S:
            return None
        current = self._probe()
        factor = 2.0 * REFERENCE_PROBE_S / (self._last + current)
        self.total += (now - self._mark) * factor
        self.unscaled += now - self._mark
        self._last = current
        self._mark = time.perf_counter()
        return factor

    def _probe(self) -> float:
        seconds = probe()
        self.probe_s += seconds
        self.probes += 1
        return seconds
