"""Self-test of the benchmark's output checks.

A wrong value, a raised error and a changed verify count must each count as a
failed op, and the unchanged outputs as none.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
CACHE = Path.cwd() / ".perfbench"

import mpmath as mp  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from struveint import F, G  # noqa: E402
from struveint.errors import ConvergenceError, DomainError  # noqa: E402


def _eval_workload(points):
    """An EvalDomain over hand-picked points, references computed in-process."""
    wl = object.__new__(workloads.EvalDomain)
    wl.points = points
    wl.refs = [
        workloads.split_log(mp.nstr(reference.log_value(*point), 40)) for point in points
    ]
    wl.calls = [(F if fn == "F" else G, nu, beta, x) for fn, nu, beta, x in points]
    return wl


class EvalDomainChecks(unittest.TestCase):
    points = [("F", 1.0, 0.5, 5.0), ("G", 2.0, 0.0, 300.0), ("F", -0.999, 0.01, 1.0)]

    @classmethod
    def setUpClass(cls):
        cls.wl = _eval_workload(cls.points)
        cls.output = cls.wl.run_pass(None)

    def test_seed_outputs(self):
        # the third point is the documented nu -> -1 quadrature failure
        self.assertIsInstance(self.output[2], ConvergenceError)
        self.assertEqual(self.wl.check(self.output)[1:2], (1,))
        self.assertTrue(self.wl.check(self.output)[3])

    def test_raised_op_timed_apart(self):
        times = workloads.OpTimes()
        times.start()
        self.wl.run_pass(times)
        self.assertGreater(times.stop(), 0.0)
        self.assertEqual(list(times.returned), [1, 1, 0])
        self.assertGreater(times.failed_s, 0.0)

    def test_wrong_value_fails(self):
        bad = [self.output[0].scale(1.0 + 1e-6)] + self.output[1:]
        attempted, failed, worst, documented = self.wl.check(bad)
        self.assertEqual(failed, 2)
        self.assertGreater(worst, 9e-7)
        self.assertFalse(documented)

    def test_raised_error_fails(self):
        bad = [self.output[0], DomainError("injected")] + self.output[2:]
        attempted, failed, _, documented = self.wl.check(bad)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertFalse(documented)


class VerifyDefaultChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.VerifyDefault(0, CACHE)
        cls.code, cls.csv = cls.wl.run_pass(None)

    def test_seed_outputs(self):
        self.assertEqual(self.wl.check((self.code, self.csv)), (16_525, 0, 0.0, True))

    def test_dropped_row_fails(self):
        lines = self.csv.splitlines(keepends=True)
        attempted, failed, _, documented = self.wl.check((0, "".join(lines[:1] + lines[2:])))
        self.assertEqual((attempted, failed, documented), (16_525, 1, False))

    def test_changed_status_fails(self):
        lines = self.csv.splitlines(keepends=True)
        flipped = lines[1].replace(",strict", ",violated")
        self.assertNotEqual(flipped, lines[1])
        _, failed, _, _ = self.wl.check((0, "".join(lines[:1] + [flipped] + lines[2:])))
        self.assertEqual(failed, 1)

    def test_exit_code_fails(self):
        self.assertEqual(self.wl.check((1, self.csv))[1], 16_525)


class ReproducePaperChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.ReproducePaper(0, CACHE)
        cls.output = cls.wl.run_pass(None)

    def test_seed_outputs(self):
        self.assertEqual(self.wl.check(self.output), (200, 0, 0.0, True))

    def _with_cell(self, index, **changes):
        t1, t2, limits = self.output
        rows = list(t2.rows)
        rows[index] = dataclasses.replace(rows[index], **changes)
        return t1, dataclasses.replace(t2, rows=tuple(rows)), limits

    def test_wrong_cell_fails(self):
        row = self.output[1].rows[0]
        bad = self._with_cell(0, row=dataclasses.replace(row.row, metric=row.row.metric + 1e-6))
        self.assertEqual(self.wl.check(bad)[1], 1)

    def test_misprint_turned_green_fails(self):
        red = next(i for i, r in enumerate(self.output[1].rows) if not r.ok)
        self.assertEqual(self.wl.check(self._with_cell(red, ok=True))[1], 1)

    def test_dropped_limit_fails(self):
        t1, t2, limits = self.output
        bad = t1, t2, dataclasses.replace(limits, rows=limits.rows[:-1])
        self.assertGreaterEqual(self.wl.check(bad)[1], 1)


if __name__ == "__main__":
    unittest.main()
