"""The benchmark's tracer (perfbench/spans.py) patches struveint names by
identity; a name that moves or changes shape makes ``run.py --trace 1`` read
zero or fail.  This test keeps those hooks working."""

import importlib.util
import pathlib

import pytest

from struveint import bounds, harness, specfun
from struveint.bounds import Target, list_bounds
from struveint.harness import GridSpec, verify_all

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

_F_GROUP = {Target.F_INTEGRAL, Target.K_WEIGHTED_INTEGRAL}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _group(target):
    if target in _F_GROUP:
        return "F"
    return "G" if target is Target.G_INTEGRAL else "kernel"


def test_traced_sweep_counts_checks_by_group(spans):
    # every bound holds at some point of this grid, so each bound id's
    # group is looked up at least once
    grid = GridSpec(nu_values=(-0.25, 1.0, 2.5), beta_values=(0.5,), x_values=(1.0, 10.0))
    check = bounds.check
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.check is not check
        report = verify_all(grid)
        figures = tracer.end_pass()
    finally:
        tracer.uninstall()
    assert {row.bound_id for row in report.rows} == {s.bound_id for s in list_bounds()}
    assert {t.value for t in _F_GROUP} == set(spans._F_TARGETS)
    expected = {"F": 0, "G": 0, "kernel": 0}
    for row in report.rows:
        expected[_group(bounds.get_bound(row.bound_id).target)] += 1
    assert all(expected.values())
    for group, count in expected.items():
        assert figures[f"bounds.check.{group}.calls"] == count
    for prefix in spans.CACHES:
        assert 0.0 <= figures[f"{prefix}.hit_ratio"] <= 1.0
    assert len(spans.CACHES) == 5

    assert harness.check is check and bounds.check is check
    assert hasattr(specfun.log_gamma, "cache_info")
