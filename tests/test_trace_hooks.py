"""The benchmark's tracer (perfbench/spans.py) patches struveint names by
identity; a name that moves or changes shape makes ``run.py --trace 1`` read
zero or fail.  This test keeps those hooks working."""

import functools
import gc
import importlib.util
import pathlib
from collections import Counter

import pytest

import struveint
from struveint import bounds, cli, harness, integrals, specfun
from struveint.bounds import Target, list_bounds
from struveint.harness import GridSpec, default_grid, verify_all

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"

_F_GROUP = {Target.F_INTEGRAL, Target.K_WEIGHTED_INTEGRAL}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("_perfbench_spans", SPANS_PATH)


def _group(target):
    if target in _F_GROUP:
        return "F"
    return "G" if target is Target.G_INTEGRAL else "kernel"


def test_traced_sweep_counts_checks_by_group(spans):
    # every bound holds at some point of this grid, so each bound id's
    # group is looked up at least once
    grid = GridSpec(nu_values=(-0.25, 1.0, 2.5), beta_values=(0.5,), x_values=(1.0, 10.0))
    check = bounds.check
    log_gamma = specfun.log_gamma
    # integral_series is F, so the tracer wraps F itself under
    # integrals.series, in every module that bound it
    f = integrals.F
    assert integrals.integral_series is f
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.check is not check
        assert cli.F is not f
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

    # the sweep reads F through fg_log, never through the public name
    assert figures["integrals.series.calls"] == 0

    assert harness.check is check and bounds.check is check
    assert specfun.log_gamma is log_gamma
    assert integrals.F is f and integrals.integral_series is f
    assert struveint.F is f and cli.F is f


def test_default_sweep_calls_check_once_per_row(monkeypatch):
    # the benchmark times verify-default's ops by wrapping harness.check
    calls = []
    check = harness.check

    def counted(bound_id, nu, beta=None, x=None, x_star=None, truncation=None):
        calls.append((bound_id, nu, beta, x))
        return check(bound_id, nu, beta, x, x_star=x_star, truncation=truncation)

    monkeypatch.setattr(harness, "check", counted)
    report = verify_all(default_grid())
    assert len(calls) == len(report.rows) == 16525
    assert Counter(calls) == Counter((r.bound_id, r.nu, r.beta, r.x) for r in report.rows)
    assert len(set(calls)) == 16525


def test_default_sweep_validity_calls(monkeypatch):
    # each hypothesis is tested once per (bound, nu, beta) by verify_all,
    # per point only for UB-3.8 (x >= x_star), and once more inside check
    calls = []

    def counted(validity):
        def wrapper(*args):
            calls.append(args)
            return validity(*args)

        return wrapper

    for bound_id, spec in list(bounds._CATALOG.items()):
        monkeypatch.setitem(
            bounds._CATALOG, bound_id, spec._replace(validity=counted(spec.validity))
        )
    report = verify_all(default_grid())
    assert report.summary["checked"] == 16525
    assert len(calls) == 18901


def test_benchmark_cache_clearing_empties_every_cache():
    # perfbench/run.py clears each cache it finds among struveint's module
    # attributes before a pass; a cache it cannot reach would stay warm
    run = _load("_perfbench_run", PERFBENCH / "run.py")
    verify_all(GridSpec(nu_values=(-0.25, 2.5), beta_values=(0.5, 0.9), x_values=(0.5, 50.0)))
    run.clear_caches()
    caches = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper)
        and getattr(obj, "__module__", "").startswith("struveint")
    ]
    assert specfun._struve_ladder_log in caches
    assert integrals._run in caches
    assert {c.__qualname__ for c in caches if c.cache_info().currsize} == set()
