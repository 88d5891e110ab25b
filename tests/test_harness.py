import re
from collections import Counter

import pytest

from struveint import bounds, harness, integrals, specfun, tables
from struveint.bounds import Margin
from struveint.errors import DomainError
from struveint.harness import (
    GridSpec,
    LimitCheckRow,
    MarginRow,
    Report,
    TABLE_TOLERANCE,
    asymptotic_check,
    default_grid,
    limits_csv,
    margins_csv,
    parse_grid_file,
    reproduce_table,
    simple_upper_error,
    tables_csv,
    tables_markdown,
    tightness_profile,
    truncated_sum_error,
    verify_all,
)
from struveint.scaled import ScaledReal

from tests.conftest import TABLE2_ERRATA, table2_metric_mpmath


def test_fixture_has_168_cells():
    grid = [
        (nu, beta, x)
        for beta in tables.TABLE_BETA
        for nu in tables.TABLE_NU
        for x in tables.TABLE_X
    ]
    assert len(grid) == 84
    for which in (1, 2):
        assert [cell[:3] for cell in tables.cells(which)] == grid
    with pytest.raises(ValueError):
        tables.cells(3)
    lookup = {(which, *cell[:3]): cell[3] for which in (1, 2) for cell in tables.cells(which)}
    assert lookup[(1, 1.0, 0.25, 0.5)] == 0.2051
    assert lookup[(2, 10.0, 0.75, 100.0)] == 0.4126


def test_fixture_of_wrong_length_is_refused(monkeypatch):
    rows = tables._PRINTED[1]
    assert len(tables.cells(1)) == 84
    short_row = rows[:-1] + (rows[-1][:6],)
    for printed in (short_row, rows[:-1], rows + (rows[-1],)):
        monkeypatch.setitem(tables._PRINTED, 1, printed)
        with pytest.raises(ValueError):
            tables.cells(1)


def test_reproduce_table1_all_cells():
    report = reproduce_table(1)
    assert report.summary["checked"] == 84
    assert report.summary["violated"] == 0
    assert report.max_table_deviation <= TABLE_TOLERANCE


def test_reproduce_table2_known_misprints_only():
    report = reproduce_table(2)
    assert report.summary["checked"] == 84
    bad = {
        (r.row.nu, r.row.beta, r.row.x) for r in report.rows if not r.ok
    }
    assert bad == set(TABLE2_ERRATA)
    for r in report.rows:
        if not r.ok:
            assert r.deviation < 5e-4  # the misprint scale, not a computation bug


def test_table2_errata_independent_reference():
    pytest.importorskip("mpmath")
    for (nu, beta, x), erratum in TABLE2_ERRATA.items():
        reference = table2_metric_mpmath(nu, beta, x)
        assert abs(reference - erratum.reference) <= 1e-12 * reference
        assert abs(reference - erratum.printed) > TABLE_TOLERANCE


def test_table_metrics_in_range():
    report = reproduce_table(1)
    for r in report.rows:
        assert 0.0 <= r.row.metric < 1.0
    report = reproduce_table(2)
    for r in report.rows:
        assert r.row.metric >= 0.0


def test_table_trends():
    # Table-1 metric increases in beta at fixed (nu, x)
    for nu in tables.TABLE_NU:
        for x in tables.TABLE_X:
            vals = [truncated_sum_error(nu, b, x) for b in tables.TABLE_BETA]
            assert vals[0] < vals[1] < vals[2]
    # Table-2 metric decreases in x at fixed (nu, beta)
    for nu in tables.TABLE_NU:
        for beta in tables.TABLE_BETA:
            vals = [simple_upper_error(nu, beta, x) for x in tables.TABLE_X]
            assert all(b < a for a, b in zip(vals, vals[1:]))


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(nu_values=(), beta_values=(0.5,), x_values=(1.0,))
    with pytest.raises(DomainError):
        GridSpec(nu_values=(-2.0,), beta_values=(0.5,), x_values=(1.0,))
    with pytest.raises(DomainError):
        GridSpec(nu_values=(1.0,), beta_values=(1.0,), x_values=(1.0,))
    with pytest.raises(DomainError):
        GridSpec(nu_values=(1.0,), beta_values=(0.5,), x_values=(-1.0,))
    # +inf passes the range tests; it is refused before any evaluation
    with pytest.raises(DomainError, match="grid nu must be finite, got inf"):
        GridSpec(nu_values=(1.0, float("inf")), beta_values=(0.5,), x_values=(1.0,))
    with pytest.raises(DomainError, match="grid x must be finite, got inf"):
        GridSpec(nu_values=(1.0,), beta_values=(0.5,), x_values=(1.0, float("inf")))
    with pytest.raises(KeyError):
        GridSpec(
            nu_values=(1.0,), beta_values=(0.5,), x_values=(1.0,),
            bound_filter=("NOPE",),
        )
    # an empty bound list is refused like an empty value list; a repeated id
    # keeps its first place, so no row is checked twice
    with pytest.raises(DomainError, match="grid bound list must be nonempty"):
        GridSpec(nu_values=(1.0,), beta_values=(0.5,), x_values=(1.0,), bound_filter=())
    grid = GridSpec(
        nu_values=(1.0,), beta_values=(0.5,), x_values=(1.0,),
        bound_filter=("UB-2.4", "LB-2.3", "UB-2.4"),
    )
    assert grid.bound_filter == ("UB-2.4", "LB-2.3")
    assert verify_all(grid).summary["checked"] == 2


def test_grid_replace_checks_again():
    # GridSpec is a named tuple: _replace goes through the constructor's
    # checks and its first-occurrence dedupe, and a grid equals its fields
    grid = GridSpec(nu_values=(1.0,), beta_values=(0.5,), x_values=(1.0,))
    assert grid.bound_filter == tuple(b.bound_id for b in bounds.list_bounds())
    assert grid == ((1.0,), (0.5,), (1.0,), grid.bound_filter)
    with pytest.raises(DomainError, match="grid beta must lie in"):
        grid._replace(beta_values=(0.5, 1.0))
    with pytest.raises(DomainError, match="grid bound list must be nonempty"):
        grid._replace(bound_filter=())
    with pytest.raises(KeyError):
        grid._replace(bound_filter=("NOPE",))
    narrowed = grid._replace(bound_filter=("UB-2.4", "LB-2.3", "UB-2.4"))
    assert narrowed == grid[:3] + (("UB-2.4", "LB-2.3"),)
    assert isinstance(narrowed, GridSpec)
    assert LimitCheckRow._fields == ("name", "point", "computed", "target", "tolerance", "ok")


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid.nu_values) == 11
    assert len(grid.beta_values) == 5
    assert len(grid.x_values) == 25
    assert grid.x_values[0] == pytest.approx(0.05)
    assert grid.x_values[-1] == pytest.approx(100.0)
    assert len(grid.bound_filter) == 28


def test_parse_grid_file():
    grid = parse_grid_file(
        """
        # comment
        nu=0.5,1.0
        beta=0.25
        x=5,10
        bounds=LB-2.1,RB-3.1
        """
    )
    assert grid.nu_values == (0.5, 1.0)
    assert grid.beta_values == (0.25,)
    assert grid.x_values == (5.0, 10.0)
    assert grid.bound_filter == ("LB-2.1", "RB-3.1")
    # missing keys fall back to the defaults
    grid2 = parse_grid_file("nu=1.0\n")
    assert grid2.nu_values == (1.0,)
    assert len(grid2.beta_values) == 5
    with pytest.raises(ValueError):
        parse_grid_file("volume=11\n")
    with pytest.raises(ValueError):
        parse_grid_file("just some text\n")
    with pytest.raises(ValueError, match="repeated grid key 'nu'"):
        parse_grid_file("nu=1\nnu=2\n")
    # list tokens are stripped and blank ones skipped
    grid3 = parse_grid_file("x = 5, ,10\nbounds = IMON , ,RB-3.1\n")
    assert grid3.x_values == (5.0, 10.0)
    assert grid3.bound_filter == ("IMON", "RB-3.1")
    with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
        parse_grid_file("x = 5, a\n")
    with pytest.raises(DomainError, match="grid bound list must be nonempty"):
        parse_grid_file("bounds = , \n")


def test_verify_restricted_grid_counts():
    grid = GridSpec(
        nu_values=(0.0,), beta_values=(0.5,), x_values=(5.0, 10.0),
        bound_filter=("LB-2.1",),
    )
    report = verify_all(grid)
    assert report.summary["checked"] == 2
    assert report.summary["strict"] == 2
    assert report.summary["violated"] == 0


def test_verify_out_of_validity_grid_is_empty():
    grid = GridSpec(
        nu_values=(1.0,), beta_values=(0.5,), x_values=(5.0,),
        bound_filter=("LB-2.1",),  # needs -1/2 < nu <= 0
    )
    report = verify_all(grid)
    assert report.summary["checked"] == 0
    assert report.rows == ()


def test_verify_beta_free_bounds_run_once_per_point():
    grid = GridSpec(
        nu_values=(1.0,), beta_values=(0.25, 0.5, 0.75), x_values=(2.0,),
        bound_filter=("RB-3.1",),
    )
    report = verify_all(grid)
    assert report.summary["checked"] == 1
    assert report.rows[0].beta is None


def test_verify_rows_sorted():
    grid = GridSpec(
        nu_values=(1.0, 0.0), beta_values=(0.75, 0.25), x_values=(10.0, 5.0),
        bound_filter=("UB-2.5", "LB-PRIOR"),
    )
    report = verify_all(grid)
    keys = [(r.bound_id, r.nu, r.beta, r.x) for r in report.rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "nus,betas,xs",
    [
        ((1.0, -0.25, 0.5), (0.75, 0.25), (10.0, 0.5, 5.0)),  # unsorted
        ((0.5, 0.5, 1.0), (0.25, 0.25), (5.0, 0.5, 5.0)),  # repeated values
        ((0.0, -0.0, 1.0), (0.25, 0.75), (0.5, 5.0)),  # 0 and -0 compare equal
        ((-0.25, 0.5, 1.0), (0.25, 0.75), (0.5, 5.0, 20.0)),  # increasing: no sort
    ],
)
def test_verify_row_order_is_the_sorted_order(nus, betas, xs):
    grid = GridSpec(
        nu_values=nus, beta_values=betas, x_values=xs,
        bound_filter=("UB-2.5", "RB-3.1", "LB-2.1", "UB-3.8", "IMON"),
    )
    rows = verify_all(grid).rows
    assert rows
    assert list(rows) == sorted(rows, key=harness._sort_key)


def test_margins_csv_prints_negative_zero_apart():
    grid = GridSpec(
        nu_values=(0.0, -0.0), beta_values=(0.5,), x_values=(2.0,),
        bound_filter=("LB-2.1",),
    )
    lines = margins_csv(verify_all(grid)).splitlines()[1:]
    assert sorted(line.split(",")[1] for line in lines) == ["-0", "0"]


def test_tightness_profile_lb23_trajectory():
    prof = tightness_profile("LB-2.3", 1.0, 0.5, (50.0, 100.0, 200.0, 400.0))
    ratios = [r for _, r in prof]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert 0.9 <= ratios[-1] <= 1.0


def test_tightness_profile_truncated_limit():
    # with five terms the lower bound's deficiency tends to beta^5
    beta = 0.5
    prof = tightness_profile("LB-2.3", 1.0, beta, (200.0, 1000.0), truncation=5)
    deficiency = 1.0 - prof[-1][1]
    assert deficiency == pytest.approx(beta**5, abs=5e-3)
    assert abs(1.0 - prof[-1][1] - beta**5) < abs(1.0 - prof[0][1] - beta**5)


def test_asymptotic_checks_pass():
    report = asymptotic_check()
    assert report.summary["violated"] == 0
    assert report.summary["checked"] >= 30


def test_csv_rendering_and_determinism():
    grid = GridSpec(
        nu_values=(0.0, 1.0), beta_values=(0.5,), x_values=(2.0, 20.0),
        bound_filter=("UB-2.5", "RB-3.1", "LB-2.1"),
    )
    r1 = margins_csv(verify_all(grid))
    r2 = margins_csv(verify_all(grid))
    assert r1 == r2
    lines = r1.strip().splitlines()
    assert lines[0] == (
        "bound_id,nu,beta,x,bound_value_log,reference_value_log,rel_margin,status"
    )
    assert all(len(line.split(",")) == 8 for line in lines[1:])

    t1 = tables_csv(reproduce_table(1))
    t2 = tables_csv(reproduce_table(1))
    assert t1 == t2
    assert t1.splitlines()[0] == "table,nu,beta,x,metric,expected,abs_deviation"
    assert len(t1.strip().splitlines()) == 85

    md = tables_markdown(reproduce_table(1))
    assert md.count("|") > 100  # (nu, beta) rows by x columns

    lc = limits_csv(asymptotic_check())
    assert lc.splitlines()[0] == "check,point,computed,target,tolerance,ok"


def test_negative_bound_logs_as_nan_in_csv():
    grid = GridSpec(
        nu_values=(-0.25,), beta_values=(0.5,), x_values=(0.05,),
        bound_filter=("LB-2.1",),
    )
    out = margins_csv(verify_all(grid))
    row = out.strip().splitlines()[1]
    assert row.split(",")[4] == "nan"  # negative bound value has no log
    assert row.split(",")[7] == "strict"


def test_margins_csv_fixed_text():
    # a beta-free row (None beta), a zero and a negative bound value (no log:
    # nan), 17 significant digits, and a negative margin
    rows = (
        MarginRow(
            "IMON", 0.5, None, 0.05, None,
            Margin(ScaledReal(1.0, 0.0), ScaledReal(1.0, -2.0), 0.1, True), "strict",
        ),
        MarginRow(
            "LB-2.1", -0.25, 0.5, 0.05, None,
            Margin(ScaledReal(-1.5, 3.0), ScaledReal(1.0, -3.0), 0.25, True), "strict",
        ),
        MarginRow(
            "LB-2.3", -0.49, 0.9, 1000.0, None,
            Margin(ScaledReal.zero(), ScaledReal(1.0, 7.5), 1e-300, False), "inconclusive",
        ),
        MarginRow(
            "UB-3.8", 10.0, 0.75, 20.0, 8.0,
            Margin(ScaledReal(1.0, 4.0), ScaledReal(1.0, 5.0), -0.125, False), "violated",
        ),
    )
    assert margins_csv(Report(rows=rows, summary={})) == (
        "bound_id,nu,beta,x,bound_value_log,reference_value_log,rel_margin,status\n"
        "IMON,0.5,nan,0.050000000000000003,0,-2,0.10000000000000001,strict\n"
        "LB-2.1,-0.25,0.5,0.050000000000000003,nan,-3,0.25,strict\n"
        "LB-2.3,-0.48999999999999999,0.90000000000000002,1000,nan,7.5,1e-300,inconclusive\n"
        "UB-3.8,10,0.75,20,4,5,-0.125,violated\n"
    )


def test_margin_records_are_positional_immutable_tuples():
    margin = Margin(ScaledReal(1.0, 0.0), ScaledReal(1.0, -2.0), 0.1, True)
    row = MarginRow("UB-3.8", 10.0, 0.75, 20.0, 8.0, margin, "strict")
    assert Margin._fields == ("bound_value", "reference_value", "signed_margin", "strict")
    assert MarginRow._fields == ("bound_id", "nu", "beta", "x", "x_star", "margin", "status")
    assert tuple(margin) == (ScaledReal(1.0, 0.0), ScaledReal(1.0, -2.0), 0.1, True)
    assert margin == Margin(
        bound_value=ScaledReal(1.0, 0.0), reference_value=ScaledReal(1.0, -2.0),
        signed_margin=0.1, strict=True,
    )
    assert (row.x_star, row.margin, row.status) == (8.0, margin, "strict")
    assert repr(margin).startswith("Margin(bound_value=ScaledReal(")
    assert repr(row).startswith("MarginRow(bound_id='UB-3.8', nu=10.0, beta=0.75,")
    for record, name in ((margin, "signed_margin"), (row, "status")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert margin._replace(strict=False).strict is False and margin.strict is True


def test_default_sweep_lower_gamma_once_per_point(monkeypatch):
    # LB-2.1/2.2/2.6 and PB-2.7/2.8/2.9 share the cached gamma term: one lower
    # incomplete gamma per distinct (nu, beta, x), not one per check
    calls = []
    lower_gamma = bounds.lower_incomplete_gamma_log

    def counted(a, x):
        calls.append((a, x))
        return lower_gamma(a, x)

    monkeypatch.setattr(bounds, "lower_incomplete_gamma_log", counted)
    bounds._gamma_term_log.cache_clear()
    try:
        report = verify_all(default_grid())
    finally:
        bounds._gamma_term_log.cache_clear()
    assert report.summary["checked"] == 16525
    assert len(calls) == len(set(calls)) == 1125


def _clear_reference_caches():
    for cache in (bounds._fg_reference_log, bounds._f_reference, bounds._g_reference):
        cache.cache_clear()


def test_default_sweep_outcome():
    # the shipped grid's verdicts: every inconclusive row sits at nu = 1/2
    report = verify_all(default_grid())
    assert report.summary == {
        "checked": 16525,
        "strict": 16505,
        "inconclusive": 20,
        "violated": 0,
    }
    inconclusive = Counter(
        (row.bound_id, row.nu) for row in report.rows if row.status == "inconclusive"
    )
    assert inconclusive == {("IMON", 0.5): 6, ("UB-GAU2", 0.5): 14}


def test_default_sweep_one_engine_pass_per_point(monkeypatch, cold_runs):
    # F and G come from one pass per distinct (nu, beta, x): every G point is
    # also an F point, so G's references are served from the shared cache.
    # The passes at one (nu, x) share its run, built once for the five beta
    calls = []
    engine = integrals._termwise_pair_log

    def counted(nu, beta, x, run=None):
        calls.append((nu, beta, x))
        return engine(nu, beta, x, run)

    monkeypatch.setattr(integrals, "_termwise_pair_log", counted)
    _clear_reference_caches()
    try:
        verify_all(default_grid())
        pair = bounds._fg_reference_log.cache_info()
        g_misses = bounds._g_reference.cache_info().misses
        runs = integrals._run.cache_info().misses
    finally:
        _clear_reference_caches()
    assert len(calls) == len(set(calls)) == 1375
    assert (pair.misses, pair.hits) == (1375, 1125)
    assert g_misses == 1125
    assert runs == 275


def _default_points():
    grid = default_grid()
    return {
        (nu, beta, x)
        for nu in grid.nu_values
        for beta in grid.beta_values
        for x in grid.x_values
    }


def test_default_sweep_tail_tests(monkeypatch):
    # one pass per distinct (nu, beta, x) bounds each tail in logs only once
    # the one-multiply screen passes, and G's only once F's is proven: 2,797
    # forward-loop tests, and the final F and G checks of each of the 1,375
    # points read the bounds those proved
    calls = []
    bound = integrals._tail_bound_log

    def counted(m, a, z, rho):
        calls.append(a)
        return bound(m, a, z, rho)

    monkeypatch.setattr(integrals, "_tail_bound_log", counted)
    points = _default_points()
    for point in points:
        integrals._termwise_pair_log(*point)
    assert len(points) == 1375
    assert len(calls) == 2797


def test_default_sweep_tries_g_tail_only_after_f_proven(monkeypatch):
    # G's tail bound falls at every step against a fixed limit, so the forward
    # loop tries it only from the index where F's passed and stops at the first
    # G pass: per point, failed F tries, one F pass at a_k, then G's tries from
    # a_k + 1 (G's carry a_j + 1, an odd offset from a_0), the last one passing
    proven = integrals._proven_tail_log
    calls = []

    def counted(m, a, z, rho, lim, shift):
        tail = proven(m, a, z, rho, lim, shift)
        calls.append((a, tail is not None))
        return tail

    monkeypatch.setattr(integrals, "_proven_tail_log", counted)
    tries = 0
    for nu, beta, x in _default_points():
        calls.clear()
        integrals._termwise_pair_log(nu, beta, x)
        tries += len(calls)
        word = "".join(
            ("gG" if round(a - 2.0 * nu - 2.0) % 2 else "fF")[passed] for a, passed in calls
        )
        assert re.fullmatch("f*Fg*G", word), (nu, beta, x, word)
        f_pass = word.index("F")
        assert calls[f_pass + 1][0] == calls[f_pass][0] + 1.0, (nu, beta, x)
    assert tries == 20232


def test_default_sweep_bessel_k_base_once_per_mu_x(monkeypatch, cold_bessel_k):
    # the sweep asks ln(e^x K) at 800 distinct (order, x); the orders nu + k
    # at one x share their base mu = |nu + k| - n, so Temme's series or
    # Steed's CF2 runs once per distinct (mu, x): 200 times
    calls = []

    def counted(kernel):
        def wrapper(mu, x):
            calls.append((mu, x))
            return kernel(mu, x)

        return wrapper

    for name in ("_bessel_k_temme", "_bessel_k_steed"):
        monkeypatch.setattr(specfun, name, counted(getattr(specfun, name)))
    verify_all(default_grid())
    assert specfun._bessel_k_scaled_log.cache_info().misses == 800
    assert len(calls) == len(set(calls)) == 200


def test_concurrent_evaluation_bit_identical():
    # pure functions + memoization must give bit-identical results however
    # calls interleave across threads
    from concurrent.futures import ThreadPoolExecutor

    from struveint.integrals import F
    from struveint.specfun import bessel_k_scaled, struve_l_scaled

    points = [
        (nu, beta, x)
        for nu in (-0.25, 0.5, 2.5)
        for beta in (0.25, 0.75)
        for x in (0.3, 3.0, 30.0)
    ]

    def work(p):
        nu, beta, x = p
        f = F(nu, beta, x)
        k = bessel_k_scaled(nu + 2.0, x)
        l = struve_l_scaled(nu, x)
        return (f.mantissa, f.exponent, k.mantissa, k.exponent, l.mantissa, l.exponent)

    serial = [work(p) for p in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(work, points))
    assert serial == parallel
