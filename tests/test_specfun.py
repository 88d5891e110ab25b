import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from struveint import specfun
from struveint.errors import ConvergenceError, DomainError
from struveint.integrals import (
    F,
    G,
    IntegralSpec,
    integral_beta0,
    integral_beta1,
    integral_series,
)
from struveint.specfun import (
    bessel_i,
    bessel_i_scaled,
    bessel_k,
    bessel_k_scaled,
    gamma_fn,
    log_gamma,
    lower_incomplete_gamma,
    lower_incomplete_gamma_log,
    pfq,
    struve_l,
    struve_l_scaled,
)
from tests.conftest import load_golden

SQRT_PI = math.sqrt(math.pi)

# spec tolerances, in relative terms (log-difference is equivalent at this size)
_GOLDEN_TOL = {
    "struve_l": lambda x: 1e-12 if x <= 50.0 else 1e-10,
    "bessel_i": lambda x: 1e-12 if x <= 50.0 else 1e-10,
    "bessel_k": lambda x: 1e-11,
    "lower_incomplete_gamma": lambda x: 1e-12,
}

_EVAL_LOG = {
    "struve_l": lambda nu, x: struve_l_scaled(nu, x).log_abs() + x,
    "bessel_i": lambda nu, x: bessel_i_scaled(nu, x).log_abs() + x,
    "bessel_k": lambda nu, x: bessel_k_scaled(nu, x).log_abs() - x,
    "lower_incomplete_gamma": lambda a, x: lower_incomplete_gamma_log(a, x),
}


@pytest.mark.parametrize("name,nu,x,log_ref", load_golden())
def test_golden_values(name, nu, x, log_ref):
    log_mine = _EVAL_LOG[name](nu, x)
    assert abs(log_mine - log_ref) <= _GOLDEN_TOL[name](x)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_known_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    # sqrt(pi) and 1.5*0.5*sqrt(pi), oracle-confirmed to 20 digits
    assert gamma_fn(0.5) == pytest.approx(1.7724538509055160273, rel=1e-13)
    assert gamma_fn(2.5) == pytest.approx(1.3293403881791370205, rel=1e-13)


@given(st.floats(min_value=0.01, max_value=30.0))
@settings(max_examples=100)
def test_gamma_recurrence(x):
    assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-13)


def test_gamma_domain():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            gamma_fn(bad)
        with pytest.raises(DomainError):
            log_gamma(bad)


def test_log_gamma_against_mpmath():
    # 3,000 x log-uniform on [1e-300, 1e300], 3,000 uniform on (0, 30] and
    # the multiples of 1/2 to 60, against 40-digit mpmath; the error is in
    # units of max(1, |lnGamma|), so absolute near the zeros x = 1 and 2
    mp = pytest.importorskip("mpmath")
    rng = random.Random(26)
    xs = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(3000)]
    xs += [30.0 * (1.0 - rng.random()) for _ in range(3000)]
    xs += [0.5 * k for k in range(1, 121)]

    def error(x):
        ref = mp.loggamma(x)
        return float(abs(log_gamma(x) - ref) / max(1, abs(ref)))

    with mp.workdps(40):
        worst, at = max((error(x), x) for x in xs)
        ref = float(mp.loggamma(1.5))
    assert worst <= 2e-15, at
    # lnGamma(3/2) is the exact (ln pi)/2 - ln 2, to the ulp
    assert abs(specfun._LN_GAMMA_3_2 - ref) <= math.ulp(ref)


@pytest.mark.parametrize("x", (20.5, 100.3, 150.7, 170.2, 171.5))
def test_gamma_fn_against_mpmath(x):
    # Gamma(171.5) = 9.48e307 still fits a double
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        assert float(abs(gamma_fn(x) / mp.gamma(x) - 1)) <= 1e-15


@pytest.mark.parametrize("x", (171.63, 200.0, 5.5e-309))
def test_gamma_fn_raises_past_double_range(x):
    with pytest.raises(OverflowError, match=r"exceeds double range; use log_gamma$"):
        gamma_fn(x)


def test_gamma_overflow_guard():
    with pytest.raises(OverflowError):
        gamma_fn(200.0)
    assert log_gamma(200.0) == pytest.approx(857.9336698258574, rel=1e-12)
    # (x - 1/2) ln x - x passes the largest double from x ~ 2.558e305 on
    x = 2.55e305
    assert log_gamma(x) == pytest.approx(x * (math.log(x) - 1.0), rel=1e-14)
    for x in (2.56e305, 1e306, 1.7e308):
        with pytest.raises(OverflowError, match=r"^ln Gamma\(x\) exceeds double range$"):
            log_gamma(x)


# ---------------------------------------------------------------------------
# lower incomplete gamma
# ---------------------------------------------------------------------------


def test_ligamma_closed_forms():
    assert lower_incomplete_gamma(1.0, 2.0) == pytest.approx(
        1.0 - math.exp(-2.0), rel=1e-13
    )
    assert lower_incomplete_gamma(3.5, 0.0) == 0.0
    # 1 - 2/e, oracle-confirmed
    assert lower_incomplete_gamma(2.0, 1.0) == pytest.approx(
        0.26424111765711535681, rel=1e-13
    )
    assert lower_incomplete_gamma(3.5, 2.2) == pytest.approx(
        0.88825499961633551315, rel=1e-12
    )


@given(
    st.floats(min_value=0.1, max_value=30.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=100)
def test_ligamma_monotone_in_x(a, x, dx):
    assert lower_incomplete_gamma(a, x + dx) >= lower_incomplete_gamma(a, x) * (
        1.0 - 1e-12
    )


@given(st.floats(min_value=0.1, max_value=40.0))
@settings(max_examples=50)
def test_ligamma_saturates_to_gamma(a):
    assert lower_incomplete_gamma_log(a, 30.0 * (a + 10.0)) == pytest.approx(
        log_gamma(a), rel=1e-12
    )


def test_ligamma_domain():
    with pytest.raises(DomainError):
        lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(-2.0, 1.0)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(1.0, -0.1)


@pytest.mark.parametrize(
    "a,x,log_ref",
    # ln gammainc(a, 0, x) by mpmath at 40 digits, rounded to double
    [(1e-14, 0.5, 32.23619130191663), (3e-15, 0.5, 33.44016410624257),
     (1e-20, 0.5, 46.051701859880914), (1e-308, 0.999, 709.1962086421661),
     (5.6e-309, 0.5, 709.776027137419), (1e-320, 0.5, 736.8272408909739),
     (1e-320, 1e-300, 736.8272408909739), (5e-324, 0.999, 744.4400719213812)],
)
def test_ligamma_tiny_a_rescales_kummer_sum(a, x, log_ref):
    # the Kummer sum's first term 1/a is above e^30, so its rescale runs;
    # below a = 1e-300, where 1/a overflows, S(a, x) comes from S(a + 1, x)
    assert lower_incomplete_gamma_log(a, x) == pytest.approx(log_ref, rel=1e-15)


def test_ligamma_raises_where_gamma_overflows():
    # ln gamma(1e-310, 1/2) is about 713.8, past double range
    with pytest.raises(OverflowError):
        lower_incomplete_gamma(1e-310, 0.5)


def test_ligamma_continued_fraction_raises_past_cap(monkeypatch):
    # x > a + 1 takes the continued fraction, which needs 10 terms here
    monkeypatch.setattr(specfun, "MAX_SERIES_TERMS", 5)
    with pytest.raises(ConvergenceError, match="incomplete gamma continued fraction cap"):
        lower_incomplete_gamma_log(10.0, 11.5)


# ---------------------------------------------------------------------------
# pFq
# ---------------------------------------------------------------------------


def test_pfq_at_zero_is_exactly_one():
    res = pfq((1.0,), (1.5, 2.0), 0.0)
    assert res.value.to_float() == 1.0
    assert res.truncation_estimate == 0.0


def test_pfq_matches_struve_representation():
    # x^{nu+1}/(sqrt(pi) 2^nu Gamma(nu+3/2)) 1F2(1; 3/2, nu+3/2; x^2/4) = L_nu(x)
    nu, x = 0.0, 2.0
    hyp = pfq((1.0,), (1.5, nu + 1.5), 0.25 * x * x)
    prefactor = x ** (nu + 1.0) / (SQRT_PI * 2.0**nu * gamma_fn(nu + 1.5))
    assert prefactor * hyp.value.to_float() == pytest.approx(
        struve_l(nu, x), rel=1e-12
    )


def test_pfq_2f3_frozen_value():
    # 60-term high-precision summation of 2F3(1,2; 3/2,5/2,3; 1)
    res = pfq((1.0, 2.0), (1.5, 2.5, 3.0), 1.0)
    assert res.value.to_float() == pytest.approx(1.1938165682608158854, rel=1e-13)
    assert res.terms_used < 60
    assert res.truncation_estimate < 1e-14


def test_pfq_parameter_validation():
    with pytest.raises(DomainError):
        pfq((1.0, 2.0, 3.0), (1.5,), 0.1)  # p > q+1
    with pytest.raises(DomainError):
        pfq((1.0,), (0.0,), 0.1)  # nonpositive integer lower
    with pytest.raises(DomainError):
        pfq((1.0,), (-3.0,), 0.1)
    with pytest.raises(DomainError):
        pfq((1.0, 2.0), (1.5,), 1.0)  # p = q+1 needs |x| < 1


@pytest.mark.parametrize("tol", (math.nan, 0.0, -1.0))
def test_pfq_refuses_tol_not_positive(tol):
    with pytest.raises(DomainError, match="pFq requires a finite tol > 0"):
        pfq((1.0,), (1.5, 2.0), 0.5, tol=tol)


def test_pfq_geometric_series():
    # 1F0(1; ; x) = 1/(1-x)
    res = pfq((1.0,), (), 0.5)
    assert res.value.to_float() == pytest.approx(2.0, rel=1e-13)


def test_pfq_raises_past_term_cap(monkeypatch):
    monkeypatch.setattr(specfun, "MAX_SERIES_TERMS", 3)
    with pytest.raises(ConvergenceError, match="pFq did not converge within 3 terms"):
        pfq((1.0,), (1.5, 2.0), 4.0)


# ---------------------------------------------------------------------------
# Struve L
# ---------------------------------------------------------------------------


def test_struve_trivial_zero():
    assert struve_l(1.0, 0.0) == 0.0
    assert struve_l_scaled(1.0, 0.0).is_zero


def test_struve_closed_forms():
    # L_{-1/2}(x) = sqrt(2/(pi x)) sinh(x); L_{1/2}(x) = sqrt(2/(pi x))(cosh x - 1)
    for x in (0.5, 1.0, 3.0, 10.0):
        c = math.sqrt(2.0 / (math.pi * x))
        assert struve_l(-0.5, x) == pytest.approx(c * math.sinh(x), rel=1e-12)
        assert struve_l(0.5, x) == pytest.approx(c * (math.cosh(x) - 1.0), rel=1e-12)
    assert struve_l(-0.5, 1.0) == pytest.approx(0.93767488824548764672, rel=1e-12)


def test_struve_direct_series_value():
    # high-precision summation of the defining series at (0, 2)
    assert struve_l(0.0, 2.0) == pytest.approx(1.9374337579914456612, rel=1e-12)


def test_struve_positive_and_increasing_in_x():
    prev = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
        v = struve_l(0.25, x)
        assert v > prev
        prev = v


@given(
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=0.01, max_value=40.0),
)
@settings(max_examples=100)
def test_struve_order_monotonicity(nu, x):
    # the true gap shrinks like e^{-x} at nu = 1/2, so allow roundoff ties
    ratio = struve_l_scaled(nu, x).ratio_to(struve_l_scaled(nu - 1.0, x))
    assert ratio <= 1.0 + 1e-12


@given(
    st.floats(min_value=-0.5, max_value=10.0),
    st.floats(min_value=0.01, max_value=40.0),
)
@settings(max_examples=100)
def test_struve_below_bessel_i(nu, x):
    # I - L decays like an algebraic factor of e^{-x} relative to I
    ratio = struve_l_scaled(nu, x).ratio_to(bessel_i_scaled(nu, x))
    assert ratio <= 1.0 + 1e-12


def test_struve_plain_overflow():
    with pytest.raises(OverflowError):
        struve_l(0.0, 800.0)
    assert struve_l_scaled(0.0, 800.0).to_float() == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi * 800.0), rel=1e-3
    )


def test_struve_scaled_plain_consistency():
    for nu in (-1.4, -0.5, 0.0, 1.0, 5.0, 10.0):
        for x in (0.3, 1.0, 10.0, 100.0, 690.0):
            plain = struve_l(nu, x)
            scaled = struve_l_scaled(nu, x)
            assert scaled.to_float() * math.exp(x) == pytest.approx(plain, rel=1e-13)


def test_struve_domain():
    with pytest.raises(DomainError):
        struve_l(-1.5, 1.0)
    with pytest.raises(DomainError):
        struve_l(-2.0, 1.0)
    with pytest.raises(DomainError):
        struve_l(0.5, -1.0)
    with pytest.raises(DomainError):
        struve_l(-1.2, 0.0)  # diverges at the origin for nu <= -1


def test_struve_small_x_second_order():
    # L_nu(x) ~ x^{nu+1}/(sqrt(pi) 2^nu Gamma(nu+3/2)) (1 + x^2/(3(2nu+3)))
    x = 1e-2
    for nu in (-1.4, -0.5, 0.0, 1.0, 5.0):
        lead = struve_l(nu, x) * SQRT_PI * 2.0**nu * gamma_fn(nu + 1.5) / x ** (
            nu + 1.0
        )
        assert lead == pytest.approx(1.0 + x * x / (3.0 * (2.0 * nu + 3.0)), abs=1e-4)


def test_struve_large_x_band():
    # e^{-x} L_nu(x) sqrt(2 pi x) = 1 - (4nu^2-1)/(8x) + O(1/x^2)
    for nu in (0.0, 1.0, 5.0):
        mu = 4.0 * nu * nu
        c = 2.0 * abs((mu - 1.0) * (mu - 9.0)) / 128.0 + 1.0
        for x in (200.0, 400.0, 1000.0):
            val = struve_l_scaled(nu, x).to_float() * math.sqrt(2.0 * math.pi * x)
            centre = 1.0 - (mu - 1.0) / (8.0 * x)
            assert abs(val - centre) <= c / (x * x)


# ---------------------------------------------------------------------------
# Bessel I
# ---------------------------------------------------------------------------


def test_bessel_i_trivial_and_frozen():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(1.0, 0.0) == 0.0
    # closed form sqrt(2/(pi x)) cosh(x), oracle-confirmed
    assert bessel_i(-0.5, 1.0) == pytest.approx(1.2312002145929674465, rel=1e-12)
    # series oracle
    assert bessel_i(1.0, 0.1) == pytest.approx(0.050062526047092692114, rel=1e-12)


def test_bessel_i_negative_integer_reflection():
    for x in (0.5, 2.0, 10.0):
        assert bessel_i(-1.0, x) == pytest.approx(bessel_i(1.0, x), rel=1e-14)
        # below -1 only integer orders are accepted, past the reader's fast chain
        for n in (1.0, 2.0, 3.0):
            assert specfun.bessel_i_scaled_log(-n, x) == specfun.bessel_i_scaled_log(n, x)


def test_bessel_i_scaled_consistency():
    for nu in (-0.99, 0.0, 2.5, 9.0):
        for x in (0.5, 5.0, 100.0, 690.0):
            assert bessel_i_scaled(nu, x).to_float() * math.exp(x) == pytest.approx(
                bessel_i(nu, x), rel=1e-13
            )


def test_bessel_i_domain():
    with pytest.raises(DomainError):
        bessel_i(-1.3, 1.0)
    with pytest.raises(DomainError):
        bessel_i(0.5, -2.0)
    with pytest.raises(DomainError):
        bessel_i(-0.5, 0.0)  # diverges at the origin


# ---------------------------------------------------------------------------
# Bessel K
# ---------------------------------------------------------------------------


def test_bessel_k_half_integer_closed_forms():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}; K_{3/2}(x) = K_{1/2}(x)(1 + 1/x)
    assert bessel_k(0.5, 1.0) == pytest.approx(0.46106850444789455844, rel=1e-12)
    assert bessel_k(1.5, 1.0) == pytest.approx(0.92213700889578911688, rel=1e-12)
    for x in (0.2, 2.0, 30.0):
        base = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(base, rel=1e-12)
        assert bessel_k(1.5, x) == pytest.approx(base * (1.0 + 1.0 / x), rel=1e-12)


def test_bessel_k_even_in_order():
    assert bessel_k(-2.5, 3.0) == pytest.approx(bessel_k(2.5, 3.0), rel=1e-14)


def test_bessel_k_monotonicity():
    xs = (0.1, 0.5, 1.0, 5.0, 20.0)
    for nu in (0.0, 1.0, 4.0):
        vals = [bessel_k(nu, x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing in x
    for x in (0.5, 3.0):
        vals = [bessel_k(nu, x) for nu in (0.0, 0.5, 1.5, 3.0, 7.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))  # increasing in |nu|


def test_bessel_k_small_x_law():
    nu, x = 2.0, 1e-4
    target = 2.0 ** (nu - 1.0) * gamma_fn(nu) / x**nu
    assert bessel_k(nu, x) == pytest.approx(target, rel=1e-3)


def test_bessel_k_scaled_consistency():
    for nu in (0.0, 1.5, 7.0):
        for x in (1e-3, 1.0, 100.0):
            assert bessel_k_scaled(nu, x).to_float() * math.exp(-x) == pytest.approx(
                bessel_k(nu, x), rel=1e-13
            )


def test_bessel_k_large_x_band():
    for nu in (0.0, 1.0, 5.0):
        mu = 4.0 * nu * nu
        c = 2.0 * abs((mu - 1.0) * (mu - 9.0)) / 128.0 + 1.0
        for x in (200.0, 400.0, 1000.0):
            val = bessel_k_scaled(nu, x).to_float() * math.sqrt(2.0 * x / math.pi)
            assert abs(val - (1.0 + (mu - 1.0) / (8.0 * x))) <= c / (x * x)


def test_bessel_k_domain():
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -1.0)


# ---------------------------------------------------------------------------
# cross-function identities
# ---------------------------------------------------------------------------

_IDENTITY_NUS = (-0.49, -0.25, 0.0, 0.5, 1.0, 2.5, 5.0, 10.0)
_IDENTITY_XS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


def test_recurrence_identity():
    # L_{nu-1} - L_{nu+1} = (2 nu / x) L_nu + (x/2)^nu / (sqrt(pi) Gamma(nu+3/2))
    for nu in _IDENTITY_NUS:
        for x in _IDENTITY_XS:
            lm = struve_l(nu - 1.0, x)
            lp = struve_l(nu + 1.0, x)
            l0 = struve_l(nu, x)
            algebraic = (0.5 * x) ** nu / (SQRT_PI * gamma_fn(nu + 1.5))
            residual = lm - lp - (2.0 * nu / x) * l0 - algebraic
            assert abs(residual) <= 1e-10 * lm


def test_derivative_identity_finite_difference():
    # d/dx (x^nu L_nu) = x^nu L_{nu-1}
    for nu in _IDENTITY_NUS:
        for x in _IDENTITY_XS:
            h = 1e-5 * max(1.0, x)
            num = (
                (x + h) ** nu * struve_l(nu, x + h)
                - (x - h) ** nu * struve_l(nu, x - h)
            ) / (2.0 * h)
            assert num == pytest.approx(x**nu * struve_l(nu - 1.0, x), rel=1e-6)


def test_bessel_wronskian():
    # x (I_nu K_{nu+1} + I_{nu+1} K_nu) = 1
    for nu in _IDENTITY_NUS:
        for x in _IDENTITY_XS + (200.0,):
            total = (
                bessel_i_scaled(nu, x) * bessel_k_scaled(nu + 1.0, x)
                + bessel_i_scaled(nu + 1.0, x) * bessel_k_scaled(nu, x)
            ).scale(x)
            assert total.to_float() == pytest.approx(1.0, rel=1e-10)


@given(
    st.floats(min_value=-0.49, max_value=10.0),
    st.floats(min_value=0.1, max_value=30.0),
)
@settings(max_examples=100)
def test_recurrence_identity_property(nu, x):
    lm = struve_l(nu - 1.0, x)
    residual = (
        lm
        - struve_l(nu + 1.0, x)
        - (2.0 * nu / x) * struve_l(nu, x)
        - (0.5 * x) ** nu / (SQRT_PI * gamma_fn(nu + 1.5))
    )
    assert abs(residual) <= 1e-10 * lm


def test_series_cap_is_hard_error():
    # far beyond any supported argument the series' term cap must trip, not
    # hang: where the large-x expansion declines (nu <= -1 for L, nu^2 > x),
    # the series runs and raises; where it serves, there is a value
    for nu in (-1.2, 1001.0):
        with pytest.raises(ConvergenceError):
            struve_l_scaled(nu, 1e6)
    assert math.isfinite(struve_l_scaled(0.0, 1e6).log_abs())


# ---------------------------------------------------------------------------
# L and I past x = 100 from their large-x expansion (``large_x.kernel_log``)
# ---------------------------------------------------------------------------


def test_large_x_kernels_match_the_series():
    # seeded points with x in (100, 1000] and nu in (-1, 30]: where nu^2 <= x
    # the expansion serves, within 2e-15 of the unscaled log ln L_nu(x) (or
    # ln I_nu(x)) that the series rounds; elsewhere the series keeps its bits
    from struveint import large_x

    rng = random.Random(33)
    served = 0
    for _ in range(400):
        nu = 30.0 - 31.0 * rng.random()
        x = math.exp(rng.uniform(math.log(100.0), math.log(1000.0)))
        for fn, raw, struve in (
            (specfun.struve_l_scaled_log, specfun._struve_l_raw, True),
            (specfun.bessel_i_scaled_log, specfun._bessel_i_raw, False),
        ):
            series = raw(nu, x)
            log = large_x.kernel_log(nu, x, struve)
            assert (log is not None) == (nu * nu <= x), (nu, x)
            if log is None:
                assert fn(nu, x) == series - x
                continue
            served += 1
            assert fn(nu, x) == log
            assert abs(log - (series - x)) <= 2e-15 * abs(series), (nu, x, struve)
    assert served >= 200


@pytest.mark.parametrize("x", (150.0, 1e3, 1e4, 1e5, 1e6))
def test_large_x_kernels_against_mpmath(x):
    # within 1e-14 of the 40-digit log; from x = 1e5 the series raises
    # ConvergenceError, and at 1e4 it was 8.8e-13 off
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for nu in (-0.999, -0.5, -0.25, 0.0, 0.5, 1.0, 2.5, 7.3, 12.0, 31.0):
            if nu * nu > x:
                continue
            for fn, ref in ((specfun.struve_l_scaled_log, mp.struvel),
                            (specfun.bessel_i_scaled_log, mp.besseli)):
                want = mp.log(ref(nu, x)) - x
                assert abs(float(fn(nu, x) - want)) <= 1e-14, (fn.__name__, nu, x)


def test_large_x_kernels_keep_the_series_bits_where_they_do_not_apply():
    # L at nu in (-3/2, -1] past x = 100, and every kernel and form at x <= 100,
    # come from the series with their former bits
    for nu in (-1.49, -1.2, -1.0):
        for x in (150.0, 600.0):
            raw = specfun._struve_l_raw(nu, x)
            assert specfun.struve_l_scaled_log(nu, x) == raw - x
            assert struve_l(nu, x) == specfun.ScaledReal.from_log(raw).to_float()
    for x in (50.0, 100.0):
        for nu in (-0.5, 0.0, 2.5):
            raw = specfun._struve_l_raw(nu, x)
            assert specfun.struve_l_scaled_log(nu, x) == raw - x
            assert struve_l_scaled(nu, x) == specfun.ScaledReal.from_log(raw - x)
            assert struve_l(nu, x) == specfun.ScaledReal.from_log(raw).to_float()
            raw = specfun._bessel_i_raw(nu, x)
            assert specfun.bessel_i_scaled_log(nu, x) == raw - x
            assert bessel_i_scaled(nu, x) == specfun.ScaledReal.from_log(raw - x)
            assert bessel_i(nu, x) == specfun.ScaledReal.from_log(raw).to_float()
    # integer order below -1 passes the I checker; past 100 it is I_|nu|
    raw = specfun._bessel_i_raw(-3.0, 50.0)
    assert specfun.bessel_i_scaled_log(-3.0, 50.0) == raw - 50.0
    assert specfun.bessel_i_scaled_log(-3.0, 300.0) == specfun.bessel_i_scaled_log(3.0, 300.0)


def test_large_x_kernels_serve_every_form():
    # the scaled, unscaled and ScaledReal forms read the same expansion
    from struveint import large_x

    for nu, x in ((0.0, 150.0), (2.5, 600.0), (-0.9, 1e4)):
        log_l, log_i = large_x.kernel_log(nu, x, True), large_x.kernel_log(nu, x, False)
        assert log_l == log_i  # L - I is below 1e-16 of either
        assert struve_l_scaled(nu, x) == specfun.ScaledReal.from_log(log_l)
        assert bessel_i_scaled(nu, x) == specfun.ScaledReal.from_log(log_i)
        if x < 700.0:
            assert struve_l(nu, x) == specfun.ScaledReal.from_log(log_l + x).to_float()
            assert bessel_i(nu, x) == specfun.ScaledReal.from_log(log_i + x).to_float()


_K_MPMATH_NUS = (0.0, 1e-9, 0.25, 0.49, 0.5, 0.51, 0.75, 0.9, 1.0, 1.5, 2.25, 5.0, 12.0, 13.0, 30.0)
_K_MPMATH_XS = (1e-4, 0.05, 1.0, 1.999, 2.0, 2.001, 5.0, 100.0, 690.0, 1000.0)


@pytest.mark.parametrize("nu", _K_MPMATH_NUS)
def test_bessel_k_matches_mpmath(nu):
    # mu = 0, mu = -1/2 (nu = 0.5), mu = +-0.49 and both sides of the
    # Temme/Steed switch at x = 2; |d ln(e^x K)| <= 1e-13 is relative 1e-13
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for x in _K_MPMATH_XS:
            ref = float(mp.log(mp.besselk(nu, x)) + x)
            assert abs(specfun.bessel_k_scaled_log(nu, x) - ref) <= 1e-13, x


@pytest.mark.parametrize("nu,x", [(100.0, 1e-3), (3.0, 1e-300), (0.3, 5e-324)])
def test_bessel_k_tiny_x_high_order_matches_mpmath(nu, x):
    # the recurrence carries ratios, so K_nu(x) far beyond double range keeps
    # its log to a few ulps
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = float(mp.log(mp.besselk(nu, x)) + x)
    assert abs(specfun.bessel_k_scaled_log(nu, x) - ref) <= 4.0 * math.ulp(ref)


def test_bessel_k_subnormal_x_recurrence_raises():
    # 2/x overflows, so the order recurrence cannot start
    with pytest.raises(OverflowError):
        specfun.bessel_k_scaled_log(2.0, 5e-324)


@pytest.mark.parametrize(
    "cap,nu,x,loop",
    [
        (5, 0.25, 1.0, "Temme series"),  # needs 11 terms
        (20, 0.25, 2.0, "continued fraction"),  # needs 80 iterations
        (20, 25.25, 1000.0, "order recurrence"),  # CF2 needs 7, then 25 steps
    ],
)
def test_bessel_k_loops_raise_past_cap(monkeypatch, cold_bessel_k, cap, nu, x, loop):
    # each loop must raise at its cap rather than return its last iterate
    monkeypatch.setattr(specfun, "MAX_SERIES_TERMS", cap)
    with pytest.raises(ConvergenceError, match=loop):
        specfun.bessel_k_scaled_log(nu, x)


def test_bessel_k_huge_order_raises_promptly(cold_bessel_k):
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        specfun.bessel_k_scaled_log(1e5, 1.0)
    assert time.perf_counter() - start < 0.05


_NON_FINITE_CALLS = [
    pytest.param(fn, args, id=f"{name}{args}")
    for name, fn, good in (
        ("F", F, (1.0, 0.5, 2.0)),
        ("G", G, (1.0, 0.5, 2.0)),
        # another name for F; the name is the id, so the two stay apart
        ("integral_series", integral_series, (1.0, 0.5, 2.0)),
        ("integral_beta0", integral_beta0, (1.0, 2.0)),
        ("integral_beta1", integral_beta1, (1.0, 2.0)),
        ("IntegralSpec", IntegralSpec, (1.0, 1.0, 0.5, 2.0)),
        ("struve_l", struve_l, (1.0, 2.0)),
        ("struve_l_scaled", struve_l_scaled, (1.0, 2.0)),
        ("bessel_i", bessel_i, (1.0, 2.0)),
        ("bessel_i_scaled", bessel_i_scaled, (1.0, 2.0)),
        ("bessel_k", bessel_k, (1.0, 2.0)),
        ("bessel_k_scaled", bessel_k_scaled, (1.0, 2.0)),
        ("lower_incomplete_gamma", lower_incomplete_gamma, (1.0, 2.0)),
        ("lower_incomplete_gamma_log", lower_incomplete_gamma_log, (1.0, 2.0)),
    )
    for slot in (0, len(good) - 1)  # the order (or a) and the argument x
    for bad in (math.nan, math.inf)
    for args in [good[:slot] + (bad,) + good[slot + 1:]]
]


@pytest.mark.parametrize("fn,args", _NON_FINITE_CALLS)
def test_non_finite_input_is_domain_error(fn, args):
    # rejected up front: no series or quadrature loop may see nan or inf
    with pytest.raises(DomainError):
        fn(*args)


_READER_REFUSALS = [
    (reader, checker, args)
    for reader, checker, bad in (
        (specfun.struve_l_scaled_log, specfun._check_struve_args,
         ((-1.5, 2.0), (math.nextafter(-1.5, -math.inf), 2.0), (1.0, -1.0), (1.0, -5e-324))),
        (specfun.bessel_i_scaled_log, specfun._check_bessel_i_args,
         ((math.nextafter(-1.0, -math.inf), 2.0), (-1.5, 2.0), (1.0, -1.0), (1.0, -5e-324))),
        (specfun.bessel_k_scaled_log, specfun._check_bessel_k_args,
         ((1.0, 0.0), (1.0, -0.0), (1.0, -1.0))),
    )
    for args in bad + tuple(
        (v, 2.0) if slot == 0 else (1.0, v)
        for slot in (0, 1)
        for v in (math.nan, math.inf, -math.inf)
    )
]


@pytest.mark.parametrize(
    "reader,checker,args",
    _READER_REFUSALS,
    ids=[f"{reader.__name__}{args}" for reader, _, args in _READER_REFUSALS],
)
def test_scaled_log_readers_refuse_as_their_checkers(reader, checker, args):
    # each reader tests its arguments in one comparison chain and calls its
    # checker only off that chain: the refusal is the checker's own
    with pytest.raises(DomainError) as want:
        checker(*args)
    with pytest.raises(DomainError) as got:
        reader(*args)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# subnormal x, and the downward Struve order ladder behind LB-2.3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", (5e-324, 1e-320, 2.0**-1022, 1e-300))
def test_struve_l_and_bessel_i_at_tiny_x_match_leading_term(x):
    # x/2 drops bits below the least normal double (the least subnormal
    # halves to 0), so the log of x/2 is taken as ln x - ln 2 there; the
    # series is its first term at these x
    log_half = math.log(x) - math.log(2.0)
    for nu in (-0.5, 0.0, 2.0, 10.0):
        lead = (nu + 1.0) * log_half - log_gamma(1.5) - log_gamma(nu + 1.5)
        got = specfun.struve_l_scaled_log(nu, x) + x
        assert abs(got - lead) <= 4.0 * math.ulp(lead)
        lead = nu * log_half - log_gamma(nu + 1.0)
        got = specfun.bessel_i_scaled_log(nu, x) + x
        assert abs(got - lead) <= 4.0 * math.ulp(lead)
    assert specfun.struve_l_scaled_log(2.0, x) > -math.inf


def _ladder_tolerance(nu, k, x, raw):
    # 1e-13 relative, plus the rounding of the largest log the series for the
    # order adds up: ln L itself, (mu+1) ln(x/2) and lnGamma(mu + 3/2)
    mu = nu + k + 1.0
    largest = max(abs(raw), abs((mu + 1.0) * math.log(0.5 * x)), log_gamma(mu + 1.5))
    return 1e-13 + 8.0 * math.ulp(largest)


@given(
    st.floats(min_value=-0.999, max_value=30.0),
    st.floats(min_value=math.log(1e-3), max_value=math.log(1000.0)),
    st.sampled_from((2, 3, 16, 32)),
)
@settings(max_examples=150, deadline=None)
def test_struve_ladder_matches_per_order_series(nu, log_x, n):
    x = math.exp(log_x)
    ladder = specfun._struve_ladder_log(nu, x, n)
    assert len(ladder) == n
    for k, value in enumerate(ladder):
        raw = specfun._struve_l_raw(nu + k + 1.0, x)
        assert abs(value - (raw - x)) <= _ladder_tolerance(nu, k, x, raw), k


@pytest.mark.parametrize("nu", (-0.99, -0.49, 0.0, 2.5, 10.0, 25.0))
def test_struve_ladder_matches_mpmath(nu):
    # 32 orders; the ladder's values carry no rounded log of e^x or of a
    # large Gamma, so each is within a few ulps of its own log
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for x in (1e-3, 0.05, 1.0, 20.0, 300.0):
            ladder = specfun._struve_ladder_log(nu, x, 32)
            for k, value in enumerate(ladder):
                ref = float(mp.log(mp.struvel(nu + k + 1, x)) - x)
                assert abs(value - ref) <= 1e-13 + 4.0 * math.ulp(ref), (x, k)


def test_struve_ladder_at_tiny_x_is_the_per_order_series():
    # one step would outgrow the e^30 shift, so each order has its series
    for x in (1e-300, 5e-324):
        ladder = specfun._struve_ladder_log(2.0, x, 16)
        assert ladder == tuple(
            specfun._struve_l_raw(2.0 + k + 1.0, x) - x for k in range(16)
        )
