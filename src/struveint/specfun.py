r"""Core special-function kernel: Gamma, lower incomplete gamma, pFq,
modified Struve L, and modified Bessel I and K.

The modified Struve function of the first kind is the all-positive-term
series

.. math::
    \mathbf{L}_\nu(x) = \sum_{k\ge 0}
        \frac{(x/2)^{\nu+2k+1}}{\Gamma(k+3/2)\,\Gamma(k+\nu+3/2)},
    \qquad \nu > -3/2,

and grows like :math:`e^x/\sqrt{2\pi x}`, so every function here that grows
or decays exponentially has a scaled companion returning a
:class:`~struveint.scaled.ScaledReal`:

* ``struve_l_scaled(nu, x)``  represents ``exp(-x) * L_nu(x)``
* ``bessel_i_scaled(nu, x)``  represents ``exp(-x) * I_nu(x)``
* ``bessel_k_scaled(nu, x)``  represents ``exp(+x) * K_nu(x)``

The kernels themselves work in the log domain: the cached L and I series
return ln L and ln I, the cached K kernel returns ln(exp(x) K), all plain
floats.  ``struve_l_scaled_log``, ``bessel_i_scaled_log`` and
``bessel_k_scaled_log`` give the log of each scaled function to callers that
stay in logs; the plain and ``*_scaled`` functions build their float or
``ScaledReal`` from the same cached values.

Implementation choices: L and I are summed by direct ascending series with
term recurrences (all terms positive for nu > -3/2, so no cancellation);
running exponent extraction renormalizes the partial sum whenever it exceeds
e^30.  Many consecutive orders of L at one x (the geometric Struve sum of
LB-2.3) come from one downward recurrence in the order, started from the
series of its two top orders and pinned to the series of its lowest.
K_nu(x) is Temme's method (J. Comput. Phys. 19, 1975; Numerical
Recipes 6.7): at the order mu = |nu| - n, |mu| <= 1/2, Temme's series for
x < 2 or Steed's evaluation of the continued fraction CF2 for x >= 2 gives
K_mu and K_{mu+1}, and the recurrence K_{m+1} = K_{m-1} + (2m/x) K_m climbs
the n steps to nu, upward being the stable direction for K; that base pair
is cached per (mu, x), since the orders nu, nu+1, ... at one x share it.
The lower incomplete gamma uses the classical split: ascending series for
x < a+1, Lentz continued fraction for the upper complement otherwise.  Gamma
and ln Gamma are the standard library's ``math.gamma`` and ``math.lgamma``,
positive arguments only.

All functions are pure; none touch shared mutable state beyond memoization
caches keyed by their arguments, so concurrent use is safe and results do
not depend on call order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import ConvergenceError, DomainError
from .scaled import ScaledReal

__all__ = [
    "SeriesResult",
    "gamma_fn",
    "log_gamma",
    "lower_incomplete_gamma",
    "lower_incomplete_gamma_log",
    "pfq",
    "struve_l",
    "struve_l_scaled",
    "struve_l_scaled_log",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_i_scaled_log",
    "bessel_k",
    "bessel_k_scaled",
    "bessel_k_scaled_log",
]

MAX_SERIES_TERMS = 40_000

_EXP30 = math.exp(30.0)
_LN2 = math.log(2.0)
_LN_SQRT_PI = 0.5 * math.log(math.pi)
# lnGamma(3/2) = ln(sqrt(pi)/2); math.lgamma(1.5) is 2e-16 off it
_LN_GAMMA_3_2 = _LN_SQRT_PI - _LN2
# x/2 is a normal double from here up; below it x/2 drops bits (the least
# subnormal halves to 0), so the series take ln(x/2) as ln x - ln 2 there
_TWO_MIN_NORMAL = 2.0**-1021
# the kernel readers' comparison chains read one module name, not math.inf
_INF = math.inf
# past this x, L and I come from their large-x expansion where its remainder
# is proven (``large_x.kernel_log``), and F and G from theirs; the default
# grid and the tables stop at x = 100
_LARGE_X = 100.0

# Taylor coefficients of 1/Gamma(1+z) about z = 0 (DLMF 5.7.1), computed with
# mpmath at 40 digits and regrouped for _bessel_k_temme: the odd coefficients,
# negated, and the even ones, each highest power first as polynomials in z^2.
# The first omitted term, in z^22, is below 5e-21 at |z| = 1/2.
_TEMME_GAM1 = (
    -5.100370287454476e-13,
    -7.782263439905071e-12,
    1.18127457048702e-09,
    -6.116095104481416e-09,
    -1.133027231981696e-06,
    2.013485478078824e-05,
    0.00021524167411495098,
    -0.0072189432466631,
    0.04219773455554433,
    0.04200263503409524,
    -0.5772156649015329,
)
_TEMME_GAM2 = (
    -3.696805618642206e-12,
    1.0434267116911005e-10,
    5.002007644469223e-09,
    -2.056338416977607e-07,
    -1.2504934821426706e-06,
    0.0001280502823881162,
    -0.0011651675918590652,
    -0.009621971527876973,
    0.16653861138229148,
    -0.6558780715202539,
    1.0,
)


class SeriesResult(NamedTuple):
    """Outcome of a truncated series summation."""

    value: ScaledReal
    terms_used: int
    truncation_estimate: float  # relative tail bound


def _require_finite(what: str, *args: float) -> None:
    """DomainError for a nan or infinite argument, before any loop sees it."""
    for v in args:
        if not math.isfinite(v):
            raise DomainError(f"{what} requires finite arguments, got {args}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 (``math.lgamma``); OverflowError from
    x ~ 2.55e305 on, where ln Gamma(x) passes the largest double."""
    if not 0.0 < x < math.inf:
        _require_finite("log_gamma", x)
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise OverflowError("ln Gamma(x) exceeds double range") from None


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0 (``math.gamma``); OverflowError where Gamma(x)
    passes the largest double, from x ~ 171.63 on and below x ~ 5.6e-309."""
    if not 0.0 < x < math.inf:
        log_gamma(x)  # raises its DomainError
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"Gamma({x}) exceeds double range; use log_gamma") from None


def _kummer_sum(a: float, z: float) -> tuple[float, float]:
    """(shift, s) with s e^shift = S(a, z) = sum_n z^n / (a)_{n+1}, a > 0.

    Stops once the term ratio rho = z / (a + n) is below 1 and the geometric
    bound term rho / (1 - rho) on the rest is at most 1e-17 of the sum.
    """
    term = 1.0 / a
    s = term
    shift = 0.0
    n = 0
    while True:
        n += 1
        rho = z / (a + n)
        term *= rho
        s += term
        if s > _EXP30:
            shift += 30.0
            s /= _EXP30
            term /= _EXP30
        if rho < 1.0 and term * rho <= 1e-17 * s * (1.0 - rho):
            break
        if n > MAX_SERIES_TERMS:
            raise ConvergenceError("Kummer series term cap exceeded")
    return shift, s


def _ligamma_cf_log(a: float, x: float) -> float:
    # Lentz continued fraction for Q(a,x); gamma = Gamma(a) (1 - Q)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, MAX_SERIES_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise ConvergenceError("incomplete gamma continued fraction cap exceeded")
    lg = log_gamma(a)
    log_q = -x + a * math.log(x) - lg + math.log(h)
    return lg + math.log1p(-math.exp(log_q))


def lower_incomplete_gamma_log(a: float, x: float) -> float:
    """ln gamma(a, x); -inf at x = 0."""
    _require_finite("lower incomplete gamma", a, x)
    if not a > 0.0:
        raise DomainError(f"lower incomplete gamma requires a > 0, got a={a}")
    if x < 0.0:
        raise DomainError(f"lower incomplete gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return -math.inf
    if x < a + 1.0:  # gamma(a, x) = x^a e^-x S(a, x) (DLMF 8.7.1)
        if a < 1e-300:
            # S's first term 1/a would overflow: S(a, x) = (1 + x S(a+1, x)) / a
            # (DLMF 8.8.1), and S(a+1, x) < e at x < 1, so its shift is 0
            _, s = _kummer_sum(a + 1.0, x)
            return a * math.log(x) - x + math.log1p(x * s) - math.log(a)
        shift, s = _kummer_sum(a, x)
        return a * math.log(x) - x + math.log(s) + shift
    return _ligamma_cf_log(a, x)


def lower_incomplete_gamma(a: float, x: float) -> float:
    """gamma(a, x) = integral_0^x exp(-t) t^(a-1) dt."""
    return math.exp(lower_incomplete_gamma_log(a, x))


def _is_nonpositive_integer(b: float) -> bool:
    return b <= 0.0 and b == math.floor(b)


def pfq(
    upper: tuple[float, ...] | list[float],
    lower: tuple[float, ...] | list[float],
    x: float,
    tol: float = 1e-15,
) -> SeriesResult:
    """Generalized hypergeometric pFq by direct term-recurrence summation.

    Requires p <= q+1, no nonpositive-integer lower parameter, |x| < 1 when
    p = q+1, and a finite tol > 0.  Raises ConvergenceError if the term
    ratio has not fallen below 1 within the term cap.
    """
    up = tuple(float(a) for a in upper)
    lo = tuple(float(b) for b in lower)
    _require_finite("pFq", x, *up, *lo)
    if not 0.0 < tol < math.inf:
        raise DomainError(f"pFq requires a finite tol > 0, got tol={tol}")
    if len(up) > len(lo) + 1:
        raise DomainError(f"pFq requires p <= q+1, got p={len(up)}, q={len(lo)}")
    for b in lo:
        if _is_nonpositive_integer(b):
            raise DomainError(f"lower parameter {b} is a nonpositive integer")
    if len(up) == len(lo) + 1 and abs(x) >= 1.0:
        raise DomainError("p = q+1 series requires |x| < 1")
    if x == 0.0:
        return SeriesResult(ScaledReal.one(), 1, 0.0)

    term = 1.0
    s = 1.0
    shift = 0.0
    small_streak = 0
    k = 0
    while True:
        r = x / (k + 1.0)
        for a in up:
            r *= a + k
        for b in lo:
            r /= b + k
        term *= r
        s += term
        k += 1
        if abs(s) > _EXP30:
            shift += 30.0
            term /= _EXP30
            s /= _EXP30
        if abs(term) < tol * abs(s) and abs(r) < 1.0:
            small_streak += 1
            if small_streak >= 2:
                tail = abs(term) * abs(r) / (1.0 - abs(r)) / abs(s)
                value = ScaledReal.from_log(
                    math.log(abs(s)) + shift, math.copysign(1.0, s)
                )
                return SeriesResult(value, k + 1, tail)
        else:
            small_streak = 0
        if k > MAX_SERIES_TERMS:
            raise ConvergenceError(
                f"pFq did not converge within {MAX_SERIES_TERMS} terms"
            )


def _ascending_series(q: float, offset_a: float, offset_b: float) -> tuple[float, float]:
    """(shift, s) with s e^shift = sum_k prod_{j<k} q / ((j+offset_a)(j+offset_b)).

    Shared engine for the Struve L and Bessel I series: all terms positive,
    term ratio q / ((k+offset_a)(k+offset_b)).  The shift is a whole multiple
    of 30.
    """
    term = 1.0
    s = 1.0
    shift = 0.0
    k = 0
    while True:
        r = q / ((k + offset_a) * (k + offset_b))
        term *= r
        s += term
        k += 1
        if s > _EXP30:
            shift += 30.0
            s /= _EXP30
            term /= _EXP30
        if r < 1.0 and term < 1e-16 * s:
            break
        if k > MAX_SERIES_TERMS:
            raise ConvergenceError("series term cap exceeded")
    return shift, s


def _check_struve_args(nu: float, x: float) -> None:
    if -1.5 < nu < math.inf and 0.0 <= x < math.inf:  # valid: one comparison chain
        return
    _require_finite("Struve L", nu, x)
    if not nu > -1.5:
        raise DomainError(f"Struve L requires nu > -3/2, got nu={nu}")
    if x < 0.0:
        raise DomainError(f"Struve L requires x >= 0, got x={x}")


@lru_cache(maxsize=1 << 17)
def _struve_l_raw(nu: float, x: float) -> float:
    """ln L_nu(x); -inf where L_nu(x) = 0."""
    if x == 0.0:
        if nu > -1.0:
            return -math.inf
        raise DomainError(f"L_nu(0) diverges for nu <= -1 (nu={nu})")
    log_half = math.log(0.5 * x) if x >= _TWO_MIN_NORMAL else math.log(x) - _LN2
    log_t0 = (nu + 1.0) * log_half - _LN_GAMMA_3_2 - log_gamma(nu + 1.5)
    shift, s = _ascending_series(0.25 * x * x, 1.5, nu + 1.5)
    return log_t0 + shift + math.log(s)


# One downward step multiplies the ladder's mantissas by at most
# 1 + (2 mu + 1)/x; the e^30 rescale keeps them in range while that stays
# below e^30 = 1.07e13.
_LADDER_STEP_MAX = 1e12


@lru_cache(maxsize=1 << 10)
def _struve_ladder_log(nu: float, x: float, n: int) -> tuple[float, ...]:
    """ln(exp(-x) L_{nu+k+1}(x)) for k = 0..n-1; nu > -1, x > 0, n >= 2.

    The two top orders come from their series; the others run down by DLMF
    11.4.25, L_{mu-1} = L_{mu+1} + (2 mu/x) L_mu + (x/2)^mu / (sqrt(pi)
    Gamma(mu+3/2)), whose terms are all positive for mu > 0, so nothing
    cancels.  The start needs the two series sums alone, each over its
    first term: the first terms of consecutive orders differ by the factor
    (x/2)/(mu+3/2), and the inhomogeneous term over L_mu is 1/(x s_mu),
    since Gamma(3/2) = sqrt(pi)/2.  The values are carried as mantissas
    with a running e^30 shift, and the ladder is pinned to the series of
    its lowest order, summed in the scaled form: no log of a large Gamma or
    of e^x is rounded on the way.  Where x is so small that one step could
    outgrow the shift, each order comes from its own series, a term or two
    long there.
    """
    if 2.0 * (nu + n) + 2.0 > _LADDER_STEP_MAX * x:
        return tuple(_struve_l_raw(nu + k + 1.0, x) - x for k in range(n))
    q = 0.25 * x * x
    mu = nu + n - 1.0
    top_shift, top_s = _ascending_series(q, 1.5, mu + 2.5)
    mu_shift, mu_s = _ascending_series(q, 1.5, mu + 1.5)
    hi = 0.5 * x / (mu + 1.5) * (top_s / mu_s) * math.exp(top_shift - mu_shift)
    lo = 1.0  # values in units of L_mu: hi = L_{mu+1}, lo = L_mu
    # the inhomogeneous term at mu; one step down multiplies it by (2mu+1)/x
    t = math.exp(-mu_shift) / (x * mu_s)
    shift = 0.0
    logs = [0.0] * n  # ln of each mantissa, beside its shift
    shifts = [0.0] * n
    logs[n - 1] = math.log(hi)
    for k in range(n - 3, -1, -1):  # order nu + k + 1 from mu = nu + k + 2
        mu = nu + k + 2.0
        hi, lo = lo, hi + (2.0 * mu / x) * lo + t
        t *= (2.0 * mu + 1.0) / x
        if lo > _EXP30:
            shift += 30.0
            hi /= _EXP30
            lo /= _EXP30
            t /= _EXP30
        logs[k] = math.log(lo)
        shifts[k] = shift
    low_shift, low_s = _ascending_series(q, 1.5, nu + 2.5)
    lead = (  # x >= 4e-12 here, so x/2 is normal
        (nu + 2.0) * math.log(0.5 * x) - _LN_GAMMA_3_2 - log_gamma(nu + 2.5)
    ) + ((low_shift - x) + math.log(low_s))
    # the shifts are whole multiples of 30, so their differences are exact
    return tuple(lead + ((s - shift) + (v - logs[0])) for s, v in zip(shifts, logs))


def _large_x_log(nu: float, x: float, struve: bool):
    """``large_x.kernel_log`` past x = 100, else None.  ``large_x`` is
    imported at the first call past x = 100, so that ``import struveint``
    does not compile it."""
    if x > _LARGE_X:
        from . import large_x

        return large_x.kernel_log(nu, x, struve)
    return None


def struve_l(nu: float, x: float) -> float:
    """Modified Struve function L_nu(x), nu > -3/2, x >= 0.

    Raises OverflowError when the value exceeds double range (x beyond about
    690); use struve_l_scaled there.
    """
    _check_struve_args(nu, x)
    log = _large_x_log(nu, x, True)
    return ScaledReal.from_log(_struve_l_raw(nu, x) if log is None else log + x).to_float()


def struve_l_scaled_log(nu: float, x: float) -> float:
    """ln(exp(-x) * L_nu(x)); -inf at x = 0.

    Past x = 100 with nu^2 <= x and nu > -1 it is summed from the large-x
    expansion with its remainder proven below 1e-16 (``large_x``): against
    40-digit mpmath for x from 150 to 1e6 its error is a few ulp of the log.
    Elsewhere it is the series, whose log's absolute error is at least
    ulp(|ln L_nu(x)|): 1e-13 at x = 1000, and |log| grows like nu ln nu,
    up to 5.8e-10 at nu = 1e6 and 2.9e-7 to 5.5e-7 at nu = 1e8 (x = 0.5, 50,
    1000).
    """
    if -1.5 < nu < _INF and 0.0 <= x <= _LARGE_X:  # valid, at most 100: the series
        return _struve_l_raw(nu, x) - x
    _check_struve_args(nu, x)
    log = _large_x_log(nu, x, True)
    return _struve_l_raw(nu, x) - x if log is None else log


def struve_l_scaled(nu: float, x: float) -> ScaledReal:
    """exp(-x) * L_nu(x) as a ScaledReal."""
    return ScaledReal.from_log(struve_l_scaled_log(nu, x))


@lru_cache(maxsize=1 << 17)
def _bessel_i_raw(nu: float, x: float) -> float:
    """ln I_nu(x); -inf where I_nu(x) = 0."""
    if nu < 0.0 and nu == math.floor(nu):
        nu = -nu  # integer order: I_{-n} = I_n
    if x == 0.0:
        if nu == 0.0:
            return 0.0
        if nu > 0.0:
            return -math.inf
        raise DomainError(f"I_nu(0) diverges for negative non-integer nu={nu}")
    log_half = math.log(0.5 * x) if x >= _TWO_MIN_NORMAL else math.log(x) - _LN2
    log_t0 = nu * log_half - log_gamma(nu + 1.0)
    shift, s = _ascending_series(0.25 * x * x, 1.0, nu + 1.0)
    return log_t0 + shift + math.log(s)


def _check_bessel_i_args(nu: float, x: float) -> None:
    _require_finite("Bessel I", nu, x)
    if nu < -1.0 and nu != math.floor(nu):
        raise DomainError(f"Bessel I supported for nu >= -1 or integer nu, got {nu}")
    if x < 0.0:
        raise DomainError(f"Bessel I requires x >= 0, got x={x}")


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x); positive for nu >= -1, x > 0."""
    _check_bessel_i_args(nu, x)
    log = _large_x_log(nu, x, False)
    return ScaledReal.from_log(_bessel_i_raw(nu, x) if log is None else log + x).to_float()


def bessel_i_scaled_log(nu: float, x: float) -> float:
    """ln(exp(-x) * I_nu(x)); -inf where I_nu(x) = 0.

    Past x = 100 with nu^2 <= x it is summed from the large-x expansion with
    its remainder proven below 1e-16 (``large_x``): against 40-digit mpmath
    for x from 150 to 1e6 its error is a few ulp of the log.  Elsewhere it
    is the series, whose log's absolute error is at least ulp(|ln I_nu(x)|):
    1e-13 at x = 1000, and |log| grows like nu ln nu, up to 1.5e-9 at nu =
    1e6 and 1.4e-7 to 3.2e-7 at nu = 1e8 (x = 0.5, 50, 1000).
    """
    if -1.0 <= nu < _INF and 0.0 <= x <= _LARGE_X:  # valid, at most 100: the series
        return _bessel_i_raw(nu, x) - x
    _check_bessel_i_args(nu, x)  # integer nu < -1 passes it too
    log = _large_x_log(nu, x, False)
    return _bessel_i_raw(nu, x) - x if log is None else log


def bessel_i_scaled(nu: float, x: float) -> ScaledReal:
    """exp(-x) * I_nu(x) as a ScaledReal."""
    return ScaledReal.from_log(bessel_i_scaled_log(nu, x))


def _bessel_k_temme(mu: float, x: float) -> tuple[float, float]:
    """(ln(exp(x) K_mu(x)), K_{mu+1}(x) / K_mu(x)) for |mu| <= 1/2,
    0 < x < 2, by Temme's series (Temme 1975; Numerical Recipes 6.7)."""
    mu2 = mu * mu
    # gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) and
    # gam2 = (1/Gamma(1-mu) + 1/Gamma(1+mu)) / 2 as Taylor polynomials in mu,
    # so mu -> 0 loses no digits
    gam1 = 0.0
    for c in _TEMME_GAM1:
        gam1 = gam1 * mu2 + c
    gam2 = 0.0
    for c in _TEMME_GAM2:
        gam2 = gam2 * mu2 + c
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if pimu != 0.0 else 1.0
    d = _LN2 - math.log(x)  # -ln(x/2); x/2 underflows at the least subnormal
    e = mu * d
    fact2 = math.sinh(e) / e if e != 0.0 else 1.0
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    e = math.exp(e)
    p = 0.5 * e / (gam2 - mu * gam1)  # 1 / Gamma(1 + mu)
    q = 0.5 / (e * (gam2 + mu * gam1))  # 1 / Gamma(1 - mu)
    s = ff
    s1 = p
    c = 1.0
    z = 0.25 * x * x
    for i in range(1, MAX_SERIES_TERMS):
        ff = (i * ff + p + q) / (i * i - mu2)
        c *= z / i
        p /= i - mu
        q /= i + mu
        term = c * ff
        term1 = c * (p - i * ff)
        s += term
        s1 += term1
        if abs(term) < 1e-16 * abs(s) and abs(term1) < 1e-16 * abs(s1):
            break
    else:
        raise ConvergenceError("Bessel K Temme series cap exceeded")
    return math.log(s) + x, s1 / s * (2.0 / x)


def _bessel_k_steed(mu: float, x: float) -> tuple[float, float]:
    """(ln(exp(x) K_mu(x)), K_{mu+1}(x) / K_mu(x)) for |mu| <= 1/2, x >= 2,
    by Steed's evaluation of Temme's continued fraction CF2 (Temme 1975;
    Numerical Recipes 6.7)."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, MAX_SERIES_TERMS):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < 1e-16 * s:
            break
    else:
        raise ConvergenceError("Bessel K continued fraction cap exceeded")
    log_k = 0.5 * math.log(0.5 * math.pi / x) - math.log(s)
    return log_k, (mu + x + 0.5 - a1 * h) / x


@lru_cache(maxsize=1 << 17)
def _bessel_k_base(mu: float, x: float) -> tuple[float, float]:
    """(ln(exp(x) K_mu(x)), K_{mu+1}(x) / K_mu(x)) for |mu| <= 1/2: Temme's
    series for x < 2, Steed's CF2 otherwise.

    Cached apart from the order recurrence: the orders nu, nu+1, nu+2, ...
    at one x share their base mu, and each climbs from the same pair.
    """
    return (_bessel_k_temme if x < 2.0 else _bessel_k_steed)(mu, x)


@lru_cache(maxsize=1 << 17)
def _bessel_k_scaled_log(nu: float, x: float) -> float:
    """ln(exp(x) K_nu(x)) by Temme's series (x < 2) or Steed's CF2 (x >= 2)
    at the order mu = |nu| - n, |mu| <= 1/2, then n steps of
    K_{m+1} = K_{m-1} + (2m/x) K_m (DLMF 10.29.1) upward, the stable
    direction for the dominant solution K.  The recurrence carries the ratio
    K_{m+1}/K_m and multiplies the ratios into a mantissa and a binary
    exponent (math.frexp rescales exactly), so no intermediate K overflows
    and no running log sum rounds at the magnitude of ln K.
    """
    nu = abs(nu)
    n = int(nu + 0.5)
    if n > MAX_SERIES_TERMS:
        raise ConvergenceError("Bessel K order recurrence cap exceeded")
    mu = nu - n
    log_k, ratio = _bessel_k_base(mu, x)
    m = 1.0  # K_{mu+n}/K_mu = m * 2**e
    e = 0
    two_over_x = 2.0 / x
    for i in range(1, n + 1):
        m, step = math.frexp(m * ratio)
        e += step
        ratio = 1.0 / ratio + (mu + i) * two_over_x
    if not math.isfinite(m):  # 2/x itself overflows: subnormal x
        raise OverflowError(f"Bessel K recurrence overflows at x={x}")
    return log_k + (math.log(m) + e * _LN2)


def _check_bessel_k_args(nu: float, x: float) -> None:
    # called only where bessel_k_scaled_log's comparison chain fails
    _require_finite("Bessel K", nu, x)
    if not x > 0.0:
        raise DomainError(f"Bessel K requires x > 0, got x={x}")


def bessel_k_scaled_log(nu: float, x: float) -> float:
    """ln(exp(x) * K_nu(x)), x > 0 (even in nu).

    The log's absolute error is at least ulp(|log|), and |log| grows like
    nu ln nu: against 40-digit mpmath (x = 0.5, 50, 1000) it is up to 5.4e-12
    at nu = 1e4; from |nu| = 40,000.5 the order recurrence raises
    ConvergenceError.
    """
    if not (-_INF < nu < _INF and 0.0 < x < _INF):  # valid: one comparison chain
        _check_bessel_k_args(nu, x)
    return _bessel_k_scaled_log(nu, x)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function K_nu(x), x > 0 (even in nu)."""
    return ScaledReal.from_log(bessel_k_scaled_log(nu, x) - x).to_float()


def bessel_k_scaled(nu: float, x: float) -> ScaledReal:
    """exp(x) * K_nu(x) as a ScaledReal."""
    return ScaledReal.from_log(bessel_k_scaled_log(nu, x))
