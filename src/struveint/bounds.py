r"""Catalog of the inequalities for F(nu, beta, x) = int_0^x e^{-bt} t^nu L_nu dt
and the related ratio/product/monotonicity bounds, each with its validity
predicate, an evaluator for the bound side, and margin computation against an
independently computed reference.

Identifiers (28 entries; ``get_bound(id).hypothesis`` states where each holds):

================  =========================================================
LB-2.1/2.2/2.3    lower bounds for F (LB-2.3 is the geometric Struve sum)
LB-2.6            lower bound for F: LB-2.2 with 2nu+27 in place of 2nu
LB-PRIOR          the earlier single-term lower bound e^{-bx} x^nu L_{nu+1}
UB-2.4/2.5        upper bounds for F with constants 2nu+29 and 2nu+15
UB-GAU1(-FULL)    earlier upper bounds for F
UB-GAU2           e^{-bx} x^nu L_nu / (1-b)
UB-ANU            combined constant A_nu = 2(nu+1) or 2nu+29
UB-3.8            M_{nu,b}(x*) e^{-bx} x^nu L_{nu+1}, x >= x* > 1/(1-b)
PB-2.7/2.8/2.9    the same right sides bounding G (integrand t^nu L_{nu+1})
RB-3.1            L_nu/L_{nu-1} > x/(2nu+1+x)
RB-AUG18          L_nu/L_{nu-1} > (I_{nu-1}/I_nu + 1/x)^{-1}
RB-NASELL         I_nu/I_{nu-1} > x/(2nu+x)
RB-SEGURA         K_nu/K_{nu-1} < (nu-1/2+sqrt((nu-1/2)^2+x^2))/x < 1+(2nu-1)/x
PRB-KL1           1/2 < x K_{nu+2} L_nu < 2 Gamma(nu+2)/(sqrt(pi) Gamma(nu+3/2))
PRB-KL0           x K_{nu+1} L_nu < 1
PRB-KL2           x K_{nu+3} L_nu < (2 G(nu+2)/(sqrt(pi) G(nu+3/2)))(1+(2nu+5)/x)
PRB-G1/G2/G3      x K_{nu+2} L_nu < 3/2;  x K_{nu+3} L_nu < 3/2 + 9/x;
                  x K_{nu+3} L_{nu+1} < 15/8
NB-3.10/3.11      e^{bx} K_{nu+s}(x) x^{1-nu} F < C/((2nu+1)(1-b)), C = 14, 7
IMON              L_nu < L_{nu-1}
================  =========================================================

Each bound is declared once, as one ``_row`` of ``_CATALOG``: identifier,
side, target, nu interval (lo, lo closed?, hi, hi closed?), evaluator,
reference and tight limits.  The hypothesis text and the validity predicate
are both generated from that interval, so they cannot disagree.  They add
0 < beta < 1 where the target depends on beta (F, G, the K-weighted
integral), then x > 0; UB-3.8 alone adds its x_star clauses.  Fifteen
rows build their evaluator from one of four shared forms and state the
paper's constant in the row; the rest have their own ``_eval_*``.

Margins are reported in relative units (signed difference over the
reference).  Strictness is asserted with zero slack, but a margin whose
magnitude is below 10x the reference accuracy is classified "inconclusive"
rather than "violated" so roundoff can never manufacture a violation.

The catalog is immutable after import; evaluation and checking are pure, so
grid sweeps may run concurrently with deterministic results.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .errors import ConvergenceError, DomainError, ValidityError
from .integrals import fg_log
from .scaled import _LN_MAX, ScaledReal
from .specfun import (
    _INF,
    _LN2,
    _LN_SQRT_PI,
    _require_finite,
    _struve_ladder_log,
    bessel_i_scaled_log,
    bessel_k_scaled_log,
    log_gamma,
    lower_incomplete_gamma_log,
    struve_l_scaled_log,
)

__all__ = [
    "Side",
    "Target",
    "BoundSpec",
    "Margin",
    "ProductAsymptote",
    "list_bounds",
    "get_bound",
    "eval_bound",
    "check",
    "margin_status",
    "m_factor",
    "a_factor",
    "default_x_star",
    "product_asymptote",
    "REFERENCE_ACCURACY",
    "INCONCLUSIVE_BAND",
]

REFERENCE_ACCURACY = 1e-9
# margins smaller than 10x the reference accuracy are not trusted either way
INCONCLUSIVE_BAND = 10.0 * REFERENCE_ACCURACY

_LB23_TAIL_REL = 1e-12
_LB23_TERM_CAP = 5_000


class Side(str, Enum):
    LOWER = "lower"
    UPPER = "upper"
    TWO_SIDED = "two-sided"


class Target(str, Enum):
    F_INTEGRAL = "F-integral"
    G_INTEGRAL = "G-integral"
    STRUVE_RATIO = "Struve-ratio"
    BESSELI_RATIO = "BesselI-ratio"
    BESSELK_RATIO = "BesselK-ratio"
    KL_PRODUCT = "KL-product"
    K_WEIGHTED_INTEGRAL = "K-weighted-integral"


class BoundSpec(NamedTuple):
    """One catalog entry.  ``validity(nu, beta, x, x_star)`` is None where the
    hypothesis holds, else the failed clause; ``evaluate(nu, beta, x, x_star,
    truncation)`` and ``reference(nu, beta, x)`` assume it holds.  A named
    tuple: ``spec._replace(...)`` makes a changed copy, and equality and the
    repr take in every field, ``evaluate`` and ``reference`` too."""

    bound_id: str
    side: Side
    target: Target
    hypothesis: str
    validity: Callable[[float, Optional[float], float, Optional[float]], Optional[str]]
    uses_beta: bool
    uses_x_star: bool = False
    tight_limits: tuple[str, ...] = ()
    evaluate: Optional[Callable] = None
    reference: Optional[Callable] = None


class Margin(NamedTuple):
    """Bound value against reference, with relative signed slack.

    signed_margin is (reference - bound)/reference for lower bounds and
    (bound - reference)/reference for upper bounds; for two-sided bounds it
    is the binding (smaller) of the two sides, with bound_value the binding
    side's value.  A named tuple, since check builds one per sweep row.
    """

    bound_value: ScaledReal
    reference_value: ScaledReal
    signed_margin: float
    strict: bool


# builds a named tuple without its generated __new__ frame: check makes one
# Margin per sweep row
_tuple_new = tuple.__new__
# module names for the per-row path (_valid_spec, check): a str Enum member
# is a class attribute lookup, a math function a module attribute load
_TWO_SIDED = Side.TWO_SIDED
_LOWER = Side.LOWER
_log = math.log
_exp = math.exp


class ProductAsymptote(NamedTuple):
    """Limiting coefficients of x K_{nu+1}(x) L_nu(x).

    kind == "small_x": the product behaves like slope * x as x -> 0.
    kind == "large_x": the product behaves like limit + first_order / x.
    """

    kind: str
    slope: float | None = None
    limit: float | None = None
    first_order: float | None = None


def margin_status(margin: Margin) -> str:
    """Classify a margin as strict / inconclusive / violated."""
    if abs(margin.signed_margin) < INCONCLUSIVE_BAND:
        return "inconclusive"
    return "strict" if margin.signed_margin > 0.0 else "violated"


# ---------------------------------------------------------------------------
# standalone factor operations
# ---------------------------------------------------------------------------


def m_factor(nu: float, beta: float, x_star: float) -> float:
    """max{(2 nu + 3 + 2 x*)/(2 nu + 1), x*/((1 - beta) x* - 1)}."""
    _require_finite("m_factor", nu, beta, x_star)
    if not nu > -0.5:
        raise DomainError(f"m_factor requires nu > -1/2, got {nu}")
    if not 0.0 < beta < 1.0:
        raise DomainError(f"m_factor requires 0 < beta < 1, got {beta}")
    if not x_star > 1.0 / (1.0 - beta):
        raise DomainError(
            f"m_factor requires x_star > 1/(1-beta) = {1.0 / (1.0 - beta)}, got {x_star}"
        )
    first = (2.0 * nu + 3.0 + 2.0 * x_star) / (2.0 * nu + 1.0)
    second = x_star / ((1.0 - beta) * x_star - 1.0)
    return max(first, second)


def a_factor(nu: float) -> float:
    """2(nu+1) for nu >= 1/2, else 2 nu + 29 (valid for nu > -1/2)."""
    _require_finite("a_factor", nu)
    if not nu > -0.5:
        raise DomainError(f"a_factor requires nu > -1/2, got {nu}")
    return 2.0 * (nu + 1.0) if nu >= 0.5 else 2.0 * nu + 29.0


def default_x_star(beta: float) -> float:
    """Default free parameter for UB-3.8: twice the pole location."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"default_x_star requires 0 < beta < 1, got {beta}")
    return 2.0 / (1.0 - beta)


# ln(Gamma(z) / Gamma(z + 1/2)) + (ln z) / 2 ~ sum_j c_j z^(1 - 2j), the
# c_j = (B_{k+1}(0) - B_{k+1}(1/2)) / (k (k+1)) at k = 2j - 1 (DLMF 5.11.8,
# the log of 5.11.13): the first omitted term is below 2.3e-16 from z = 16 on,
# where the lnGamma difference already loses 1e-15 to cancellation
_HALF_RATIO_SERIES = (1.0 / 8.0, -1.0 / 192.0, 1.0 / 640.0, -17.0 / 14336.0, 31.0 / 18432.0)
_HALF_RATIO_SERIES_NU = 15.0


def _log_gamma_half_ratio(nu: float) -> float:
    """ln(Gamma(nu + 1) / Gamma(nu + 3/2)) for nu > -1, without cancelling
    two lnGamma of size nu ln nu at large nu."""
    if nu < _HALF_RATIO_SERIES_NU:
        return log_gamma(nu + 1.0) - log_gamma(nu + 1.5)
    z = nu + 1.0
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_HALF_RATIO_SERIES):
        series = series * w + c
    return series / z - 0.5 * math.log(z)


def product_asymptote(kind: str, nu: float) -> ProductAsymptote:
    """Limiting coefficients of x K_{nu+1}(x) L_nu(x) for nu > -1/2."""
    _require_finite("product_asymptote", nu)
    if not nu > -0.5:
        raise DomainError(f"product_asymptote requires nu > -1/2, got {nu}")
    if kind == "small_x":
        slope = math.exp(_log_gamma_half_ratio(nu) - _LN_SQRT_PI)
        return ProductAsymptote(kind="small_x", slope=slope)
    if kind == "large_x":
        return ProductAsymptote(
            kind="large_x", limit=0.5, first_order=(2.0 * nu + 1.0) / 4.0
        )
    raise DomainError(f"kind must be 'small_x' or 'large_x', got {kind!r}")


# ---------------------------------------------------------------------------
# shared building blocks
#
# An evaluator returns ln b for a bound b > 0.  _lower_combination, the one
# that subtracts, returns a _Signed(ln|b|, sign), and PRB-KL1 and RB-SEGURA
# return a pair of logs.  check takes the ratio to the reference from the
# logs, and check and eval_bound build the ScaledReal.  The logs of the
# scaled kernels (e^{-x} L, e^{+x} K) stay small, so the large part
# (1-beta) x + nu ln x is added last and rounded once, at ulp(x) ~ 1e-13 for
# x = 1000.
#
# Most rows take one of four forms, each filled in with the paper's constant
# in the row: c e^{-bx} x^nu L_{nu+s} (_times_struve), a numerator over
# (2nu+1)(1-b) with or without that Struve factor (_over_2nu1), a constant
# (_constant) and ln(x/(2nu+c+x)) (_x_over).
# ---------------------------------------------------------------------------


class _Signed(tuple):
    """(ln|b|, sign of b) for a bound b that may be negative; sign 0 for b = 0."""

    __slots__ = ()


def _weighted_struve(
    nu: float, beta: float, x: float, shift: float, factor: float = 1.0
) -> float:
    """ln(factor e^{-beta x} x^nu L_{nu+shift}(x)) for a factor > 0."""
    small = math.log(factor) + struve_l_scaled_log(nu + shift, x)
    return (1.0 - beta) * x + nu * math.log(x) + small


def _times_struve(shift: float, coefficient):
    """The evaluator of c e^{-bx} x^nu L_{nu+shift}, c = coefficient(nu, beta, x_star)."""

    def evaluate(nu, beta, x, x_star, truncation):
        return _weighted_struve(nu, beta, x, shift, coefficient(nu, beta, x_star))

    return evaluate


def _over_2nu1(numerator, shift: float | None = None):
    """The evaluator of c = numerator(nu)/((2nu+1)(1-b)), times
    e^{-bx} x^nu L_{nu+shift} unless shift is None."""

    def evaluate(nu, beta, x, x_star, truncation):
        c = numerator(nu) / ((2.0 * nu + 1.0) * (1.0 - beta))
        return math.log(c) if shift is None else _weighted_struve(nu, beta, x, shift, c)

    return evaluate


def _constant(c: float):
    """The evaluator of the constant c > 0."""
    log_c = math.log(c)
    return lambda nu, beta, x, x_star, truncation: log_c


def _x_over(c: float):
    """The evaluator of x/(2nu+c+x)."""
    return lambda nu, beta, x, x_star, truncation: math.log(x) - math.log(2.0 * nu + c + x)


@lru_cache(maxsize=1 << 16)
def _gamma_term_log(nu: float, beta: float, x: float) -> float:
    """ln(gamma(2nu+1, beta x) / (sqrt(pi) 2^nu beta^{2nu+1} Gamma(nu+3/2))).

    Cached: LB-2.1/2.2/2.6 and PB-2.7/2.8/2.9 share their (nu, beta, x)
    points.
    """
    return (
        lower_incomplete_gamma_log(2.0 * nu + 1.0, beta * x)
        - _LN_SQRT_PI
        - nu * _LN2
        - (2.0 * nu + 1.0) * math.log(beta)
        - log_gamma(nu + 1.5)
    )


def _struve_sum_log(nu: float, beta: float, x: float, truncation: int | None) -> float:
    """ln(e^{-x} sum_k beta^k L_{nu+k+1}(x)).

    With ``truncation`` = K the sum takes exactly the first K terms
    (k = 0..K-1), each order from its series; K is capped at the adaptive
    sum's _LB23_TERM_CAP.  Otherwise terms are added until the geometric
    tail bound beta^k L_{nu+k+1}(x)/(1-beta) falls below 1e-12 of the
    partial sum; the bound is valid because L decreases in the order along
    the summed terms (orders nu+k+2 >= 1/2 for every k >= 0 once nu > -1).
    For the same reason the first term is the largest, so the sum is
    carried as a plain float in units of it.  The adaptive sum reads the
    orders from one downward ladder of n = 16, 32, ... orders.
    """
    total = 1.0
    if truncation is not None:
        try:
            if isinstance(truncation, bool):  # operator.index(True) is 1
                raise TypeError
            truncation = operator.index(truncation)
        except TypeError:
            raise DomainError(f"truncation must be an integer, got {truncation}") from None
        if not truncation >= 1:
            raise DomainError(f"truncation must be >= 1, got {truncation}")
        if not truncation <= _LB23_TERM_CAP:
            raise DomainError(f"truncation must be <= {_LB23_TERM_CAP}, got {truncation}")
        lead = struve_l_scaled_log(nu + 1.0, x)
        for k in range(1, truncation):
            total += beta**k * math.exp(struve_l_scaled_log(nu + k + 1.0, x) - lead)
        return lead + math.log(total)
    tail_rel = _LB23_TAIL_REL * (1.0 - beta) / beta
    n = 16
    ladder = _struve_ladder_log(nu, x, n)  # ln(e^{-x} L_{nu+k+1}), k < n
    lead = ladder[0]
    term = 1.0
    k = 0
    while term >= tail_rel * total:  # beta term / (1 - beta) >= 1e-12 total
        k += 1
        if k > _LB23_TERM_CAP:
            raise ConvergenceError("LB-2.3 term cap exceeded")
        if k == n:
            n *= 2
            ladder = _struve_ladder_log(nu, x, n)
        term = beta**k * math.exp(ladder[k] - lead)
        total += term
    return lead + math.log(total)


def _lower_combination(nu: float, beta: float, x: float, coefficient: float) -> _Signed:
    """(coefficient * e^{-bx} x^nu L_nu(x) - gamma term) / (1 - beta), in
    units of the larger of the two terms."""
    main = _weighted_struve(nu, beta, x, 0.0)
    gamma = _gamma_term_log(nu, beta, x)
    top = max(main, gamma)
    total = coefficient * math.exp(main - top) - math.exp(gamma - top)
    if total == 0.0:
        return _Signed((-math.inf, 0.0))
    return _Signed((top - math.log1p(-beta) + math.log(abs(total)), math.copysign(1.0, total)))


def _kl_upper_const_log(nu: float) -> float:
    """ln(2 Gamma(nu+2) / (sqrt(pi) Gamma(nu+3/2))) as ln(nu+1) plus
    ``_log_gamma_half_ratio``, since Gamma(nu+2) = (nu+1) Gamma(nu+1)."""
    return _LN2 + math.log1p(nu) + _log_gamma_half_ratio(nu) - _LN_SQRT_PI


# ---------------------------------------------------------------------------
# per-bound evaluators
# ---------------------------------------------------------------------------


def _eval_lb21(nu, beta, x, x_star, truncation):
    return _lower_combination(nu, beta, x, 1.0)


def _lb_denominator(names: str, nu: float, beta: float, x: float) -> float:
    """(2nu-1)(1-beta)x under the 1/x penalties of LB-2.2 and LB-2.6;
    OverflowError where it underflows to 0 (subnormal x)."""
    d = (2.0 * nu - 1.0) * (1.0 - beta) * x
    if d == 0.0:
        raise OverflowError(f"{names}: 1/((2nu-1)(1-beta)x) exceeds double range at x={x!r}")
    return d


def _eval_lb22(nu, beta, x, x_star, truncation):
    coeff = 1.0 - 4.0 * nu * nu / _lb_denominator("LB-2.2/PB-2.8", nu, beta, x)
    return _lower_combination(nu, beta, x, coeff)


def _eval_lb23(nu, beta, x, x_star, truncation):
    return (1.0 - beta) * x + nu * math.log(x) + _struve_sum_log(nu, beta, x, truncation)


def _eval_lb26(nu, beta, x, x_star, truncation):
    coeff = 1.0 - 2.0 * nu * (2.0 * nu + 27.0) / _lb_denominator("LB-2.6/PB-2.9", nu, beta, x)
    return _lower_combination(nu, beta, x, coeff)


def _eval_ub_gau1_full(nu, beta, x, x_star, truncation):
    # e^{-bx} x^nu (2(nu+1) L_{nu+1} - L_{nu+3} - x^{nu+2}/(sqrt(pi) 2^{nu+2}
    # (nu+1) Gamma(nu+5/2))) / ((2nu+1)(1-b)); each term in e^{-x} units
    log_x = math.log(x)
    large = (1.0 - beta) * x + nu * log_x
    c = -math.log((2.0 * nu + 1.0) * (1.0 - beta))
    power = (
        (nu + 2.0) * log_x
        - _LN_SQRT_PI
        - (nu + 2.0) * _LN2
        - math.log(nu + 1.0)
        - log_gamma(nu + 2.5)
        - x
    )
    # the first term is the largest: at least 3 L_{nu+3}, and 9 times the
    # power term by the first term of the series for L_{nu+1}; so the total
    # is at least 1 - 1/3 - 1/9 = 5/9 and its log is plain
    first = large + (c + math.log(2.0 * (nu + 1.0)) + struve_l_scaled_log(nu + 1.0, x))
    total = (
        1.0
        - math.exp(large + (c + struve_l_scaled_log(nu + 3.0, x)) - first)
        - math.exp(large + (c + power) - first)
    )
    return first + math.log(total)


def _log1p_ratio(a, x):
    """ln(1 + a/x), a, x > 0, through ln a - ln x only where a/x overflows."""
    t = a / x
    return math.log1p(t) if t < _INF else math.log(a) - math.log(x) + math.log1p(x / a)


def _eval_rb_aug18(nu, beta, x, x_star, truncation):
    # -ln(I_(nu-1)/I_nu + 1/x), through x I_(nu-1)/I_nu where the sum overflows
    d = bessel_i_scaled_log(nu - 1.0, x) - bessel_i_scaled_log(nu, x)
    total = math.exp(d) + 1.0 / x if d < _LN_MAX else _INF
    if total < _INF:
        return -math.log(total)
    log_x = math.log(x)
    return log_x - math.log1p(math.exp(d + log_x))


def _eval_rb_segura(nu, beta, x, x_star, truncation):
    half = nu - 0.5
    sharp = math.log(half + math.hypot(half, x)) - math.log(x)
    simple = _log1p_ratio(2.0 * nu - 1.0, x)
    return (sharp, simple)


def _eval_prb_kl1(nu, beta, x, x_star, truncation):
    return (-_LN2, _kl_upper_const_log(nu))


def _eval_prb_kl2(nu, beta, x, x_star, truncation):
    return _kl_upper_const_log(nu) + _log1p_ratio(2.0 * nu + 5.0, x)


def _eval_prb_g2(nu, beta, x, x_star, truncation):
    t = 9.0 / x  # ln(3/2 + 9/x) = ln(3/2) + ln(1 + 6/x)
    return math.log(1.5 + t) if t < _INF else math.log(1.5) + _log1p_ratio(6.0, x)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 16)
def _fg_reference_log(nu: float, beta: float, x: float) -> tuple[float, float]:
    # one engine pass gives (ln F, ln G); every G point is also an F point
    return fg_log(nu, beta, x)


@lru_cache(maxsize=1 << 16)
def _f_reference(nu: float, beta: float, x: float) -> ScaledReal:
    return ScaledReal.from_log(_fg_reference_log(nu, beta, x)[0])


@lru_cache(maxsize=1 << 16)
def _g_reference(nu: float, beta: float, x: float) -> ScaledReal:
    return ScaledReal.from_log(_fg_reference_log(nu, beta, x)[1])


def _order_ratio(kernel_log):
    # f_nu(x) / f_{nu-1}(x) for a scaled kernel; the scalings cancel
    def ref(nu, beta, x):
        return ScaledReal.from_log(kernel_log(nu, x) - kernel_log(nu - 1.0, x))

    return ref


def _kl_product(k_shift: float, l_shift: float):
    # x K_{nu+k_shift}(x) L_{nu+l_shift}(x); the e^{+-x} scalings cancel
    def ref(nu, beta, x):
        return ScaledReal.from_log(
            math.log(x)
            + bessel_k_scaled_log(nu + k_shift, x)
            + struve_l_scaled_log(nu + l_shift, x)
        )

    return ref


def _k_weighted(s: float):
    # e^{beta x} K_{nu+s}(x) x^{1-nu} F(nu, beta, x)
    def ref(nu, beta, x):
        f = _f_reference(nu, beta, x)
        return ScaledReal.from_log(
            (beta - 1.0) * x + (1.0 - nu) * math.log(x) + bessel_k_scaled_log(nu + s, x)
            + (math.log(f.mantissa) + f.exponent)
        )

    return ref


# ---------------------------------------------------------------------------
# the catalog: one row per bound
# ---------------------------------------------------------------------------

# the targets that depend on beta; the others are functions of (nu, x) alone
_BETA_TARGETS = (Target.F_INTEGRAL, Target.G_INTEGRAL, Target.K_WEIGHTED_INTEGRAL)


def _exact(v: float) -> str:
    n, d = v.as_integer_ratio()  # -0.5 -> "-1/2", as fractions.Fraction prints it
    return str(n) if d == 1 else f"{n}/{d}"


def _row(
    bound_id, side, target, nu_range, evaluate, reference, tight_limits=(), uses_x_star=False
) -> BoundSpec:
    """One catalog entry, its hypothesis text and validity predicate generated
    from ``nu_range`` = (lo, lo closed?, hi, hi closed?), hi = None if unbounded.
    The predicate reports the first failed clause: nu, beta, x, then x_star."""
    uses_beta = target in _BETA_TARGETS
    lo, lo_closed, hi, hi_closed = nu_range
    if hi is None:
        nu_text = f"nu {'>=' if lo_closed else '>'} {_exact(lo)}"
        hi, hi_closed = math.inf, True  # nu <= inf holds for every nu but nan
    else:
        nu_text = (
            f"{_exact(lo)} {'<=' if lo_closed else '<'} nu "
            f"{'<=' if hi_closed else '<'} {_exact(hi)}"
        )

    def validity(nu, beta, x, x_star):
        if not (
            (nu >= lo if lo_closed else nu > lo) and (nu <= hi if hi_closed else nu < hi)
        ):
            return f"requires {nu_text}, got nu={nu}"
        if uses_beta and (beta is None or not 0.0 < beta < 1.0):
            return f"requires 0 < beta < 1, got {beta}"
        if x is None or not x > 0.0:
            return f"requires x > 0, got {x}"
        if not uses_x_star:
            return None
        if x_star is None:
            return "requires x_star (default_x_star(beta) gives 2/(1-beta))"
        if not x_star > 1.0 / (1.0 - beta):
            return f"requires x_star > 1/(1-beta) = {1.0 / (1.0 - beta)}, got {x_star}"
        if not x >= x_star:
            return f"requires x >= x_star = {x_star}, got x={x}"
        return None

    rest = "0 < beta < 1, x > 0" if uses_beta else "x > 0 (beta unused)"
    if uses_x_star:
        rest = "0 < beta < 1, x_star > 1/(1-beta), x >= x_star"
    return BoundSpec(
        bound_id, side, target, f"{nu_text}, {rest}", validity, uses_beta, uses_x_star,
        tight_limits, evaluate, reference,
    )


_CATALOG: dict[str, BoundSpec] = {spec.bound_id: spec for spec in (
    # nu ranges are (lo, lo closed?, hi, hi closed?); hi = None is no upper end
    # F = int_0^x e^{-bt} t^nu L_nu dt
    _row("LB-2.1", Side.LOWER, Target.F_INTEGRAL, (-0.5, False, 0.0, True),
         _eval_lb21, _f_reference, ("x->inf",)),
    _row("LB-2.2", Side.LOWER, Target.F_INTEGRAL, (1.5, True, None, False),
         _eval_lb22, _f_reference, ("x->inf",)),
    _row("LB-2.3", Side.LOWER, Target.F_INTEGRAL, (-1.0, False, None, False),
         _eval_lb23, _f_reference, ("x->inf",)),
    _row("LB-2.6", Side.LOWER, Target.F_INTEGRAL, (0.5, False, None, False),
         _eval_lb26, _f_reference, ("x->inf",)),
    _row("LB-PRIOR", Side.LOWER, Target.F_INTEGRAL, (-0.5, False, None, False),
         _times_struve(1.0, lambda nu, beta, x_star: 1.0), _f_reference),
    _row("UB-2.4", Side.UPPER, Target.F_INTEGRAL, (-0.5, False, None, False),
         _over_2nu1(lambda nu: 2.0 * nu + 29.0, 1.0), _f_reference),
    _row("UB-2.5", Side.UPPER, Target.F_INTEGRAL, (-0.5, False, None, False),
         _over_2nu1(lambda nu: 2.0 * nu + 15.0, 0.0), _f_reference),
    _row("UB-GAU1", Side.UPPER, Target.F_INTEGRAL, (0.5, True, None, False),
         _over_2nu1(lambda nu: 2.0 * (nu + 1.0), 1.0), _f_reference),
    _row("UB-GAU1-FULL", Side.UPPER, Target.F_INTEGRAL, (0.5, True, None, False),
         _eval_ub_gau1_full, _f_reference, ("x->inf",)),
    _row("UB-GAU2", Side.UPPER, Target.F_INTEGRAL, (0.5, True, None, False),
         _times_struve(0.0, lambda nu, beta, x_star: 1.0 / (1.0 - beta)), _f_reference,
         ("x->inf",)),
    _row("UB-ANU", Side.UPPER, Target.F_INTEGRAL, (-0.5, False, None, False),
         _over_2nu1(a_factor, 1.0), _f_reference),
    _row("UB-3.8", Side.UPPER, Target.F_INTEGRAL, (-0.5, False, None, False),
         _times_struve(1.0, m_factor), _f_reference, uses_x_star=True),
    # G: the same right sides, integrand t^nu L_{nu+1}
    _row("PB-2.7", Side.LOWER, Target.G_INTEGRAL, (-0.5, False, 0.0, True),
         _eval_lb21, _g_reference),
    _row("PB-2.8", Side.LOWER, Target.G_INTEGRAL, (1.5, True, None, False),
         _eval_lb22, _g_reference),
    _row("PB-2.9", Side.LOWER, Target.G_INTEGRAL, (0.5, False, None, False),
         _eval_lb26, _g_reference),
    # ratios of Struve and Bessel functions
    _row("RB-3.1", Side.LOWER, Target.STRUVE_RATIO, (0.0, False, None, False),
         _x_over(1.0), _order_ratio(struve_l_scaled_log), ("x->0", "x->inf")),
    _row("RB-AUG18", Side.LOWER, Target.STRUVE_RATIO, (0.0, True, None, False),
         _eval_rb_aug18, _order_ratio(struve_l_scaled_log)),
    _row("RB-NASELL", Side.LOWER, Target.BESSELI_RATIO, (0.0, False, None, False),
         _x_over(0.0), _order_ratio(bessel_i_scaled_log)),
    _row("RB-SEGURA", Side.UPPER, Target.BESSELK_RATIO, (0.5, False, None, False),
         _eval_rb_segura, _order_ratio(bessel_k_scaled_log)),
    # products x K_{nu+k} L_{nu+l}
    _row("PRB-KL1", Side.TWO_SIDED, Target.KL_PRODUCT, (-0.5, True, None, False),
         _eval_prb_kl1, _kl_product(2.0, 0.0), ("x->0", "x->inf")),
    _row("PRB-KL0", Side.UPPER, Target.KL_PRODUCT, (-0.5, True, None, False),
         _constant(1.0), _kl_product(1.0, 0.0)),
    _row("PRB-KL2", Side.UPPER, Target.KL_PRODUCT, (-0.5, True, None, False),
         _eval_prb_kl2, _kl_product(3.0, 0.0)),
    _row("PRB-G1", Side.UPPER, Target.KL_PRODUCT, (-0.5, True, 0.5, True),
         _constant(1.5), _kl_product(2.0, 0.0)),
    _row("PRB-G2", Side.UPPER, Target.KL_PRODUCT, (-0.5, True, 0.5, True),
         _eval_prb_g2, _kl_product(3.0, 0.0)),
    _row("PRB-G3", Side.UPPER, Target.KL_PRODUCT, (-0.5, True, 0.5, True),
         _constant(15.0 / 8.0), _kl_product(3.0, 1.0)),
    # e^{bx} K_{nu+s}(x) x^{1-nu} F
    _row("NB-3.10", Side.UPPER, Target.K_WEIGHTED_INTEGRAL, (-0.5, False, 0.5, True),
         _over_2nu1(lambda nu: 14.0), _k_weighted(3.0)),
    _row("NB-3.11", Side.UPPER, Target.K_WEIGHTED_INTEGRAL, (-0.5, False, 0.5, True),
         _over_2nu1(lambda nu: 7.0), _k_weighted(2.0)),
    # monotonicity in the order
    _row("IMON", Side.UPPER, Target.STRUVE_RATIO, (0.5, True, None, False),
         _constant(1.0), _order_ratio(struve_l_scaled_log)),
)}


def list_bounds() -> list[BoundSpec]:
    """All catalog entries, sorted by identifier."""
    return [_CATALOG[k] for k in sorted(_CATALOG)]


def get_bound(bound_id: str) -> BoundSpec:
    try:
        return _CATALOG[bound_id]
    except KeyError:
        raise KeyError(
            f"unknown bound id {bound_id!r}; known: {', '.join(sorted(_CATALOG))}"
        ) from None


def _valid_spec(bound_id: str, nu, beta, x, x_star, truncation) -> BoundSpec:
    """The catalog entry, once it takes the family parameters given and its
    hypothesis holds at the point."""
    spec = _CATALOG.get(bound_id) or get_bound(bound_id)  # get_bound names the known ids
    if x_star is not None and not spec.uses_x_star:
        raise ValidityError(f"{bound_id}: takes no x_star, got x_star={x_star}")
    if truncation is not None and spec.evaluate is not _eval_lb23:
        raise ValidityError(f"{bound_id}: takes no truncation, got truncation={truncation}")
    if beta is not None and not spec.uses_beta:
        raise ValidityError(f"{bound_id}: takes no beta, got beta={beta}")
    failure = spec.validity(nu, beta, x, x_star)
    if failure is not None:
        raise ValidityError(f"{bound_id}: {failure}")
    if nu == _INF or x == _INF:  # the only non-finite values a hypothesis admits
        raise DomainError(f"{bound_id} requires finite nu and x, got nu={nu}, x={x}")
    return spec


def eval_bound(
    bound_id: str,
    nu: float,
    beta: float | None = None,
    x: float | None = None,
    x_star: float | None = None,
    truncation: int | None = None,
) -> ScaledReal | tuple[ScaledReal, ScaledReal]:
    """Evaluate the bound side at a point.

    Two-sided entries (PRB-KL1) return (lower, upper); RB-SEGURA returns its
    (sharp, simple) pair of upper bounds.  LB-2.3 takes ``truncation`` = K,
    an integer 1 <= K <= 5000, to sum exactly K terms (K = 5 reproduces the
    truncated reference bound used by the relative-error tables); by default
    it truncates adaptively via the geometric tail bound.
    """
    spec = _valid_spec(bound_id, nu, beta, x, x_star, truncation)
    value = spec.evaluate(nu, beta, x, x_star, truncation)
    try:
        if type(value) is _Signed:
            return ScaledReal.from_log(*value)
        if type(value) is tuple:
            return (ScaledReal.from_log(value[0]), ScaledReal.from_log(value[1]))
        return ScaledReal.from_log(value)
    except OverflowError:  # a log of +inf: the bound, or a term of it, overflowed
        message = f"{bound_id}: bound evaluation exceeds double range at x={x!r}"
        raise OverflowError(message) from None


def check(
    bound_id: str,
    nu: float,
    beta: float | None = None,
    x: float | None = None,
    x_star: float | None = None,
    truncation: int | None = None,
) -> Margin:
    """Margin of the bound against its independently computed reference.

    For two-sided bounds returns the binding side's margin.  For RB-SEGURA
    the margin is taken against the sharp (square-root) form, which the
    simple form dominates.  The ratio is formed from logs; the bound becomes
    a ScaledReal once, for the Margin.
    """
    spec = _valid_spec(bound_id, nu, beta, x, x_star, truncation)
    value = spec.evaluate(nu, beta, x, x_star, truncation)
    reference = spec.reference(nu, beta, x)
    if reference.mantissa == 0.0:
        raise ZeroDivisionError("reference value is zero")
    ref_log = _log(reference.mantissa) + reference.exponent
    side = spec.side
    sign = 1.0
    if type(value) is _Signed:
        value, sign = value
    elif type(value) is tuple and side is not _TWO_SIDED:  # RB-SEGURA: the sharp form
        value = value[0]
    # one overflow test for both paths, on the largest log exponentiated below
    d = (max(value) if side is _TWO_SIDED else value) - ref_log
    if d > _LN_MAX:
        raise OverflowError("ratio exceeds double range")
    if side is _TWO_SIDED:  # the binding side: the smaller margin
        low, high = value
        margin_low = 1.0 - _exp(low - ref_log)
        margin_high = _exp(high - ref_log) - 1.0
        value, margin = (low, margin_low) if margin_low <= margin_high else (high, margin_high)
    else:
        ratio = sign * _exp(d)
        margin = (1.0 - ratio) if side is _LOWER else (ratio - 1.0)
    return _tuple_new(
        Margin, (ScaledReal.from_log(value, sign), reference, margin, margin > 0.0)
    )
