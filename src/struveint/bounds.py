r"""Catalog of the inequalities for F(nu, beta, x) = int_0^x e^{-bt} t^nu L_nu dt
and the related ratio/product/monotonicity bounds, each with its validity
predicate, an evaluator for the bound side, and margin computation against an
independently computed reference.

Identifiers (28 entries):

================  =========================================================
LB-2.1/2.2/2.3    lower bounds for F (LB-2.3 is the geometric Struve sum)
LB-2.6            lower bound for F, nu > 1/2
LB-PRIOR          the earlier single-term lower bound e^{-bx} x^nu L_{nu+1}
UB-2.4/2.5        upper bounds valid down to nu > -1/2
UB-GAU1(-FULL)    earlier upper bounds, nu >= 1/2
UB-GAU2           e^{-bx} x^nu L_nu / (1-b), nu >= 1/2
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
                  x K_{nu+3} L_{nu+1} < 15/8   (all for |nu| <= 1/2)
NB-3.10/3.11      e^{bx} K_{nu+s}(x) x^{1-nu} F < C/((2nu+1)(1-b)), C = 14, 7
IMON              L_nu < L_{nu-1}, nu >= 1/2
================  =========================================================

Margins are reported in relative units (signed difference over the
reference).  Strictness is asserted with zero slack, but a margin whose
magnitude is below 10x the reference accuracy is classified "inconclusive"
rather than "violated" so roundoff can never manufacture a violation.

The catalog is immutable after import; evaluation and checking are pure, so
grid sweeps may run concurrently with deterministic results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional, Union

from .errors import ConvergenceError, DomainError, ValidityError
from .integrals import fg_log
from .scaled import ScaledReal
from .specfun import (
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

_LN2 = math.log(2.0)
_LN_SQRT_PI = 0.5 * math.log(math.pi)

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


Validity = Callable[[float, Optional[float], float, Optional[float]], Optional[str]]


@dataclass(frozen=True)
class BoundSpec:
    """One catalog entry: identity, shape, and hypothesis predicate."""

    bound_id: str
    side: Side
    target: Target
    hypothesis: str
    validity: Validity
    uses_beta: bool
    uses_x_star: bool = False
    tight_limits: tuple[str, ...] = ()


@dataclass(frozen=True)
class Margin:
    """Bound value against reference, with relative signed slack.

    signed_margin is (reference - bound)/reference for lower bounds and
    (bound - reference)/reference for upper bounds; for two-sided bounds it
    is the binding (smaller) of the two sides, with bound_value the binding
    side's value.
    """

    bound_value: ScaledReal
    reference_value: ScaledReal
    signed_margin: float
    strict: bool


@dataclass(frozen=True)
class ProductAsymptote:
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
    if not nu > -0.5:
        raise DomainError(f"a_factor requires nu > -1/2, got {nu}")
    return 2.0 * (nu + 1.0) if nu >= 0.5 else 2.0 * nu + 29.0


def default_x_star(beta: float) -> float:
    """Default free parameter for UB-3.8: twice the pole location."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"default_x_star requires 0 < beta < 1, got {beta}")
    return 2.0 / (1.0 - beta)


def product_asymptote(kind: str, nu: float) -> ProductAsymptote:
    """Limiting coefficients of x K_{nu+1}(x) L_nu(x) for nu > -1/2."""
    if not nu > -0.5:
        raise DomainError(f"product_asymptote requires nu > -1/2, got {nu}")
    if kind == "small_x":
        slope = math.exp(log_gamma(nu + 1.0) - _LN_SQRT_PI - log_gamma(nu + 1.5))
        return ProductAsymptote(kind="small_x", slope=slope)
    if kind == "large_x":
        return ProductAsymptote(
            kind="large_x", limit=0.5, first_order=(2.0 * nu + 1.0) / 4.0
        )
    raise DomainError(f"kind must be 'small_x' or 'large_x', got {kind!r}")


# ---------------------------------------------------------------------------
# shared building blocks
#
# Bound values are summed as logs and become one ScaledReal each.  The logs
# of the scaled kernels (e^{-x} L, e^{+x} K) stay small, so the large part
# (1-beta) x + nu ln x is added last and rounded once, at ulp(x) ~ 1e-13 for
# x = 1000.
# ---------------------------------------------------------------------------


def _weighted_struve(
    nu: float, beta: float, x: float, shift: float, factor: float = 1.0
) -> ScaledReal:
    """factor e^{-beta x} x^nu L_{nu+shift}(x) for a factor > 0."""
    small = math.log(factor) + struve_l_scaled_log(nu + shift, x)
    return ScaledReal.from_log((1.0 - beta) * x + nu * math.log(x) + small)


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
    (k = 0..K-1).  Otherwise terms are added until the geometric tail bound
    beta^k L_{nu+k+1}(x)/(1-beta) falls below 1e-12 of the partial sum; the
    bound is valid because L decreases in the order along the summed terms
    (orders nu+k+2 >= 1/2 for every k >= 0 once nu > -1).  For the same
    reason the first term is the largest, so the sum is carried as a plain
    float in units of it.
    """
    if truncation is not None and int(truncation) < 1:
        raise DomainError(f"truncation must be >= 1, got {truncation}")
    lead = struve_l_scaled_log(nu + 1.0, x)
    total = 1.0
    if truncation is not None:
        for k in range(1, int(truncation)):
            total += beta**k * math.exp(struve_l_scaled_log(nu + k + 1.0, x) - lead)
        return lead + math.log(total)
    tail_rel = _LB23_TAIL_REL * (1.0 - beta) / beta
    term = 1.0
    k = 0
    while term >= tail_rel * total:  # beta term / (1 - beta) >= 1e-12 total
        k += 1
        if k > _LB23_TERM_CAP:
            raise ConvergenceError("LB-2.3 term cap exceeded")
        term = beta**k * math.exp(struve_l_scaled_log(nu + k + 1.0, x) - lead)
        total += term
    return lead + math.log(total)


def _lower_combination(
    nu: float, beta: float, x: float, coefficient: float
) -> ScaledReal:
    """(coefficient * e^{-bx} x^nu L_nu(x) - gamma term) / (1 - beta)."""
    main = _weighted_struve(nu, beta, x, 0.0, 1.0 / (1.0 - beta)).scale(coefficient)
    return main - ScaledReal.from_log(_gamma_term_log(nu, beta, x) - math.log1p(-beta))


def _kl_upper_const(nu: float) -> float:
    """2 Gamma(nu+2) / (sqrt(pi) Gamma(nu+3/2))."""
    return math.exp(_LN2 + log_gamma(nu + 2.0) - _LN_SQRT_PI - log_gamma(nu + 1.5))


# ---------------------------------------------------------------------------
# per-bound evaluators
# ---------------------------------------------------------------------------


def _eval_lb21(nu, beta, x, x_star, truncation):
    return _lower_combination(nu, beta, x, 1.0)


def _eval_lb22(nu, beta, x, x_star, truncation):
    coeff = 1.0 - 4.0 * nu * nu / ((2.0 * nu - 1.0) * (1.0 - beta) * x)
    return _lower_combination(nu, beta, x, coeff)


def _eval_lb23(nu, beta, x, x_star, truncation):
    return ScaledReal.from_log(
        (1.0 - beta) * x + nu * math.log(x) + _struve_sum_log(nu, beta, x, truncation)
    )


def _eval_lb26(nu, beta, x, x_star, truncation):
    coeff = 1.0 - 2.0 * nu * (2.0 * nu + 27.0) / ((2.0 * nu - 1.0) * (1.0 - beta) * x)
    return _lower_combination(nu, beta, x, coeff)


def _eval_lb_prior(nu, beta, x, x_star, truncation):
    return _weighted_struve(nu, beta, x, 1.0)


def _eval_ub24(nu, beta, x, x_star, truncation):
    c = (2.0 * nu + 29.0) / ((2.0 * nu + 1.0) * (1.0 - beta))
    return _weighted_struve(nu, beta, x, 1.0, c)


def _eval_ub25(nu, beta, x, x_star, truncation):
    c = (2.0 * nu + 15.0) / ((2.0 * nu + 1.0) * (1.0 - beta))
    return _weighted_struve(nu, beta, x, 0.0, c)


def _eval_ub_gau1(nu, beta, x, x_star, truncation):
    c = 2.0 * (nu + 1.0) / ((2.0 * nu + 1.0) * (1.0 - beta))
    return _weighted_struve(nu, beta, x, 1.0, c)


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
    return (
        ScaledReal.from_log(
            large + (c + math.log(2.0 * (nu + 1.0)) + struve_l_scaled_log(nu + 1.0, x))
        )
        - ScaledReal.from_log(large + (c + struve_l_scaled_log(nu + 3.0, x)))
        - ScaledReal.from_log(large + (c + power))
    )


def _eval_ub_gau2(nu, beta, x, x_star, truncation):
    return _weighted_struve(nu, beta, x, 0.0, 1.0 / (1.0 - beta))


def _eval_ub_anu(nu, beta, x, x_star, truncation):
    c = a_factor(nu) / ((2.0 * nu + 1.0) * (1.0 - beta))
    return _weighted_struve(nu, beta, x, 1.0, c)


def _eval_ub38(nu, beta, x, x_star, truncation):
    return _weighted_struve(nu, beta, x, 1.0, m_factor(nu, beta, x_star))


def _eval_rb31(nu, beta, x, x_star, truncation):
    return ScaledReal.from_float(x / (2.0 * nu + 1.0 + x))


def _eval_rb_aug18(nu, beta, x, x_star, truncation):
    i_ratio = math.exp(bessel_i_scaled_log(nu - 1.0, x) - bessel_i_scaled_log(nu, x))
    return ScaledReal.from_float(1.0 / (i_ratio + 1.0 / x))


def _eval_rb_nasell(nu, beta, x, x_star, truncation):
    return ScaledReal.from_float(x / (2.0 * nu + x))


def _eval_rb_segura(nu, beta, x, x_star, truncation):
    half = nu - 0.5
    sharp = (half + math.hypot(half, x)) / x
    simple = 1.0 + (2.0 * nu - 1.0) / x
    return (ScaledReal.from_float(sharp), ScaledReal.from_float(simple))


def _eval_prb_kl1(nu, beta, x, x_star, truncation):
    return (
        ScaledReal.from_float(0.5),
        ScaledReal.from_float(_kl_upper_const(nu)),
    )


def _eval_prb_kl0(nu, beta, x, x_star, truncation):
    return ScaledReal.one()


def _eval_prb_kl2(nu, beta, x, x_star, truncation):
    return ScaledReal.from_float(
        _kl_upper_const(nu) * (1.0 + (2.0 * nu + 5.0) / x)
    )


def _eval_prb_g1(nu, beta, x, x_star, truncation):
    return ScaledReal.from_float(1.5)


def _eval_prb_g2(nu, beta, x, x_star, truncation):
    return ScaledReal.from_float(1.5 + 9.0 / x)


def _eval_prb_g3(nu, beta, x, x_star, truncation):
    return ScaledReal.from_float(15.0 / 8.0)


def _eval_nb310(nu, beta, x, x_star, truncation):
    return ScaledReal.from_float(14.0 / ((2.0 * nu + 1.0) * (1.0 - beta)))


def _eval_nb311(nu, beta, x, x_star, truncation):
    return ScaledReal.from_float(7.0 / ((2.0 * nu + 1.0) * (1.0 - beta)))


def _eval_imon(nu, beta, x, x_star, truncation):
    return ScaledReal.one()


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


def _ref_struve_ratio(nu, beta, x, x_star):
    log_ratio = struve_l_scaled_log(nu, x) - struve_l_scaled_log(nu - 1.0, x)
    return ScaledReal.from_log(log_ratio)


def _ref_bessel_i_ratio(nu, beta, x, x_star):
    log_ratio = bessel_i_scaled_log(nu, x) - bessel_i_scaled_log(nu - 1.0, x)
    return ScaledReal.from_log(log_ratio)


def _ref_bessel_k_ratio(nu, beta, x, x_star):
    log_ratio = bessel_k_scaled_log(nu, x) - bessel_k_scaled_log(nu - 1.0, x)
    return ScaledReal.from_log(log_ratio)


def _kl_product(k_shift: float, l_shift: float):
    # x K_{nu+k_shift}(x) L_{nu+l_shift}(x); the e^{+-x} scalings cancel
    def ref(nu, beta, x, x_star):
        return ScaledReal.from_log(
            math.log(x)
            + bessel_k_scaled_log(nu + k_shift, x)
            + struve_l_scaled_log(nu + l_shift, x)
        )

    return ref


def _k_weighted(s: float):
    # e^{beta x} K_{nu+s}(x) x^{1-nu} F(nu, beta, x)
    def ref(nu, beta, x, x_star):
        k_part = ScaledReal.from_log(
            (beta - 1.0) * x + (1.0 - nu) * math.log(x) + bessel_k_scaled_log(nu + s, x)
        )
        return k_part * _f_reference(nu, beta, x)

    return ref


def _ref_f(nu, beta, x, x_star):
    return _f_reference(nu, beta, x)


def _ref_g(nu, beta, x, x_star):
    return _g_reference(nu, beta, x)


# ---------------------------------------------------------------------------
# validity predicates (hypotheses verbatim, boundary conventions included)
# ---------------------------------------------------------------------------


def _need_x(x: float) -> Optional[str]:
    if x is None or not x > 0.0:
        return f"requires x > 0, got {x}"
    return None


def _need_beta(beta: Optional[float]) -> Optional[str]:
    if beta is None or not 0.0 < beta < 1.0:
        return f"requires 0 < beta < 1, got {beta}"
    return None


def _validity_f_bound(nu_test: Callable[[float], bool], nu_text: str) -> Validity:
    def check_point(nu, beta, x, x_star):
        if not nu_test(nu):
            return f"requires {nu_text}, got nu={nu}"
        return _need_beta(beta) or _need_x(x)

    return check_point


def _validity_point(nu_test: Callable[[float], bool], nu_text: str) -> Validity:
    def check_point(nu, beta, x, x_star):
        if not nu_test(nu):
            return f"requires {nu_text}, got nu={nu}"
        return _need_x(x)

    return check_point


def _validity_ub38(nu, beta, x, x_star):
    if not nu > -0.5:
        return f"requires nu > -1/2, got nu={nu}"
    fail = _need_beta(beta) or _need_x(x)
    if fail:
        return fail
    if x_star is None:
        return "requires x_star (default_x_star(beta) gives 2/(1-beta))"
    if not x_star > 1.0 / (1.0 - beta):
        return f"requires x_star > 1/(1-beta) = {1.0 / (1.0 - beta)}, got {x_star}"
    if not x >= x_star:
        return f"requires x >= x_star = {x_star}, got x={x}"
    return None


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

EvalFn = Callable[..., Union[ScaledReal, tuple[ScaledReal, ScaledReal]]]

_CATALOG: dict[str, BoundSpec] = {}
_EVALUATORS: dict[str, EvalFn] = {}
_REFERENCES: dict[str, Callable[..., ScaledReal]] = {}


def _register(spec: BoundSpec, evaluator: EvalFn, reference) -> None:
    _CATALOG[spec.bound_id] = spec
    _EVALUATORS[spec.bound_id] = evaluator
    _REFERENCES[spec.bound_id] = reference


def _build_catalog() -> None:
    f_bounds = [
        ("LB-2.1", Side.LOWER, lambda nu: -0.5 < nu <= 0.0,
         "-1/2 < nu <= 0", _eval_lb21, ("x->inf",)),
        ("LB-2.2", Side.LOWER, lambda nu: nu >= 1.5,
         "nu >= 3/2", _eval_lb22, ("x->inf",)),
        ("LB-2.3", Side.LOWER, lambda nu: nu > -1.0,
         "nu > -1", _eval_lb23, ("x->inf",)),
        ("LB-2.6", Side.LOWER, lambda nu: nu > 0.5,
         "nu > 1/2", _eval_lb26, ("x->inf",)),
        ("LB-PRIOR", Side.LOWER, lambda nu: nu > -0.5,
         "nu > -1/2", _eval_lb_prior, ()),
        ("UB-2.4", Side.UPPER, lambda nu: nu > -0.5,
         "nu > -1/2", _eval_ub24, ()),
        ("UB-2.5", Side.UPPER, lambda nu: nu > -0.5,
         "nu > -1/2", _eval_ub25, ()),
        ("UB-GAU1", Side.UPPER, lambda nu: nu >= 0.5,
         "nu >= 1/2", _eval_ub_gau1, ()),
        ("UB-GAU1-FULL", Side.UPPER, lambda nu: nu >= 0.5,
         "nu >= 1/2", _eval_ub_gau1_full, ("x->inf",)),
        ("UB-GAU2", Side.UPPER, lambda nu: nu >= 0.5,
         "nu >= 1/2", _eval_ub_gau2, ("x->inf",)),
        ("UB-ANU", Side.UPPER, lambda nu: nu > -0.5,
         "nu > -1/2", _eval_ub_anu, ()),
    ]
    for bound_id, side, nu_test, nu_text, fn, tight in f_bounds:
        _register(
            BoundSpec(
                bound_id=bound_id,
                side=side,
                target=Target.F_INTEGRAL,
                hypothesis=f"{nu_text}, 0 < beta < 1, x > 0",
                validity=_validity_f_bound(nu_test, nu_text),
                uses_beta=True,
                tight_limits=tight,
            ),
            fn,
            _ref_f,
        )

    _register(
        BoundSpec(
            bound_id="UB-3.8",
            side=Side.UPPER,
            target=Target.F_INTEGRAL,
            hypothesis="nu > -1/2, 0 < beta < 1, x_star > 1/(1-beta), x >= x_star",
            validity=_validity_ub38,
            uses_beta=True,
            uses_x_star=True,
        ),
        _eval_ub38,
        _ref_f,
    )

    g_bounds = [
        ("PB-2.7", lambda nu: -0.5 < nu <= 0.0, "-1/2 < nu <= 0", _eval_lb21),
        ("PB-2.8", lambda nu: nu >= 1.5, "nu >= 3/2", _eval_lb22),
        ("PB-2.9", lambda nu: nu > 0.5, "nu > 1/2", _eval_lb26),
    ]
    for bound_id, nu_test, nu_text, fn in g_bounds:
        _register(
            BoundSpec(
                bound_id=bound_id,
                side=Side.LOWER,
                target=Target.G_INTEGRAL,
                hypothesis=f"{nu_text}, 0 < beta < 1, x > 0",
                validity=_validity_f_bound(nu_test, nu_text),
                uses_beta=True,
            ),
            fn,
            _ref_g,
        )

    _register(
        BoundSpec(
            bound_id="RB-3.1",
            side=Side.LOWER,
            target=Target.STRUVE_RATIO,
            hypothesis="nu > 0, x > 0 (beta unused)",
            validity=_validity_point(lambda nu: nu > 0.0, "nu > 0"),
            uses_beta=False,
            tight_limits=("x->0", "x->inf"),
        ),
        _eval_rb31,
        _ref_struve_ratio,
    )
    _register(
        BoundSpec(
            bound_id="RB-AUG18",
            side=Side.LOWER,
            target=Target.STRUVE_RATIO,
            hypothesis="nu >= 0, x > 0 (beta unused)",
            validity=_validity_point(lambda nu: nu >= 0.0, "nu >= 0"),
            uses_beta=False,
        ),
        _eval_rb_aug18,
        _ref_struve_ratio,
    )
    _register(
        BoundSpec(
            bound_id="RB-NASELL",
            side=Side.LOWER,
            target=Target.BESSELI_RATIO,
            hypothesis="nu > 0, x > 0 (beta unused)",
            validity=_validity_point(lambda nu: nu > 0.0, "nu > 0"),
            uses_beta=False,
        ),
        _eval_rb_nasell,
        _ref_bessel_i_ratio,
    )
    _register(
        BoundSpec(
            bound_id="RB-SEGURA",
            side=Side.UPPER,
            target=Target.BESSELK_RATIO,
            hypothesis="nu > 1/2, x > 0 (beta unused)",
            validity=_validity_point(lambda nu: nu > 0.5, "nu > 1/2"),
            uses_beta=False,
        ),
        _eval_rb_segura,
        _ref_bessel_k_ratio,
    )

    _register(
        BoundSpec(
            bound_id="PRB-KL1",
            side=Side.TWO_SIDED,
            target=Target.KL_PRODUCT,
            hypothesis="nu >= -1/2, x > 0 (beta unused)",
            validity=_validity_point(lambda nu: nu >= -0.5, "nu >= -1/2"),
            uses_beta=False,
            tight_limits=("x->0", "x->inf"),
        ),
        _eval_prb_kl1,
        _kl_product(2.0, 0.0),
    )
    for bound_id, k_shift, fn in (
        ("PRB-KL0", 1.0, _eval_prb_kl0),
        ("PRB-KL2", 3.0, _eval_prb_kl2),
    ):
        _register(
            BoundSpec(
                bound_id=bound_id,
                side=Side.UPPER,
                target=Target.KL_PRODUCT,
                hypothesis="nu >= -1/2, x > 0 (beta unused)",
                validity=_validity_point(lambda nu: nu >= -0.5, "nu >= -1/2"),
                uses_beta=False,
            ),
            fn,
            _kl_product(k_shift, 0.0),
        )
    for bound_id, k_shift, l_shift, fn in (
        ("PRB-G1", 2.0, 0.0, _eval_prb_g1),
        ("PRB-G2", 3.0, 0.0, _eval_prb_g2),
        ("PRB-G3", 3.0, 1.0, _eval_prb_g3),
    ):
        _register(
            BoundSpec(
                bound_id=bound_id,
                side=Side.UPPER,
                target=Target.KL_PRODUCT,
                hypothesis="-1/2 <= nu <= 1/2, x > 0 (beta unused)",
                validity=_validity_point(
                    lambda nu: -0.5 <= nu <= 0.5, "-1/2 <= nu <= 1/2"
                ),
                uses_beta=False,
            ),
            fn,
            _kl_product(k_shift, l_shift),
        )

    for bound_id, s, fn in (("NB-3.10", 3.0, _eval_nb310), ("NB-3.11", 2.0, _eval_nb311)):
        _register(
            BoundSpec(
                bound_id=bound_id,
                side=Side.UPPER,
                target=Target.K_WEIGHTED_INTEGRAL,
                hypothesis="-1/2 < nu <= 1/2, 0 < beta < 1, x > 0",
                validity=_validity_f_bound(
                    lambda nu: -0.5 < nu <= 0.5, "-1/2 < nu <= 1/2"
                ),
                uses_beta=True,
            ),
            fn,
            _k_weighted(s),
        )

    _register(
        BoundSpec(
            bound_id="IMON",
            side=Side.UPPER,
            target=Target.STRUVE_RATIO,
            hypothesis="nu >= 1/2, x > 0 (beta unused)",
            validity=_validity_point(lambda nu: nu >= 0.5, "nu >= 1/2"),
            uses_beta=False,
        ),
        _eval_imon,
        _ref_struve_ratio,
    )


_build_catalog()


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


def _validate(spec: BoundSpec, nu, beta, x, x_star) -> None:
    failure = spec.validity(nu, beta, x, x_star)
    if failure is not None:
        raise ValidityError(f"{spec.bound_id}: {failure}")


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
    (sharp, simple) pair of upper bounds.  LB-2.3 takes ``truncation`` = K to
    sum exactly K terms (K = 5 reproduces the truncated reference bound used
    by the relative-error tables); by default it truncates adaptively via the
    geometric tail bound.
    """
    spec = get_bound(bound_id)
    _validate(spec, nu, beta, x, x_star)
    return _EVALUATORS[bound_id](nu, beta, x, x_star, truncation)


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
    simple form dominates.
    """
    spec = get_bound(bound_id)
    _validate(spec, nu, beta, x, x_star)
    value = _EVALUATORS[bound_id](nu, beta, x, x_star, truncation)
    reference = _REFERENCES[bound_id](nu, beta, x, x_star)
    if spec.side is Side.TWO_SIDED:
        low, high = value
        margin_low = 1.0 - low.ratio_to(reference)
        margin_high = high.ratio_to(reference) - 1.0
        if margin_low <= margin_high:
            return Margin(low, reference, margin_low, margin_low > 0.0)
        return Margin(high, reference, margin_high, margin_high > 0.0)
    if isinstance(value, tuple):  # RB-SEGURA: margin against the sharp form
        value = value[0]
    ratio = value.ratio_to(reference)
    margin = (1.0 - ratio) if spec.side is Side.LOWER else (ratio - 1.0)
    return Margin(value, reference, margin, margin > 0.0)
