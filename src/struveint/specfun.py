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
return ln L and ln I, the cached K walker returns ln(exp(x) K), all plain
floats.  ``struve_l_scaled_log``, ``bessel_i_scaled_log`` and
``bessel_k_scaled_log`` give the log of each scaled function to callers that
stay in logs; the plain and ``*_scaled`` functions build their float or
``ScaledReal`` from the same cached values.

Implementation choices: L and I are summed by direct ascending series with
term recurrences (all terms positive for nu > -3/2, so no cancellation);
running exponent extraction renormalizes the partial sum whenever it exceeds
e^30.  K_nu(x) is the double-exponential trapezoid evaluation of
``integral_0^inf exp(-x cosh t) cosh(nu t) dt`` carried out on the scaled
integrand.  The lower incomplete gamma uses the classical split: ascending
series for x < a+1, Lentz continued fraction for the upper complement
otherwise.  Gamma is a Lanczos rational approximation (g = 7, 9 terms),
positive arguments only.

All functions are pure; none touch shared mutable state beyond memoization
caches keyed by their arguments, so concurrent use is safe and results do
not depend on call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
MAX_QUAD_NODES = 2_000

_EXP30 = math.exp(30.0)
_LN2 = math.log(2.0)

# Lanczos coefficients, g = 7, n = 9 (Godfrey's published set).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@dataclass(frozen=True)
class SeriesResult:
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
    """ln Gamma(x) for x > 0 (Lanczos, evaluated in log form)."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    xm = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (xm + i)
    t = xm + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (xm + 0.5) * math.log(t) - t + math.log(acc)


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0."""
    lg = log_gamma(x)
    if lg > 709.0:
        raise OverflowError(f"Gamma({x}) exceeds double range; use log_gamma")
    return math.exp(lg)


def _ligamma_series_log(a: float, x: float) -> float:
    # gamma(a,x) = x^a e^-x sum_{n>=0} x^n / (a (a+1) ... (a+n))
    term = 1.0 / a
    s = term
    shift = 0.0
    n = 0
    while True:
        n += 1
        term *= x / (a + n)
        s += term
        if s > _EXP30:
            shift += 30.0
            s /= _EXP30
            term /= _EXP30
        if term < 1e-17 * s:
            break
        if n > MAX_SERIES_TERMS:
            raise ConvergenceError("incomplete gamma series cap exceeded")
    return a * math.log(x) - x + math.log(s) + shift


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
    if x < a + 1.0:
        return _ligamma_series_log(a, x)
    return _ligamma_cf_log(a, x)


def lower_incomplete_gamma(a: float, x: float) -> float:
    """gamma(a, x) = integral_0^x exp(-t) t^(a-1) dt."""
    lg = lower_incomplete_gamma_log(a, x)
    if lg == -math.inf:
        return 0.0
    return math.exp(lg)


def _is_nonpositive_integer(b: float) -> bool:
    return b <= 0.0 and b == math.floor(b)


def pfq(
    upper: tuple[float, ...] | list[float],
    lower: tuple[float, ...] | list[float],
    x: float,
    tol: float = 1e-15,
) -> SeriesResult:
    """Generalized hypergeometric pFq by direct term-recurrence summation.

    Requires p <= q+1, no nonpositive-integer lower parameter, and |x| < 1
    when p = q+1.  Raises ConvergenceError if the term ratio has not fallen
    below 1 within the term cap.
    """
    up = tuple(float(a) for a in upper)
    lo = tuple(float(b) for b in lower)
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


def _ascending_series_log(
    log_t0: float, q: float, offset_a: float, offset_b: float
) -> float:
    """ln of t0 * sum_k prod_{j<k} q / ((j+offset_a)(j+offset_b)).

    Shared engine for the Struve L and Bessel I series: all terms positive,
    term ratio q / ((k+offset_a)(k+offset_b)).
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
    return log_t0 + shift + math.log(s)


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
    if 0.5 * x == 0.0:
        if nu > -1.0:
            return -math.inf
        raise DomainError(f"L_nu(0) diverges for nu <= -1 (nu={nu})")
    log_t0 = (nu + 1.0) * math.log(0.5 * x) - log_gamma(1.5) - log_gamma(nu + 1.5)
    return _ascending_series_log(log_t0, 0.25 * x * x, 1.5, nu + 1.5)


def struve_l(nu: float, x: float) -> float:
    """Modified Struve function L_nu(x), nu > -3/2, x >= 0.

    Raises OverflowError when the value exceeds double range (x beyond about
    690); use struve_l_scaled there.
    """
    _check_struve_args(nu, x)
    return ScaledReal.from_log(_struve_l_raw(nu, x)).to_float()


def struve_l_scaled_log(nu: float, x: float) -> float:
    """ln(exp(-x) * L_nu(x)); -inf at x = 0."""
    _check_struve_args(nu, x)
    return _struve_l_raw(nu, x) - x


def struve_l_scaled(nu: float, x: float) -> ScaledReal:
    """exp(-x) * L_nu(x) as a ScaledReal."""
    return ScaledReal.from_log(struve_l_scaled_log(nu, x))


@lru_cache(maxsize=1 << 17)
def _bessel_i_raw(nu: float, x: float) -> float:
    """ln I_nu(x); -inf where I_nu(x) = 0."""
    if nu < 0.0 and nu == math.floor(nu):
        nu = -nu  # integer order: I_{-n} = I_n
    if 0.5 * x == 0.0:
        if nu == 0.0:
            return 0.0
        if nu > 0.0:
            return -math.inf
        raise DomainError(f"I_nu(0) diverges for negative non-integer nu={nu}")
    log_t0 = nu * math.log(0.5 * x) - log_gamma(nu + 1.0)
    return _ascending_series_log(log_t0, 0.25 * x * x, 1.0, nu + 1.0)


def _check_bessel_i_args(nu: float, x: float) -> None:
    _require_finite("Bessel I", nu, x)
    if nu < -1.0 and nu != math.floor(nu):
        raise DomainError(f"Bessel I supported for nu >= -1 or integer nu, got {nu}")
    if x < 0.0:
        raise DomainError(f"Bessel I requires x >= 0, got x={x}")


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x); positive for nu >= -1, x > 0."""
    _check_bessel_i_args(nu, x)
    return ScaledReal.from_log(_bessel_i_raw(nu, x)).to_float()


def bessel_i_scaled_log(nu: float, x: float) -> float:
    """ln(exp(-x) * I_nu(x)); -inf where I_nu(x) = 0."""
    _check_bessel_i_args(nu, x)
    return _bessel_i_raw(nu, x) - x


def bessel_i_scaled(nu: float, x: float) -> ScaledReal:
    """exp(-x) * I_nu(x) as a ScaledReal."""
    return ScaledReal.from_log(bessel_i_scaled_log(nu, x))


def _log_cosh(u: float) -> float:
    u = abs(u)
    return u + math.log1p(math.exp(-2.0 * u)) - _LN2


@lru_cache(maxsize=1 << 17)
def _bessel_k_scaled_log(nu: float, x: float) -> float:
    """ln(exp(x) K_nu(x)) by the double-exponential trapezoid rule.

    The scaled integrand exp(-x (cosh t - 1)) cosh(nu t) decays
    double-exponentially in t, so the plain trapezoid sum converges
    geometrically as the step is halved; node values are reused between
    levels.  Node budget is MAX_QUAD_NODES.
    """
    nu = abs(nu)

    def g(t: float) -> float:
        # exponent of the scaled integrand; cosh t - 1 written stably
        return -2.0 * x * math.sinh(0.5 * t) ** 2 + _log_cosh(nu * t)

    vals: dict[float, float] = {0.0: g(0.0)}
    nodes = 1

    def extend(h: float) -> None:
        # walk outward; stop only in the decaying tail, else an interior
        # peak already seen at a coarser level masks the nodes before it
        nonlocal nodes
        gmax = max(vals.values())
        j = 1
        streak = 0
        prev = vals[0.0]
        while True:
            t = j * h
            if t in vals:
                v = vals[t]
            else:
                v = g(t)
                vals[t] = v
                nodes += 1
                if nodes > MAX_QUAD_NODES:
                    raise ConvergenceError("Bessel K node cap exceeded")
                if v < gmax - 50.0 and v <= prev:
                    streak += 1
                    if streak >= 2:
                        return
                else:
                    streak = 0
            if v > gmax:
                gmax = v
            prev = v
            j += 1

    def total(h: float) -> float:
        sel = [v for t, v in vals.items() if (t / h) == round(t / h)]
        m = max(sel)
        s = sum(math.exp(v - m) for v in sel)
        s -= 0.5 * math.exp(vals[0.0] - m)  # half weight at t = 0
        return math.log(h * s) + m

    h = 0.5
    extend(h)
    prev = total(h)
    for _ in range(7):
        h *= 0.5
        extend(h)
        cur = total(h)
        if abs(cur - prev) < 1e-14:
            return cur
        prev = cur
    raise ConvergenceError("Bessel K trapezoid sum did not settle within 7 halvings")


def _check_bessel_k_args(nu: float, x: float) -> None:
    if -math.inf < nu < math.inf and 0.0 < x < math.inf:  # valid: one comparison chain
        return
    _require_finite("Bessel K", nu, x)
    if not x > 0.0:
        raise DomainError(f"Bessel K requires x > 0, got x={x}")


def bessel_k_scaled_log(nu: float, x: float) -> float:
    """ln(exp(x) * K_nu(x)), x > 0 (even in nu)."""
    _check_bessel_k_args(nu, x)
    return _bessel_k_scaled_log(nu, x)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function K_nu(x), x > 0 (even in nu)."""
    return ScaledReal.from_log(bessel_k_scaled_log(nu, x) - x).to_float()


def bessel_k_scaled(nu: float, x: float) -> ScaledReal:
    """exp(x) * K_nu(x) as a ScaledReal."""
    return ScaledReal.from_log(bessel_k_scaled_log(nu, x))
