r"""Evaluation of F(nu, beta, x) = integral_0^x exp(-beta t) t^nu L_nu(t) dt
and its companion G with integrand t^nu L_{nu+1}(t).

``F`` and ``G`` evaluate both integrals for every nu > -1 and 0 <= beta <= 1
with one engine, ``_termwise_pair_log``: the Struve series integrated term
by term, each term in the Kummer form of the incomplete gamma function
(DLMF 8.7.1),

.. math::
    F_{\nu,\beta}(x) = e^{-\beta x} \sum_{k\ge 0}
        \frac{2^{-\nu-2k-1}\,x^{a_k}}
             {\Gamma(k+3/2)\,\Gamma(k+\nu+3/2)}
        \sum_{n\ge 0} \frac{(\beta x)^n}{(a_k)_{n+1}},
    \qquad a_k = 2k + 2\nu + 2,

and for G a_k + 1 in place of a_k, with the k-th coefficient multiplied by
x / (a_k + 1) (Gamma(k+nu+5/2) in place of Gamma(k+nu+3/2)).  G's Kummer
sums are the midpoints of the downward recurrence that gives F's, so one
pass returns both; each integral's tail has its own bound, G's tried only
once F's is proven; the forward loop keeps the bounds it proved for the final
check.  All terms are positive, beta = 0 and beta = 1 included, and the cost
is O(x) per call: the coefficients peak near k = x/2 and about 0.7 x of them
are kept.  For x above about 127 the pass starts two indices below the peak,
at a coefficient it reaches in closed form (a ratio of Pochhammer symbols,
from Stirling's series), and sums the terms under it only until a proven
bound, for nu < 1/2 the lesser of two, puts the rest below 1e-17 of the sum:
at x = 1000 and nu = 2 it walks k = 368..705 for beta <= 0.6 instead of
0..705, and all of them at beta = 1.
``fg_log`` hands both logs to callers that need the pair, and shares the
beta-free half of the pass among the beta of one (nu, x);
``integral_series`` is ``F`` restricted to 0 < beta < 1.  The other routes
stay as oracles for the tests:

* ``integral_quad``   -- double-exponential quadrature of the integrand;
* ``integral_beta1``  -- closed form at beta = 1 in terms of L and gamma;
* ``integral_beta0``  -- 2F3 hypergeometric form at beta = 0.

Everything is computed in log/scaled arithmetic so x up to 1000 (integrand
mass ~ exp((1-beta) x)) stays in range.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import ConvergenceError, DomainError
from .scaled import _NEG_INF, ScaledReal
from .specfun import (
    MAX_SERIES_TERMS,
    _EXP30,
    _LN2,
    _LN_GAMMA_3_2,
    _LN_SQRT_PI,
    _kummer_sum,
    _require_finite,
    log_gamma,
    lower_incomplete_gamma_log,
    pfq,
    struve_l_scaled,
    struve_l_scaled_log,
)

__all__ = [
    "IntegralSpec",
    "QuadratureResult",
    "integral_quad",
    "integral_series",
    "integral_beta1",
    "integral_beta0",
    "F",
    "G",
    "fg_log",
]

# the termwise engine drops a tail once its bound is below _EPS of the least
# possible sum, and raises if a dropped tail comes out above 1e-16 of the sum
_EPS = 1e-17
_LN_1E_16 = math.log(1e-16)
# the termwise pass starts at the anchor k_a only when k_a > _ANCHOR_MIN.
# 60 was the break-even when reaching d_{k_a} took k_a multiplies; in closed
# form it costs ~6 us, so the break-even lies lower, but a lower gate would
# anchor the x = 100 points of the default grid and the tables and move
# their values by rounding, so it waits for its own measurement
_ANCHOR_MIN = 60
# the least x at which k_a can pass _ANCHOR_MIN (nu -> -1); below it the pass
# skips the anchor's arithmetic
_ANCHOR_X = 2.0 * math.sqrt((_ANCHOR_MIN + 3.5) * (_ANCHOR_MIN + 2.5))
# the anchor multiplies out this many of its ratios and takes the rest in
# closed form, from Stirling's series at arguments of at least 32.5
_ANCHOR_HEAD = 32
# below k_a the pass makes its coefficients, and tests the head, this many
# indices at a time (8, 16 and 32 timed alike at x in [100, 1000])
_HEAD_CHUNK = 16
# ``fg_log`` keeps the beta-free half of the pass, a run, for this many
# (nu, x): the paper's tables ask for 28 at once, the default sweep for 25
_RUNS = 32
# a (a + 1 - z) in the tail bound overflows once a = 2 nu + 2 passes 1.3e154
_NU_MAX = 1e150

# integral_quad needs weight_power + order + 2 >= this (nu >= -0.98 for F):
# near the origin the integrand is t^(s-1) with s = weight_power + order + 2,
# so the tanh-sinh rule drops about e^(-700 s) of the mass near 0 past its
# window (7e-13 at s = 0.04); at s = 0.03 (nu = -0.985) it did not settle
# within 10 halvings at (beta, x) = (0.5, 5), (1, 1), (0.3, 0.01) or (0, 2)
_QUAD_MIN_EXPONENT = 0.04


class _IntegralFields(NamedTuple):
    weight_power: float
    order: float
    beta: float
    upper: float


class IntegralSpec(_IntegralFields):
    """Identifies integral_0^upper exp(-beta t) t^weight_power L_order(t) dt.

    A named tuple whose constructor (and so ``_replace``) checks the domain.
    """

    __slots__ = ()

    def __new__(cls, weight_power: float, order: float, beta: float, upper: float):
        if not order > -1.5:
            raise DomainError(f"Struve order must exceed -3/2, got {order}")
        # integrand ~ t^(weight_power + order + 1) near 0
        if not weight_power + order > -2.0:
            raise DomainError(
                "integral diverges: weight_power + order must exceed -2, got "
                f"{weight_power} + {order}"
            )
        if not 0.0 <= beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {beta}")
        if not upper > 0.0:
            raise DomainError(f"upper limit must be positive, got {upper}")
        _require_finite("integral", weight_power, order, upper)
        return super().__new__(cls, weight_power, order, beta, upper)

    @classmethod
    def _make(cls, iterable) -> "IntegralSpec":
        return cls(*iterable)


class QuadratureResult(NamedTuple):
    """Quadrature outcome.

    ``abs_error_estimate`` is the rule's last halving gap, e^gap - 1 times
    |value.mantissa|: it is expressed in units of exp(value.exponent), the
    same scale as value.mantissa, so the success invariant
    ``abs_error_estimate <= tol * |value.mantissa|`` is overflow-free.
    ``node_count`` is the number of nodes the rule placed.
    """

    value: ScaledReal
    abs_error_estimate: float
    node_count: int


def _tanh_sinh_log(logf_logt, log_b: float, tol: float) -> tuple[float, float, int]:
    """(log of integral_0^b f(t) dt, last halving gap, nodes), f given as
    logf(log t).

    Double-exponential transform t = b / (1 + exp(-pi sinh u)) (Takahasi and
    Mori 1974); the node sum is the plain trapezoid rule in u over the fixed
    window |u| <= asinh(700 / pi), from step 1, each halving adding the odd
    multiples of the new step.  The gap is |ln I_h - ln I_{2h}| of the last
    halving, at most 0.2 tol.
    """

    def contrib(u: float) -> float:
        s = 0.5 * math.pi * math.sinh(u)
        e = -2.0 * abs(s)  # ln of the lesser of e^(2s) and e^(-2s)
        l1p = math.log1p(math.exp(e))
        log_t = log_b + min(2.0 * s, 0.0) - l1p
        log_w = log_b + math.log(math.pi) + math.log(math.cosh(u)) + e - 2.0 * l1p
        lf = logf_logt(log_t)
        return lf + log_w if lf != _NEG_INF else _NEG_INF

    # |s| <= 350 inside the window; past it each weight is below b e^-693
    window = math.asinh(700.0 / math.pi)
    logs: list[float] = []  # ln(w f) of every node placed, in placement order
    h = 2.0
    prev = _NEG_INF
    for level in range(11):
        h *= 0.5
        n = int(window / h)
        logs.extend(contrib(j * h) for j in range(-n, n + 1) if j % 2 or level == 0)
        m = max(logs)
        cur = m if m == _NEG_INF else math.log(h * sum(math.exp(v - m) for v in logs)) + m
        if prev != _NEG_INF and cur != _NEG_INF and abs(cur - prev) <= 0.2 * tol:
            return cur, abs(cur - prev), len(logs)
        prev = cur
    raise ConvergenceError("tanh-sinh sum did not settle within 10 halvings")


def integral_quad(spec: IntegralSpec, tol: float = 1e-11) -> QuadratureResult:
    """Double-exponential quadrature oracle for the integral identified by
    ``spec``.

    Substitutes t = u^2 and integrates over u in [0, sqrt(upper)] with the
    tanh-sinh rule.  Supports weight_power + order >= -1.96 (nu >= -0.98 for
    F's integrand) and raises DomainError outside it.  Halves the step until
    two successive sums agree to 0.2 ``tol`` in log; raises ConvergenceError
    if they do not within 10 halvings.
    """
    if not tol >= 1e-13:
        raise DomainError(f"tol must be >= 1e-13, got {tol}")
    if spec.weight_power + spec.order + 2.0 < _QUAD_MIN_EXPONENT:
        raise DomainError(
            "integral_quad supports weight_power + order >= "
            f"{_QUAD_MIN_EXPONENT - 2.0:g} (nu >= {0.5 * _QUAD_MIN_EXPONENT - 1.0:g} "
            f"for F), got {spec.weight_power} + {spec.order}"
        )
    weight_power, order, beta, _ = spec

    # t = u^2 tames the t^(2 nu + 1) behaviour at the origin: dt = 2 u du, and
    # e^{-beta t} t^a L(t) = e^{(1-beta) t} t^a (e^{-t} L(t))
    def logf_u(log_u: float) -> float:
        u = math.exp(log_u)
        t = u * u
        if 0.5 * t == 0.0:
            return _NEG_INF
        return (
            (1.0 - beta) * t + weight_power * math.log(t) + struve_l_scaled_log(order, t)
            + _LN2 + log_u
        )

    log_total, gap, nodes = _tanh_sinh_log(logf_u, 0.5 * math.log(spec.upper), tol)
    value = ScaledReal.from_log(log_total)
    return QuadratureResult(value, math.expm1(gap) * abs(value.mantissa), nodes)


def _tail_bound_log(m: float, a: float, z: float, rho: float) -> float:
    """ln(m U(a) rho), the bound on a dropped tail in the units of m.

    U(a) = min(e^z / a, (a+1) / (a (a+1-z)) when a + 1 > z) bounds S(a, z)
    from above; m is the last kept coefficient and rho = r / (1 - r) sums the
    geometric bound on the coefficients after it.
    """
    log_u = z - math.log(a)
    if a + 1.0 > z:
        log_u = min(log_u, math.log((a + 1.0) / (a * (a + 1.0 - z))))
    p = m * rho
    return math.log(p) + log_u if p > 0.0 else _NEG_INF


def _proven_tail_log(m: float, a: float, z: float, rho: float, lim: float, shift: float):
    """shift + ``_tail_bound_log`` once that bound is proven <= lim, else None
    (-inf at lim = 0, which passes only a zero tail).  The logs wait for the
    screen m rho <= lim a, which U(a) >= 1/a makes necessary."""
    if m * rho > lim * a:
        return None
    tail = _tail_bound_log(m, a, z, rho)
    return shift + tail if not lim or tail <= math.log(lim) else None


def _anchor_index(nu: float, q: float) -> int:
    """max(0, k_p - 2), with k_p the first k >= 0 at which the coefficient
    ratio r_k = q / ((k+3/2)(k+nu+3/2)) <= 1, from the root of
    (k+3/2)(k+nu+3/2) = q.

    Raises ConvergenceError when k_p is past the term cap (or q overflowed),
    as the forward loop would once it got there.
    """
    h = 0.5 * nu
    root = math.sqrt(q + h * h)
    # root - h without cancellation: q / (root + h) when h > 0
    k_star = (q / (root + h) if h > 0.0 else root - h) - 1.5
    if not k_star <= MAX_SERIES_TERMS:
        raise ConvergenceError("termwise series term cap exceeded")
    return math.ceil(k_star) - 2 if k_star > 2.0 else 0


def _stirling_rest(t):
    """ln Gamma(t) - (t - 1/2) ln t + t - ln(2 pi) / 2, four terms of
    Stirling's series (DLMF 5.11.1): within 2e-17 for t >= 32.5."""
    s = 1.0 / (t * t)
    return (1.0 / 12.0 - s * (1.0 / 360.0 - s * (1.0 / 1260.0 - s / 1680.0))) / t


def _anchor_coefficient(nu, x, q, k):
    """(m, shift) with d_k / d_0 = r_0 ... r_{k-1} = m e^shift, shift a
    multiple of 30, in O(1).  The first h = ``_ANCHOR_HEAD`` ratios are
    multiplied out; the other n = k - h give n ln q - ln (u)_n - ln (u + nu)_n,
    u = h + 3/2 (DLMF 5.2.5), by Stirling's series (DLMF 5.11.1): ln (u)_n =
    n ln w + (u - 1/2) log1p(n/u) - n + mu(w) - mu(u), w = u + n.  The n-fold
    logs join in one log1p, and one ``math.fsum`` adds every term."""
    m, shift = 1.0, 0.0
    for j in range(min(k, _ANCHOR_HEAD)):
        m *= q / ((j + 1.5) * (j + nu + 1.5))
        if m > _EXP30:
            m /= _EXP30
            shift += 30.0
    n = k - _ANCHOR_HEAD
    if n > 0:
        half_x = 0.5 * x
        c = k + 1.5 - half_x
        e_1 = c / half_x
        terms = [shift, math.log(m), 2.0 * n]
        terms.append(-n * math.log1p(e_1 + (c + nu) / half_x * (1.0 + e_1)))
        for u in (_ANCHOR_HEAD + 1.5, _ANCHOR_HEAD + 1.5 + nu):
            terms += ((0.5 - u) * math.log1p(n / u), _stirling_rest(u) - _stirling_rest(u + n))
        shift = 30.0 * (sum(terms) // 30.0)
        terms.append(-shift)
        m = math.exp(math.fsum(terms))
    return m, shift


def _head_bound(nu: float, k: int, rho: float) -> float:
    """B with sum_{j<k} T_j <= B T_k for F and G, given rho = (1/S(a_k + 1, z)
    + z)^2 / x^2: min(c rho / (1 - c rho), C_k rho / (1 - rho)), inf where
    neither holds (see ``_termwise_pair_log``)."""
    c = max(1.0, 1.5 / (nu + 1.0))
    bound = c * rho / (1.0 - c * rho) if c * rho < 1.0 else math.inf
    if nu < 0.5 and rho < 1.0:
        # ln C_k, padded for the rounding of lgamma
        terms = (math.lgamma(k + 1.5), math.lgamma(nu + 1.0), -math.lgamma(k + nu + 1.0))
        log_c = sum(terms) - _LN_GAMMA_3_2 + 1e-12 * (1.0 + sum(map(abs, terms)))
        bound = min(bound, math.exp(log_c) * rho / (1.0 - rho))
    return bound


def _forward(nu: float, x: float, q: float, a0: float, z=None, run=None):
    """The forward loop (see ``_termwise_pair_log``): (k_a, d_mant, d_shift,
    K, tail_f, tail_g), K the first index where both tails are proven.

    It has two phases.  Up to k_h, the first index where r <= 1/2, nothing
    depends on beta; with z None the loop stops there and returns the run
    (k_a, d_mant, d_shift, k_h, peak_f, peak_g).  From k_h on it tries the
    tail proofs at z; r <= 1/2 there, so m only falls and the peaks change
    only by e^30 at each shift.  Given a run, only the second phase runs,
    its coefficients into new lists, which the run takes in once the loop
    has returned.
    """
    if run is None:
        # d_k = d_mant[k] e^{log_d0 + d_shift[k]} for k_a <= k <= K (the second
        # leg fills the slots below k_a); peak_f and peak_g are max_j d_j / a_j
        # for F and G over j = 0 and j >= k_a, in units of e^shift
        d_mant: list[float] = []
        d_shift: list[float] = []
        m, shift = 1.0, 0.0
        peak_f = peak_g = 0.0
        k_a = _anchor_index(nu, q) if x > _ANCHOR_X else 0
        if k_a > _ANCHOR_MIN:
            # d_{k_a} = m e^{log_d0 + shift}; the peaks seed at k = 0, whose
            # d_0 / a_0 tops the later peak for nu near -1
            m, shift = _anchor_coefficient(nu, x, q, k_a)
            peak_f = math.exp(-shift) / a0
            peak_g = peak_f * x * a0 / ((a0 + 1.0) * (a0 + 1.0))
            d_mant = [0.0] * k_a
            d_shift = [0.0] * k_a
        else:
            k_a = 0
        r = 2.0
        k = k_a
        while True:
            a = a0 + 2.0 * k
            d_mant.append(m)
            d_shift.append(shift)
            if r > 1.0:  # d_k / a_k tops its predecessors only after a ratio above 1
                c = m / a
                if c > peak_f:
                    peak_f = c
                c *= x * a / ((a + 1.0) * (a + 1.0))
                if c > peak_g:
                    peak_g = c
            r = q / ((k + 1.5) * (k + nu + 1.5))
            if r <= 0.5:
                break
            m *= r
            if m < 1.0:
                m *= _EXP30
                shift -= 30.0
                peak_f *= _EXP30
                peak_g *= _EXP30
            elif m > _EXP30:
                m /= _EXP30
                shift += 30.0
                peak_f /= _EXP30
                peak_g /= _EXP30
            k += 1
            if k > MAX_SERIES_TERMS:
                raise ConvergenceError("termwise series term cap exceeded")
        if z is None:
            return k_a, d_mant, d_shift, k, peak_f, peak_g
        new_mant, new_shift = d_mant, d_shift
    else:
        k_a, d_mant, d_shift, k_h, peak_f, peak_g = run
        k = k_h
        m, shift = d_mant[k], d_shift[k]
        a = a0 + 2.0 * k
        r = q / ((k + 1.5) * (k + nu + 1.5))
        new_mant, new_shift = [], []
    tail_f = None
    while True:
        # T_j <= d_j U_j e^{-z}, U_j falling in j and d_{j+1} / d_j <= r: the
        # terms after k (so after K) sum to at most d_k U_k r / (1 - r), and
        # G's coefficients fall by r_g = r (k+nu+3/2) / (k+nu+5/2) < r.
        # G's bound falls at every step against a fixed limit, so once
        # proven it stays proven: trying it only after F's leaves K alone
        if tail_f is None:
            tail_f = _proven_tail_log(m, a, z, r / (1.0 - r), _EPS * peak_f, shift)
        if tail_f is not None:
            r_g = q / ((k + 1.5) * (k + nu + 2.5))
            tail_g = _proven_tail_log(
                m * x / (a + 1.0), a + 1.0, z, r_g / (1.0 - r_g), _EPS * peak_g, shift
            )
            if tail_g is not None:
                break
        m *= r
        if m < 1.0:
            m *= _EXP30
            shift -= 30.0
            peak_f *= _EXP30
            peak_g *= _EXP30
        k += 1
        if k > MAX_SERIES_TERMS:
            raise ConvergenceError("termwise series term cap exceeded")
        a = a0 + 2.0 * k
        new_mant.append(m)
        new_shift.append(shift)
        r = q / ((k + 1.5) * (k + nu + 1.5))
    if run is not None:
        # the run's indices k_h + 1 .. K: any it holds already, from an earlier
        # beta or a call on another thread, hold these same values, so the
        # slices need no lock
        d_shift[k_h + 1:k + 1] = new_shift
        d_mant[k_h + 1:k + 1] = new_mant
    return k_a, d_mant, d_shift, k, tail_f, tail_g


@lru_cache(maxsize=_RUNS)
def _run(nu: float, x: float):
    """``fg_log``'s run at (nu, x), shared by every beta (see ``_forward``)."""
    return _forward(nu, x, 0.25 * x * x, 2.0 * nu + 2.0)


def _termwise_pair_log(nu: float, beta: float, x: float, run=None) -> tuple[float, float]:
    r"""(ln F, ln G) at one (nu, beta, x), 0 <= beta <= 1, x > 0, in one pass.

    Termwise integration of the Struve series gives F = sum_k T_k with

    .. math::
        T_k = d_k\,e^{-z} S(a_k, z), \quad z = \beta x, \quad
        a_k = 2k + 2\nu + 2, \quad
        d_k = \frac{2^{-2k-\nu-1}\,x^{a_k}}{\Gamma(k+3/2)\,\Gamma(k+\nu+3/2)},

    where S(a, z) = sum_n z^n / (a)_{n+1} is the Kummer form
    beta^{-a} gamma(a, beta x) = x^a e^{-z} S(a, z) (DLMF 8.7.1).  G has
    the same form with a_k + 1 in place of a_k and d_k x / (a_k + 1) in place
    of d_k.  Every term is positive for every beta in [0, 1], so nothing
    cancels.

    The coefficients rise while their ratio r_k = d_{k+1} / d_k =
    (x^2/4) / ((k+3/2)(k+nu+3/2)) exceeds 1, that is up to k_p, the root of a
    quadratic (``_anchor_index``).  Once k_p - 2 > ``_ANCHOR_MIN`` (x above
    about 127 at nu = 0) the pass starts at the anchor k_a = k_p - 2, else
    at k_a = 0.  d_{k_a} / d_0, the product of r_0 .. r_{k_a - 1}, is a
    ratio of Pochhammer symbols, taken in O(1) from Stirling's series and
    carried as a mantissa with an e^30 shift (``_anchor_coefficient``).
    The peaks of d_k / a_k and of G's d_k x / (a_k + 1)^2 lie at k = 0 (nu
    near -1) or at most two indices below k_p, so their max over k = 0 and
    k >= k_a is each integral's least possible sum, as over every k.

    The forward loop runs from k_a to the last index K, the first at which
    both tails are dropped: for each integral, past the point where r_k <=
    1/2 (its own ratio for G), the terms after k sum to at most d_k U(a_k)
    r_k / (1 - r_k), with U(a) = min(e^z / a, (a+1) / (a (a+1-z)) if
    a + 1 > z) from 1/a <= S(a, z) <= e^z / a, and that bound must be below
    1e-17 of the least possible sum.  ``_tail_bound_log`` states it once, in
    logs, behind a one-multiply screen (``_proven_tail_log``).  F's proof is
    tried first; G's only from the index where F's passed, and K is the first
    index where G's passes too.  That is still the first index where both
    pass: in this phase G's bound, d_k x / (a_k + 1) U(a_k + 1) rho_g, falls at
    every step (d_k by r <= 1/2, U and rho_g with k), while its limit 1e-17
    peak_g is fixed, a rescale moving d_k and peak_g together, so once it
    passes it passes at every later index.  The loop keeps each integral's
    bound from the index where it was proven, which covers the terms after K
    too, and the final check compares the kept bounds with the sums.

    Up to k_h, the first index where r <= 1/2, nothing in the forward loop
    reads beta: not d_k, not the peaks.  That half is the run at (nu, x)
    (``_forward`` with z None).  ``fg_log`` keeps runs in an lru cache,
    ``_run``, and passes one in, so every beta at one (nu, x) shares it: a
    later beta redoes only the loop from k_h on, where each step is a
    multiply and the tail proofs, stores the coefficients past the run's last
    one, and fills only the chunks below k_a that no earlier beta filled.
    Every stored float comes from the same operations in the same order as
    in a pass without a run, so the two return the same bits; ``F`` and
    ``G`` pass no run.  A default sweep builds 275 runs for its 1,375
    points, and the two tables and the limiting forms 31 for their 90.

    S(a_K + 1, z) is summed directly and S(a_K, z) = (1 + z S(a_K + 1, z)) /
    a_K follows from it; below K, S(a, z) = (1 + z S(a+1, z)) / a (DLMF 8.8.1)
    runs downward in a, the direction in which it only adds positive numbers
    (Gautschi, ACM TOMS 25, 1999).  Each two-step leg a_k + 2 -> a_k + 1 ->
    a_k passes G's S(a_k + 1, z) on its way to F's S(a_k, z).  S ~ e^z / a
    overflows for z > 709, so it is carried, like the coefficients, as a
    mantissa with a running e^30 shift; summing logs instead would lose about
    K ulp(|ln T_k|), 1e-10 at x = 1000.

    The downward pass has two legs.  The first runs from K to k_a over the
    stored coefficients.  The second runs below k_a, _HEAD_CHUNK indices at a
    time, each coefficient by division, d_{k-1} = d_k / r_{k-1}, and stops at
    a chunk boundary once the head sum_{j<k} T_j is proven below 1e-17 of the
    running sum, for F and for G.  The recurrence gives S(b-1) / S(b) =
    N(b) / (b-1) exactly, with N(b) = 1/S(b) + z rising in b, so T_{j-1} /
    T_j = c_j N(a_j) N(a_j - 1) / x^2 with c_j = (2j+1) / (2j+2nu), and G's
    ratio has a smaller c_j and N(a_j + 1) N(a_j).  For j <= k both ratios
    are thus at most c_j rho, rho = (1/S(a_k + 1, z) + z)^2 / x^2, and the
    head is at most T_k times the lesser of c rho / (1 - c rho), c = max_j
    c_j = max(1, 3 / (2nu + 2)), and C_k rho / (1 - rho) (``_head_bound``).
    For nu < 1/2 every c_j > 1, so C_k = prod_{j<=k} c_j = Gamma(k+3/2)
    Gamma(nu+1) / (Gamma(3/2) Gamma(k+nu+1)) tops every partial product; for
    nu >= 1/2, C_k = 1.  rho >= beta^2, so at beta = 1 the leg runs to k = 0.
    Raises ConvergenceError if either dropped tail exceeds 1e-16 of its sum
    or a term cap is reached.
    """
    z = beta * x
    q = 0.25 * x * x
    a0 = 2.0 * nu + 2.0
    log_x = math.log(x)
    log_d0 = a0 * log_x - (nu + 1.0) * _LN2 - _LN_GAMMA_3_2 - log_gamma(nu + 1.5)
    k_a, d_mant, d_shift, k, tail_f, tail_g = _forward(nu, x, q, a0, z, run)
    a = a0 + 2.0 * k

    # S(a_K + 1, z), summed directly, then downward in a: S = s e^{s_shift};
    # F's sum is total_f e^{log_d0 - z + t_shift} and G's x total_g e^{log_d0
    # - z + t_shift}.  First leg: K down to k_a; second leg: below k_a, a
    # chunk at a time, each chunk's coefficients by division, and the head
    # test at each chunk boundary
    s_shift, s_g = _kummer_sum(a + 1.0, z)
    one = math.exp(-s_shift)  # 1 in units of e^{s_shift}
    s_f = (one + z * s_g) / a
    total_f = total_g = 0.0
    t_shift = d_shift[k]
    scale = t_shift
    factor = 1.0  # e^{scale - t_shift}
    k_low = k_a  # d_mant[k] holds d_k for k >= k_low
    while True:
        if d_shift[k] + s_shift != scale:
            scale = d_shift[k] + s_shift
            if scale > t_shift:
                rescale = math.exp(t_shift - scale)
                total_f *= rescale
                total_g *= rescale
                t_shift = scale
            factor = math.exp(scale - t_shift)
        d = d_mant[k] * factor
        total_f += d * s_f
        total_g += d * s_g / (a + 1.0)
        if k == k_low:
            if k == 0:
                break
            if beta < 1.0:  # the head test needs rho < 1, and rho >= beta^2
                n = (one / s_g + z) / x
                b = _head_bound(nu, k, n * n)
                if d * s_f * b <= _EPS * total_f and d * s_g / (a + 1.0) * b <= _EPS * total_g:
                    break
            k_low = max(0, k - _HEAD_CHUNK)
            if not d_mant[k_low]:  # a run keeps the chunks an earlier beta filled
                m, shift = d_mant[k], d_shift[k]
                for j in range(k - 1, k_low - 1, -1):
                    m /= q / ((j + 1.5) * (j + nu + 1.5))
                    if m < 1.0:
                        m *= _EXP30
                        shift -= 30.0
                    d_shift[j] = shift
                    d_mant[j] = m
        k -= 1
        a = a0 + 2.0 * k
        s_g = (one + z * s_f) / (a + 1.0)
        s_f = (one + z * s_g) / a
        if s_f > _EXP30:
            s_f /= _EXP30
            s_g /= _EXP30
            one /= _EXP30
            s_shift += 30.0

    sum_f = math.log(total_f) + t_shift
    sum_g = math.log(total_g) + log_x + t_shift
    if tail_f > _LN_1E_16 + sum_f:
        raise ConvergenceError("termwise series tail of F above 1e-16 of its sum")
    if tail_g > _LN_1E_16 + sum_g:
        raise ConvergenceError("termwise series tail of G above 1e-16 of its sum")
    return log_d0 - z + sum_f, log_d0 - z + sum_g


def integral_series(nu: float, beta: float, x: float) -> ScaledReal:
    """``F`` restricted to 0 < beta < 1 and x > 0, the interior-beta domain of
    the incomplete-gamma series it names; F's argument checks do the rest."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"series route requires 0 < beta < 1, got {beta}")
    if not x > 0.0:
        raise DomainError(f"series route requires x > 0, got {x}")
    return ScaledReal.from_log(_integral_pair_log("series route", nu, beta, x)[0])


def integral_beta1(nu: float, x: float) -> ScaledReal:
    """Closed form at beta = 1:
    e^{-x} x^{nu+1} (L_nu(x) + L_{nu+1}(x)) / (2 nu + 1)
      - gamma(2 nu + 2, x) / (sqrt(pi) 2^nu (2 nu + 1) Gamma(nu + 3/2)).
    """
    if not nu > -0.5:
        raise DomainError(f"beta=1 closed form requires nu > -1/2, got {nu}")
    if not x > 0.0:
        raise DomainError(f"beta=1 closed form requires x > 0, got {x}")
    _require_finite("beta=1 closed form", nu, x)
    struve_sum = struve_l_scaled(nu, x) + struve_l_scaled(nu + 1.0, x)
    first = ScaledReal.from_log(
        (nu + 1.0) * math.log(x) - math.log(2.0 * nu + 1.0)
    ) * struve_sum
    second = ScaledReal.from_log(
        lower_incomplete_gamma_log(2.0 * nu + 2.0, x)
        - _LN_SQRT_PI
        - nu * _LN2
        - math.log(2.0 * nu + 1.0)
        - log_gamma(nu + 1.5)
    )
    return first - second


def integral_beta0(nu: float, x: float) -> ScaledReal:
    """Closed form at beta = 0:
    x^{2nu+2} 2F3(1, nu+1; 3/2, nu+3/2, nu+2; x^2/4)
      / (sqrt(pi) 2^{nu+1} (nu + 1) Gamma(nu + 3/2)).
    """
    if not nu > -1.0:
        raise DomainError(f"beta=0 closed form requires nu > -1, got {nu}")
    if not x > 0.0:
        raise DomainError(f"beta=0 closed form requires x > 0, got {x}")
    _require_finite("beta=0 closed form", nu, x)
    hyp = pfq((1.0, nu + 1.0), (1.5, nu + 1.5, nu + 2.0), 0.25 * x * x)
    coeff = ScaledReal.from_log(
        (2.0 * nu + 2.0) * math.log(x)
        - _LN_SQRT_PI
        - (nu + 1.0) * _LN2
        - math.log(nu + 1.0)
        - log_gamma(nu + 1.5)
    )
    return coeff * hyp.value


def _integral_pair_log(name: str, nu: float, beta: float, x: float, cached=False):
    """(ln F, ln G) with F/G argument checks; -inf for both at x = 0.  Only a
    cached call reads or builds the run at (nu, x)."""
    if not -1.0 < nu <= _NU_MAX:
        raise DomainError(f"{name} requires -1 < nu <= {_NU_MAX:g}, got {nu}")
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"{name} requires beta in [0, 1], got {beta}")
    if x < 0.0:
        raise DomainError(f"{name} requires x >= 0, got {x}")
    if not x < math.inf:  # nan or +inf; the test on nu refuses both for nu
        raise DomainError(f"{name} requires finite arguments, got {(nu, x)}")
    if x == 0.0:
        return _NEG_INF, _NEG_INF
    return _termwise_pair_log(nu, beta, x, _run(nu, x) if cached else None)


def fg_log(nu: float, beta: float, x: float) -> tuple[float, float]:
    """(ln F, ln G) at one point from one engine pass; -inf at x = 0.

    Takes the arguments of ``F`` and ``G``; for callers that need both, or
    that ask at several beta for one (nu, x).  The beta-free half of the
    pass, its run, is kept for the last ``_RUNS`` (nu, x), so the later
    beta skip it; the values are bit for bit those of ``F`` and ``G`` (see
    ``_termwise_pair_log``).  A log's absolute error is at least ulp(|log|):
    at beta = 1/2, x = 1, ln F is off by 1.35e-9 at nu = 1e6, 2.0e-8 at 1e7
    and 2.1e-6 at 1e9 against a 40-digit termwise reference.
    """
    return _integral_pair_log("F and G", nu, beta, x, True)


def F(nu: float, beta: float, x: float) -> ScaledReal:
    """F(nu, beta, x) = integral_0^x e^{-beta t} t^nu L_nu(t) dt, nu > -1,
    0 <= beta <= 1, x >= 0, by termwise integration in Kummer form for every
    beta (see ``_termwise_pair_log``), summed to full double precision.
    """
    return ScaledReal.from_log(_integral_pair_log("F", nu, beta, x)[0])


def G(nu: float, beta: float, x: float) -> ScaledReal:
    """G(nu, beta, x) = integral_0^x e^{-beta t} t^nu L_{nu+1}(t) dt, the
    second half of the same engine pass as F."""
    return ScaledReal.from_log(_integral_pair_log("G", nu, beta, x)[1])
