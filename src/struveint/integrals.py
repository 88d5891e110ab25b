r"""Evaluation of F(nu, beta, x) = integral_0^x exp(-beta t) t^nu L_nu(t) dt
and its companion G with integrand t^nu L_{nu+1}(t).

``F`` and ``G`` evaluate both integrals for every nu > -1 and 0 <= beta <= 1
with one engine (past x = 100 other routes come first; see below),
``_termwise_pair_log``: the Struve series integrated term by term, each term
in the Kummer form of the incomplete gamma function (DLMF 8.7.1),

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
are kept, each made once going up and summed once coming down.

Past x = 100 three routes come ahead of the engine:

* for (1 - beta) x >= 60 and nu^2 <= x, ``large_x.pair_log`` integrates
  the Hankel expansion of I_nu term by term: F = e^{(1-beta) x}
  x^{nu-1/2} / sqrt(2 pi) sum_n b_n x^-n.  It returns only where a
  remainder bound, proven per call, is below 1e-16 of the value: the
  expansion's first neglected term (DLMF 10.40), the algebraic part
  L_nu - I_nu, and the constant of integration;
* at beta = 1 and nu > -1/2, F alone comes from its closed form (``_beta1_log``),

  .. math::
      F_{\nu,1}(x) = \frac{e^{-x} x^{\nu+1} (L_\nu + L_{\nu+1})}{2\nu+1}
          - \frac{\gamma(2\nu+2, x)}{\sqrt\pi\,2^\nu (2\nu+1)\,\Gamma(\nu+3/2)},

  with both L kernels from their large-x expansion (``large_x.kernel_log``),
  each proven within 1e-16.  It returns only where both kernels are proven
  and kappa = first / (first - second), the factor by which the difference
  magnifies its terms' relative errors, is at most 4 (``_BETA1_KAPPA_MAX``);
  at x in (100, 1e4] its ln F is within 3e-14 of a 40-digit reference;
* at beta = 1, G, and F where its closed form declines, are the engine's
  value at x1 = max(48, (nu + 1)^2 / 3) < x plus the Hankel expansion of
  the integrand integrated exactly from x1 to x (``large_x.beta1_log``),
  with the remainder proven below 1e-16 of that sum per call.  One engine
  pass at x1 gives both F(x1) and G(x1), so a call costs O(x1) and a sum of
  at most about 25 terms, where the engine at x costs O(x).

Where a route declines, the engine runs, with the bits it had without the
routes.  ``fg_log`` hands both logs to callers that need the pair, and
caches the beta-free half of the engine's pass, which the beta of one
(nu, x) read and never write; F and G build that half per call.
``integral_series`` is another name for ``F``.  All three agree bit for bit.
The other routes stay as oracles for the tests:

* ``integral_quad``   -- double-exponential quadrature of the integrand;
* ``integral_beta1``  -- the closed form at beta = 1 for every x > 0,
  from the same two terms as F's route (``_beta1_terms_log``) with the
  kernels of ``struve_l_scaled_log``;
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
    _LARGE_X,
    _LN2,
    _LN_GAMMA_3_2,
    _LN_SQRT_PI,
    _kummer_sum,
    _require_finite,
    log_gamma,
    lower_incomplete_gamma_log,
    pfq,
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
# ``fg_log`` keeps the beta-free half of the pass, a run, for this many
# (nu, x): the paper's tables ask for 28 at once, the default sweep for 25
_RUNS = 32
# a (a + 1 - z) in the tail bound overflows once a = 2 nu + 2 passes 1.3e154
_NU_MAX = 1e150

# past x = 100 at beta = 1, F comes from its closed form (``_beta1_log``) only
# where kappa = first / (first - second), the factor by which the difference
# magnifies its terms' relative errors, is at most this; nearer nu = -1/2
# the two terms cancel and the engine runs
_BETA1_KAPPA_MAX = 4.0

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
    if not 1e-13 <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= 1e-13, got {tol}")
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


def _rise(nu: float, x: float, q: float, a0: float):
    """The beta-free half of the pass (see ``_termwise_pair_log``), up to k_h,
    the first index where r <= 1/2: (d_mant, d_shift, k_h, peak_f, peak_g,
    r_{k_h})."""
    # the rising loop below stops at k_p, the first k with r_k <= 1, and
    # tests no cap: k_p is past the term cap exactly where r_cap > 1
    cap = MAX_SERIES_TERMS
    if not q <= (cap + 1.5) * (cap + nu + 1.5):
        raise ConvergenceError("termwise series term cap exceeded")
    # d_k = d_mant[k] e^{log_d0 + d_shift[k]} for 0 <= k <= K
    d_mant: list[float] = []
    d_shift: list[float] = []
    m, shift = 1.0, 0.0
    k = 0
    while True:
        d_mant.append(m)
        d_shift.append(shift)
        r = q / ((k + 1.5) * (k + nu + 1.5))
        if r <= 1.0:
            break
        m *= r
        if m > _EXP30:
            m /= _EXP30
            shift += 30.0
        k += 1
    # the peaks over j = 0 and k_p - 2 .. k_p (see ``_termwise_pair_log``),
    # each candidate divided by e^30 once per rescale after j, as a
    # running max over every j <= k_p would divide it: that max, bit for bit
    peak_f = peak_g = 0.0
    for j in (0, k - 2, k - 1, k) if k > 2 else range(k + 1):
        a = a0 + 2.0 * j
        c = d_mant[j] / a
        g = c * (x * a / ((a + 1.0) * (a + 1.0)))
        j_shift = d_shift[j]
        while j_shift < shift:
            c /= _EXP30
            g /= _EXP30
            j_shift += 30.0
        if c > peak_f:
            peak_f = c
        if g > peak_g:
            peak_g = g
    while r > 0.5:
        m *= r
        if m < 1.0:
            m *= _EXP30
            shift -= 30.0
            peak_f *= _EXP30
            peak_g *= _EXP30
        k += 1
        if k > MAX_SERIES_TERMS:
            raise ConvergenceError("termwise series term cap exceeded")
        d_mant.append(m)
        d_shift.append(shift)
        r = q / ((k + 1.5) * (k + nu + 1.5))
    return d_mant, d_shift, k, peak_f, peak_g, r


@lru_cache(maxsize=_RUNS)
def _run(nu: float, x: float):
    """``fg_log``'s run at (nu, x): ``_rise`` frozen into tuples, read by every beta."""
    d_mant, d_shift, *rest = _rise(nu, x, 0.25 * x * x, 2.0 * nu + 2.0)
    return (tuple(d_mant), tuple(d_shift), *rest)


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
    (x^2/4) / ((k+3/2)(k+nu+3/2)) exceeds 1, that is up to k_p, the first k
    with r_k <= 1; past the term cap there (x^2/4 > (cap+3/2)(cap+nu+3/2))
    the pass raises before any loop runs.  The forward loop multiplies the
    coefficients out from d_0, carried as a mantissa with an e^30 shift.
    From k to k + 1, d_k / a_k and G's d_k x / (a_k + 1)^2 move by r_k a_k /
    (a_k + 2) and r_k ((a_k + 1) / (a_k + 3))^2: below r_k, so both fall
    past k_p, and above 1 for 1 <= k <= k_p - 3, where r_k >= r_{k+2}
    (1 + 2/(k+3/2)) (1 + 2/(k+nu+3/2)) and r_{k+2} > 1, so both rise from
    k = 1 to k_p - 2.  Their peaks, each integral's least possible sum, are
    thus the max over k = 0 (the peak for nu near -1) and k_p - 2 .. k_p,
    read once at k_p.

    The forward loop runs on to the last index K, the first at which
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
    reads beta: not d_k, not the peaks.  That half, ``_rise``, is the run at
    (nu, x).  ``fg_log`` keeps runs as tuples in an lru cache, ``_run``, and
    passes one in, so every beta at one (nu, x) shares it: each pass copies
    the run into lists of its own and redoes only the loop from k_h on, a
    multiply and the tail proofs a step; no pass writes a cached run.  ``F``
    and ``G`` pass none and build their own.  Every float comes from the same
    operations in the same order either way, so the two return the same
    bits.  A default sweep builds 275 runs for its 1,375 points, and the two
    tables and the limiting forms 31 for their 90.

    S(a_K + 1, z) is summed directly and S(a_K, z) = (1 + z S(a_K + 1, z)) /
    a_K follows from it; below K, S(a, z) = (1 + z S(a+1, z)) / a (DLMF 8.8.1)
    runs downward in a, the direction in which it only adds positive numbers
    (Gautschi, ACM TOMS 25, 1999).  Each two-step leg a_k + 2 -> a_k + 1 ->
    a_k passes G's S(a_k + 1, z) on its way to F's S(a_k, z).  S ~ e^z / a
    overflows for z > 709, so it is carried, like the coefficients, as a
    mantissa with a running e^30 shift; summing logs instead would lose about
    K ulp(|ln T_k|), 1e-10 at x = 1000.  The downward pass runs once, from K
    to 0, over the stored coefficients.

    Raises ConvergenceError if either dropped tail exceeds 1e-16 of its sum
    or a term cap is reached.
    """
    z = beta * x
    q = 0.25 * x * x
    a0 = 2.0 * nu + 2.0
    log_x = math.log(x)
    # nu + 1.5 lies in (1/2, 1e150], where log_gamma's checks never fire
    log_d0 = a0 * log_x - (nu + 1.0) * _LN2 - _LN_GAMMA_3_2 - math.lgamma(nu + 1.5)
    if run is None:
        d_mant, d_shift, k, peak_f, peak_g, r = _rise(nu, x, q, a0)
    else:  # this pass appends to its own copy of the cached run
        d_mant, d_shift, k, peak_f, peak_g, r = run
        d_mant, d_shift = list(d_mant), list(d_shift)
    # the beta half, k_h to K: r <= 1/2, so m falls and the peaks move only at rescales
    m, shift = d_mant[k], d_shift[k]
    a = a0 + 2.0 * k
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
        d_mant.append(m)
        d_shift.append(shift)
        r = q / ((k + 1.5) * (k + nu + 1.5))

    # S(a_K + 1, z), summed directly, then downward in a: S = s e^{s_shift};
    # F's sum is total_f e^{log_d0 - z + t_shift} and G's x total_g e^{log_d0
    # - z + t_shift}, over the stored coefficients from K down to 0
    s_shift, s_g = _kummer_sum(a + 1.0, z)
    one = math.exp(-s_shift)  # 1 in units of e^{s_shift}
    s_f = (one + z * s_g) / a
    total_f = total_g = 0.0
    t_shift = d_shift[k]
    scale = t_shift
    factor = 1.0  # e^{scale - t_shift}
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
        if k == 0:
            break
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


def _beta1_terms_log(nu: float, x: float, log_l: float, log_l1: float) -> tuple[float, float]:
    """(ln first, ln second) of the closed form at beta = 1 (``integral_beta1``),
    F = first - second, from log_l = ln(e^-x L_nu(x)) and log_l1 = ln(e^-x
    L_{nu+1}(x)); nu > -1/2, x > 0."""
    big, small = (log_l, log_l1) if log_l >= log_l1 else (log_l1, log_l)
    log_2nu1 = math.log(2.0 * nu + 1.0)
    first = math.fsum(
        ((nu + 1.0) * math.log(x), -log_2nu1, big, math.log1p(math.exp(small - big)))
    )
    second = math.fsum((
        lower_incomplete_gamma_log(2.0 * nu + 2.0, x),
        -_LN_SQRT_PI,
        -nu * _LN2,
        -log_2nu1,
        -log_gamma(nu + 1.5),
    ))
    return first, second


def _beta1_log(nu: float, x: float):
    """ln F at beta = 1, nu > -1/2, x > 100, from the closed form with both
    L kernels from ``large_x.kernel_log``; None where either kernel is not
    proven or kappa = first / (first - second) passes ``_BETA1_KAPPA_MAX``."""
    from . import large_x

    log_l1 = large_x.kernel_log(nu + 1.0, x, True)
    log_l = large_x.kernel_log(nu, x, True) if log_l1 is not None else None
    if log_l is None:
        return None
    first, second = _beta1_terms_log(nu, x, log_l, log_l1)
    ratio = math.exp(second - first)  # 1 - 1 / kappa
    return first + math.log1p(-ratio) if ratio <= 1.0 - 1.0 / _BETA1_KAPPA_MAX else None


def integral_beta1(nu: float, x: float) -> ScaledReal:
    """Closed form at beta = 1:
    e^{-x} x^{nu+1} (L_nu(x) + L_{nu+1}(x)) / (2 nu + 1)
      - gamma(2 nu + 2, x) / (sqrt(pi) 2^nu (2 nu + 1) Gamma(nu + 3/2)),
    with the kernels of ``struve_l_scaled_log``; F's route at beta = 1 past
    x = 100 (``_beta1_log``) evaluates the same two terms.
    """
    if not nu > -0.5:
        raise DomainError(f"beta=1 closed form requires nu > -1/2, got {nu}")
    if not x > 0.0:
        raise DomainError(f"beta=1 closed form requires x > 0, got {x}")
    _require_finite("beta=1 closed form", nu, x)
    first, second = _beta1_terms_log(
        nu, x, struve_l_scaled_log(nu, x), struve_l_scaled_log(nu + 1.0, x)
    )
    return ScaledReal.from_log(first) - ScaledReal.from_log(second)


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
    """(ln F, ln G) with F/G argument checks; -inf for both at x = 0.  Past
    x = 100 the large-x route is tried first.  Then at beta = 1 each half
    ``name`` asks for ("F", "G" or "F and G") is taken on its own: ln F
    from F's closed form where it serves, else each half from the engine
    at x1 plus the expansion beyond it (``large_x.beta1_log``), else from
    the engine at x; a half no one asked for may be None.  So ``fg_log``'s
    halves are F's and G's bit for bit.  Only a cached call reads or builds
    the engine's runs, at (nu, x1) and (nu, x)."""
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
    if x > _LARGE_X:
        # imported at the first call past x = 100, so that ``import
        # struveint`` does not compile it (about 1 ms)
        from . import large_x

        logs = large_x.pair_log(nu, beta, x)
        if logs is not None:
            return logs
        if beta == 1.0:
            # each half asked for on its own: F from its closed form where
            # that serves; G, and F where it does not, from the engine at x1
            # plus the expansion beyond it; what is left from the engine at x
            wants = [i for i, other in ((0, "G"), (1, "F")) if name != other]
            logs = [_beta1_log(nu, x) if 0 in wants and nu > -0.5 else None, None]
            todo = [i for i in wants if logs[i] is None]
            x1 = large_x.beta1_x1(nu)
            if todo and x1 < x:
                head = _termwise_pair_log(nu, beta, x1, _run(nu, x1) if cached else None)
                for i in todo:
                    logs[i] = large_x.beta1_log(nu + i, nu, x, x1, head[i])
            if any(logs[i] is None for i in wants):
                engine = _termwise_pair_log(nu, beta, x, _run(nu, x) if cached else None)
                logs = [engine[i] if log is None else log for i, log in enumerate(logs)]
            return tuple(logs)
    return _termwise_pair_log(nu, beta, x, _run(nu, x) if cached else None)


def fg_log(nu: float, beta: float, x: float) -> tuple[float, float]:
    """(ln F, ln G) at one point from one engine pass, or from the large-x
    route past its gate, or at beta = 1 past x = 100 as F and G take them
    (see ``_integral_pair_log``); -inf at x = 0.

    Takes the arguments of ``F`` and ``G``; for callers that need both, or
    that ask at several beta for one (nu, x).  The beta-free half of the
    engine's pass, its run, is kept as tuples for the last ``_RUNS`` (nu, x),
    so the later beta skip it; no pass writes a cached run, and the large-x
    route builds none; at beta = 1 past x = 100 the run at (nu, x1) is
    read.  The values are bit for bit those of ``F`` and ``G``
    (see ``_termwise_pair_log`` and ``large_x``).  A log's absolute error is
    at least ulp(|log|): at beta = 1/2, x = 1, ln F is off by 1.35e-9 at
    nu = 1e6, 2.0e-8 at 1e7 and 2.1e-6 at 1e9 against a 40-digit termwise
    reference.
    """
    return _integral_pair_log("F and G", nu, beta, x, True)


def F(nu: float, beta: float, x: float) -> ScaledReal:
    """F(nu, beta, x) = integral_0^x e^{-beta t} t^nu L_nu(t) dt, nu > -1,
    0 <= beta <= 1, x >= 0, summed to full double precision: past x = 100
    and (1 - beta) x = 60 from its large-x expansion where the remainder is
    proven below 1e-16 (``large_x``), past x = 100 at beta = 1 from its
    closed form where both kernels are proven and the terms do not cancel
    (``_beta1_log``), or else from the engine at x1 < x plus the expansion
    beyond it where its remainder is proven (``large_x.beta1_log``), else by
    termwise integration in Kummer form (``_termwise_pair_log``).
    """
    return ScaledReal.from_log(_integral_pair_log("F", nu, beta, x)[0])


# another name for F, kept because the benchmark's tracer (perfbench/spans.py)
# patches this name; it goes when that span does (ROADMAP item 6)
integral_series = F


def G(nu: float, beta: float, x: float) -> ScaledReal:
    """G(nu, beta, x) = integral_0^x e^{-beta t} t^nu L_{nu+1}(t) dt, the
    second half of the same large-x route or engine pass as F; at beta = 1
    past x = 100, from the engine at x1 < x plus the expansion beyond it
    where its remainder is proven (``large_x.beta1_log``), as F without its
    closed form."""
    return ScaledReal.from_log(_integral_pair_log("G", nu, beta, x)[1])
