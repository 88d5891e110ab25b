r"""F and G, and the kernels L and I, past x = 100 in O(1), from their
large-x expansion, with a remainder bound proven at each call.

``pair_log`` returns (ln F, ln G), or None where the route does not apply or
its remainder is not proven below 1e-16 of the value; ``integrals`` then runs
its termwise engine.  ``kernel_log`` returns ln(e^-x I_mu(x)) or ln(e^-x
L_mu(x)), or None likewise; ``specfun`` then sums the series.  Both sum the
Hankel expansion in one loop (``_hankel_sum``) and bound it with the same
Olver and Stokes bounds (below).  ``integrals`` and ``specfun`` import this
module at the first call past x = 100, so ``import struveint`` does not
compile it.

The kernels.  I_mu(x) = e^x / sqrt(2 pi x) (sum_{n<N} (-1)^n a_n(mu) x^-n +
rho_N(x)), with rho_N bounded as in "The expansion" below, at t = x, and
|L_mu - I_mu| <= e^(``_struve_excess_log``(mu, x)) for mu > -1 ("L - I"
below).  ``kernel_log`` returns ln(sum_{n<N} (-1)^n a_n(mu) x^-n) - ln
sqrt(2 pi x), for I and for L alike, where the bound on rho_N and, for L,
the one on L - I are together below 1e-16 of the sum.  It is tried for
mu^2 <= x (and mu > -1 for L), where the sum ends by N = 20.  Against
40-digit mpmath for x from 150 to 1e6 its log is within 1.3e-15.

Tried for 100 < x <= 5e4, (1 - beta) x >= 60 and nu^2 <= x.  For large t,
L_mu = I_mu + M_mu with M_mu algebraic (DLMF 11.6), and I_mu(t) = e^t /
sqrt(2 pi t) (sum_{n<N} (-1)^n a_n(mu) t^-n + rho_N(t)) (DLMF 10.40.1, a_n
from 10.17.1: a_n = a_{n-1} (4 mu^2 - (2n-1)^2) / (8n)).  With c = 1 -
beta, s = nu - 1/2 and U(t) = e^(ct) t^s / sqrt(2 pi), the sum

.. math::
    A_N(t) = U(t) \sum_{n<N} b_n t^{-n}, \quad b_0 = 1/c, \quad
    c\,b_n = (-1)^n a_n - (s - n + 1)\,b_{n-1},

has A_N' = U (sum_{n<N} (-1)^n a_n t^-n + (s - N + 1) b_{N-1} t^-N), so
for F (mu = nu; G is the same with mu = nu + 1) and any x0 < x

.. math::
    F(x) - A_N(x) = F(x_0) - A_N(x_0)
        + \int_{x_0}^x e^{-\beta t} t^\nu M_\mu\,dt
        + \int_{x_0}^x U (\rho_N - (s - N + 1) b_{N-1} t^{-N})\,dt.

With x0 = x - 42 / c (``_ROUTE_GAP``) the three parts are bounded thus:

* The expansion.  I_mu(t) = (K_mu(t e^{-pi i}) - e^{mu pi i} K_mu(t)) /
  (pi i) (DLMF 10.34.2), K_mu(t) = sqrt(pi / (2t)) e^-t (sum_{n<N} a_n
  t^-n + R_N(t)), and the bounds on R_N (DLMF 10.40(ii)-(iii),
  10.17.15-16) give |rho_N(t)| <= 2 |a_N| chi(N) e^(pi |mu^2 - 1/4| /
  (2t)) t^-N + |sin mu pi| e^(-2t) (1 + k e^k), k = |mu^2 - 1/4| / t (R_1
  for the second), with chi(N) = sqrt(pi) Gamma(N/2 + 1) / Gamma(N/2 +
  1/2) < sqrt(pi (N/2 + 1)) (Gautschi).  On t >= x0, e^(ct) t^(s-N)
  rises at rate at least c - max(N - s, 0) / x0, which must be positive,
  so the integral of U t^-N is at most U(x) x^-N over that rate.  N is
  the first index where this part is below half of 1e-16 of the sum
  (``_hankel_sum``).  The first term is zero where a_N(mu) is (mu =
  1/2, 3/2, ...), and it holds there: the e^t part of I then ends.
* L - I.  For mu > -1/2, M_mu(t) = -2 (t/2)^mu / (sqrt(pi) Gamma(mu +
  1/2)) integral_0^1 e^(-tu) (1 - u^2)^(mu - 1/2) du (DLMF 11.5.4), so
  |M_mu| <= (t/2)^(mu-1) / (sqrt(pi) Gamma(mu + 1/2)) for mu >= 1/2, and
  for |mu| < 1/2, splitting at u = 1/2 and with 1 / Gamma <= 1 / 0.8856,
  |M_mu| <= 4 sqrt(2) (t/4)^mu / (0.8856 sqrt(pi) t).  Below -1/2,
  M_mu = M_{mu+2} + 2 (mu+1) / t M_{mu+1} + (t/2)^(mu+1) / (sqrt(pi)
  Gamma(mu + 5/2)) (DLMF 11.4.23 less 10.29.1) reduces to those
  (``_struve_excess_log``).  Each bound is a sum of powers of t with
  positive coefficients, so t^nu times it is largest at x0 or x; times
  e^(-beta x0) >= e^(-beta t) and x - x0 it bounds the integral.
* The constant of integration.  |F(x0) - A_N(x0)| <= F(x0) + |A_N(x0)|,
  the second summed with the expansion.  For the first, e^-t sqrt(t)
  L_mu(t) <= Lambda on t >= 1 (``_struve_growth_bound``): 1 / sqrt(2 pi)
  for mu >= 1/2, since M_mu < 0 there and I_mu <= I_{1/2} < e^t /
  sqrt(2 pi t) (DLMF 10.37); 2^-mu / sqrt(pi) for |mu| < 1/2, from the
  integral of DLMF 11.5.4 with (2 - v)^(mu - 1/2) <= 1 at u = 1 - v; and
  through the recurrence of L below that.  L_mu(t) / t^(mu+1) rises in t
  (its series has positive terms), so the integral over [0, 1] is at
  most e Lambda / (nu + mu + 2), and over [1, x0] at most Lambda times
  the integral of e^(ct) t^s, split at x0 / 2 (x0 >= 0.3 x past the
  gate).  Each piece is of order e^-42 U(x) or less.

The route returns None unless the three parts together are below 1e-16
of the sum, for F and then for G; the engine then runs as before.  The
exponent c x + s ln x reaches the thousands, so beta x is split exactly
(Dekker's product) and ``math.fsum`` adds the parts, for one rounding of
each log.
"""

from __future__ import annotations

import math

from .specfun import _LN2, _LN_SQRT_PI

# the route is tried for 100 < x <= _ROUTE_X_MAX, (1 - beta) x >= _ROUTE_CX
# and nu^2 <= x.  Up to x = 5e4 the engine's pass ends near k = 0.71 x, well
# inside its term cap, so the route takes no call that the engine refuses.
# At x <= 1000 the bound holds from (1 - beta) x = 60 on for nu >= 1, and
# needs 60 to 66 for nu in (-1, 1), where a call nearer the gate mostly
# declines when the rate of e^(ct) t^(s-n) runs out, about 20 terms in.  The
# expansion's terms fall only once x is large against nu^2
_ROUTE_X_MAX = 5e4
_ROUTE_CX = 60.0
# the expansion is integrated up from x0 = x - _ROUTE_GAP / (1 - beta); what
# lies below x0 enters its bound times e^-_ROUTE_GAP.  41 and 43 moved the
# least (1 - beta) x where the bound holds by at most one either way
_ROUTE_GAP = 42.0
# the route's proven remainder stays below this share of its value
_ROUTE_TOL = 1e-16
# 1 / Gamma(y) < 1 / 0.8856 for every y > 0: Gamma's least value on (0, inf)
# is 0.885603... at y = 1.4616...
_INV_GAMMA_MIN = 1.0 / 0.8856
# Dekker's splitter 2^27 + 1: c * a - (c * a - a) keeps a's high 26 bits
_SPLIT = 134217729.0
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)


def _struve_excess_log(mu: float, t: float) -> float:
    """ln of an upper bound on |M_mu(t)| = |L_mu(t) - I_mu(t)|, mu > -1, t > 0;
    its exponential is a sum of powers of t with positive coefficients (see
    the module docstring)."""
    if mu >= 0.5:
        return (mu - 1.0) * math.log(0.5 * t) - math.lgamma(mu + 0.5) - _LN_SQRT_PI
    if mu > -0.5:
        return mu * math.log(0.25 * t) + math.log(
            4.0 * math.sqrt(2.0) * _INV_GAMMA_MIN / (_SQRT_PI * t)
        )
    return math.log(
        math.exp(_struve_excess_log(mu + 2.0, t))
        + 2.0 * (mu + 1.0) / t * math.exp(_struve_excess_log(mu + 1.0, t))
        + _INV_GAMMA_MIN * (0.5 * t) ** (mu + 1.0) / _SQRT_PI
    )


def _struve_growth_bound(mu: float) -> float:
    """An upper bound on e^-t sqrt(t) L_mu(t) over t >= 1, mu > -1 (see the
    module docstring)."""
    if mu >= 0.5:
        return 1.0 / _SQRT_2PI
    if mu > -0.5:
        return 2.0**-mu / _SQRT_PI
    return 1.0 / _SQRT_2PI + (
        (mu + 1.0) * 2.0**-mu + 2.0 ** (-mu - 1.0) * _INV_GAMMA_MIN
    ) / _SQRT_PI


def _stokes_bound(mu: float, kappa: float, part: float) -> float:
    """|sin mu pi| part (1 + kappa e^kappa): I's e^(-2t) part beside its
    expansion, with part the e^(-2t) factor or its integral (see the module
    docstring)."""
    return abs(math.sin(math.pi * mu)) * part * (1.0 + kappa * math.exp(kappa))


def _hankel_sum(mu: float, x: float, kappa: float, c: float = 0.0, s: float = 0.0,
                x0: float = 0.0):
    """The Hankel expansion of I_mu at x, summed to the first index N where
    its remainder bound is below half of ``_ROUTE_TOL`` of the sum: (the sum,
    that bound, sum_{n<N} |b_n| x0^-n).

    With c = 0 the terms are I's own, (-1)^n a_n(mu) x^-n, the bound is 2
    |a_N| chi(N) e^(pi kappa / 2) x^-N with kappa = |mu^2 - 1/4| / x, and
    the third entry is 1 (``kernel_log``).  With c = 1 - beta > 0 they are
    b_n x^-n and the bound is the expansion part of the module docstring,
    with kappa = |mu^2 - 1/4| / x0 (``pair_log``); the result is None where
    the rate of e^(ct) t^(s-N) on [x0, x] reaches zero first.
    """
    h = 4.0 * mu * mu
    stokes = 2.0 * _SQRT_PI * math.exp(0.5 * math.pi * kappa)
    lim = 0.5 * _ROUTE_TOL
    cx0 = c * x0
    # a is (-1)^n a_n(mu) and b is b_n (a_n itself where c = 0)
    a = 1.0
    b = total = abs_b = 1.0 / c if c else 1.0
    x_pow = x0_pow = 1.0
    n = 0
    while True:
        n += 1
        k = 2 * n - 1
        a *= (k * k - h) / (8 * n)
        x_pow /= x
        if not c:
            tail = abs(a) * math.sqrt(0.5 * n + 1.0) * stokes * x_pow
            if tail <= lim * total:
                return total, tail, abs_b
            total += a * x_pow
            continue
        rise = cx0 - n + s  # x0 times the least rate of e^(ct) t^(s-n)
        if rise <= 0.0:
            return None
        if rise > cx0:
            rise = cx0
        bm = (s - n + 1.0) * b
        tail = (abs(a) * math.sqrt(0.5 * n + 1.0) * stokes + abs(bm)) * x_pow * x0 / rise
        if tail <= lim * total:
            return total, tail, abs_b
        b = (a - bm) / c
        x0_pow /= x0
        total += b * x_pow
        abs_b += abs(b) * x0_pow


def pair_log(nu: float, beta: float, x: float):
    """(ln F, ln G) from the large-x expansion, or None where the route does
    not apply or the remainder is not proven below 1e-16 (see the module
    docstring)."""
    c = 1.0 - beta
    if not (x <= _ROUTE_X_MAX and c * x >= _ROUTE_CX and nu * nu <= x):
        return None
    s = nu - 0.5
    log_x = math.log(x)
    x0 = x - _ROUTE_GAP / c
    log_x0 = math.log(x0)
    # the parts of the bound that F and G share, in units of U(x); e^(-cx)
    # may underflow, which drops less than 1e-300 of the sum
    far = math.exp(-c * (x - x0) + s * (log_x0 - log_x))  # U(x0) / U(x)
    stokes_part = (x - x0) * far * math.exp(-2.0 * x0) * max((x / x0) ** s, 1.0)
    head_part = _SQRT_2PI * (
        math.exp(-c * (x - 0.5 * x0) + max(s, 0.0) * (log_x0 - _LN2) - s * log_x) * 0.5 * x0
        + far * max(2.0**-s, 1.0) / c
    )
    tiny = _SQRT_2PI * math.exp(1.0 - c * x - s * log_x)
    # e^(-beta t) <= e^(-beta x0) = e^(cx0 - x0) on [x0, x]
    offset = c * x0 - x0 - c * x - s * log_x
    # beta x = p + err exactly
    p = beta * x
    t = _SPLIT * beta
    b_hi = t - (t - beta)
    t = _SPLIT * x
    x_hi = t - (t - x)
    b_lo, x_lo = beta - b_hi, x - x_hi
    err = ((b_hi * x_hi - p) + b_hi * x_lo + b_lo * x_hi) + b_lo * x_lo
    logs = []
    for mu in (nu, nu + 1.0):
        kappa = abs(mu * mu - 0.25) / x0
        found = _hankel_sum(mu, x, kappa, c, s, x0)
        if found is None:
            return None
        total, tail, abs_b = found
        excess = max(
            nu * log_x0 + _struve_excess_log(mu, x0), nu * log_x + _struve_excess_log(mu, x)
        )
        bound = (
            tail  # the expansion: its first neglected term, then I's e^(-2t) part
            + _stokes_bound(mu, kappa, stokes_part)
            + _SQRT_2PI * (x - x0) * math.exp(min(excess + offset, 0.0))  # L - I
            + far * abs_b  # the constant: |A_N(x0)|
            + _struve_growth_bound(mu) * (tiny / (nu + mu + 2.0) + head_part)  # F(x0)
        )
        if not bound <= _ROUTE_TOL * total:
            return None
        logs.append(math.fsum((x, -p, -err, s * log_x - _LN_SQRT_2PI + math.log(total))))
    return logs[0], logs[1]


def kernel_log(mu: float, x: float, struve: bool = False):
    """ln(e^-x I_mu(x)) from DLMF 10.40.1 for x > 100, or with ``struve``
    ln(e^-x L_mu(x)); None where mu^2 > x, where mu <= -1 for L, or where
    the remainder is not proven below 1e-16 of the value.

    The remainder is the expansion's first neglected term, bounded as in
    ``_hankel_sum``, and I's e^(-2x) part (``_stokes_bound``); for L it also
    holds the bound on |L - I| (``_struve_excess_log``), in the same units,
    since L = I + (L - I) and only I is summed.  Past x = 100 with mu^2 <=
    x each factor |(2n-1)^2 - 4 mu^2| / (8 n x) of the terms is at most
    max(1 / (2n), n / 200), so by N = 20 the first part is below 1e-19
    while the sum is above 0.35: the sum ends there at the latest.  The
    e^(-2x) part is below e^-190 of the value, and the L - I part below
    e^-76 (at mu = 10, x = 100).
    """
    if not (mu * mu <= x and (mu > -1.0 or not struve)):
        return None
    kappa = abs(mu * mu - 0.25) / x
    total, tail, _ = _hankel_sum(mu, x, kappa)
    log_front = _LN_SQRT_2PI + 0.5 * math.log(x)  # ln sqrt(2 pi x)
    bound = tail + _stokes_bound(mu, kappa, math.exp(-2.0 * x))
    if struve:
        bound += math.exp(_struve_excess_log(mu, x) + log_front - x)
    return math.log(total) - log_front if bound <= _ROUTE_TOL * total else None
