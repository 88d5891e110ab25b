"""Independent 30-digit references for F and G, computed with mpmath.

Both integrals expand termwise into integrals of e^(-beta t) t^(a-1):

    F(nu, beta, x) = sum_k c_k J(a_k),   a_k = 2 nu + 2k + 2,
        c_k = 2^-(nu+2k+1) / (Gamma(k+3/2) Gamma(k+nu+3/2))
    G(nu, beta, x) = sum_k c_k J(a_k),   a_k = 2 nu + 2k + 3,
        c_k = 2^-(nu+2k+2) / (Gamma(k+3/2) Gamma(k+nu+5/2))

with J(a) = int_0^x e^(-beta t) t^(a-1) dt = beta^-a gamma(a, beta x).  All
terms are positive for every beta in [0, 1], so the sum is well conditioned
over the whole domain, including nu -> -1, where mpmath's ``quad`` on the raw
integrand loses digits.  J is anchored once at the last needed term with
``mp.gammainc`` and carried down by J(a) = (x^a e^(-beta x) + beta J(a+1))/a
(DLMF 8.8.1), a recurrence of positive terms that never cancels.

Run as a script it reads a JSON list of [fn, nu, beta, x] points on stdin and
writes a JSON list of [ln|value| as a 40-digit string] on stdout.
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp

DIGITS = 30
# truncate once the neglected tail is below e^-60 (~1e-26) of the sum
_TAIL_NATS = 60.0


def _last_term(q: int, nu: float, beta: float, x: float) -> int:
    """Index K beyond which the tail is negligible.

    In the Kummer form J(a) = x^a e^(-beta x) sum_n (beta x)^n / (a)_(n+1)
    (DLMF 8.7.1), (a)_(n+1) >= a^(n+1) puts term k between v_k and
    v_k a_k / (a_k - beta x), where v_k = e^(-beta x) c_k x^a_k / a_k.  Once
    a_k > 2 beta x a term is at most 2 v_k, so stopping where
    v_k < e^-60 max v and v_(k+1)/v_k < 1/2 leaves a relative tail below
    2 e^-60.
    """
    lx = math.log(x)

    def log_v(k: int) -> float:  # ln v_k + beta x
        a = 2.0 * nu + 2.0 * k + 1.0 + q
        return (
            -(nu + 2.0 * k + q) * math.log(2.0)
            - math.lgamma(k + 1.5)
            - math.lgamma(k + nu + 0.5 + q)
            + a * lx
            - math.log(a)
        )

    peak = -math.inf
    k = 0
    while True:
        cur, nxt = log_v(k), log_v(k + 1)
        peak = max(peak, cur)
        a = 2.0 * nu + 2.0 * k + 1.0 + q
        if a > 2.0 * beta * x and nxt - cur < -math.log(2.0) and cur < peak - _TAIL_NATS:
            return k
        k += 1


def log_value(fn: str, nu: float, beta: float, x: float) -> mp.mpf:
    """ln F(nu, beta, x) (fn == "F") or ln G(nu, beta, x) (fn == "G")."""
    q = {"F": 1, "G": 2}[fn]
    with mp.workdps(DIGITS):
        nu_m, beta_m, x_m = mp.mpf(nu), mp.mpf(beta), mp.mpf(x)
        big_k = _last_term(q, nu, beta, x)
        a = 2 * nu_m + 2 * big_k + 1 + q
        if beta == 0.0:
            j = x_m**a / a
        else:
            j = mp.gammainc(a, 0, beta_m * x_m) / beta_m**a
        c = mp.mpf(2) ** (-(nu_m + 2 * big_k + q)) / (
            mp.gamma(big_k + mp.mpf(1.5)) * mp.gamma(big_k + nu_m + mp.mpf(0.5) + q)
        )
        x_pow = x_m**a * mp.exp(-beta_m * x_m)  # x^a e^(-beta x) at a = a_K
        total = c * j
        for k in range(big_k - 1, -1, -1):
            # two downward steps a -> a-1 -> a-2
            for _ in range(2):
                a -= 1
                x_pow /= x_m
                j = (x_pow + beta_m * j) / a
            c *= 4 * (k + mp.mpf(1.5)) * (k + nu_m + mp.mpf(0.5) + q)
            total += c * j
        return mp.log(total)


def main() -> int:
    points = json.load(sys.stdin)
    out = [mp.nstr(log_value(fn, nu, beta, x), 40) for fn, nu, beta, x in points]
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
