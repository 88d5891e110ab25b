import math
import pathlib
from typing import NamedTuple

import pytest

from struveint import specfun

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "specfun_golden.txt"

# one line per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE_VERDICTS: list[str] = []


@pytest.fixture(scope="session")
def acceptance_verdicts():
    return ACCEPTANCE_VERDICTS


@pytest.fixture
def cold_bessel_k():
    """Both Bessel K caches cleared before and after the test: a warm order
    or base would skip the loops a test patches or counts."""
    caches = (specfun._bessel_k_scaled_log, specfun._bessel_k_base)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


class TableErratum(NamedTuple):
    printed: float  # the cell as tables.py holds it, kept verbatim
    reference: float  # U/F - 1 from table2_metric_mpmath at 50 digits


# Two Table-2 cells, keyed (nu, beta, x), whose printed values differ from the
# true metric by 3.6e-4 and 4.2e-4, beyond the 4-decimal rounding that every
# other cell honours.  The correct 4-decimal values are 86.0705 and 92.3240.
# The reference column comes from table2_metric_mpmath with no struveint code
# involved; tests/test_harness.py recomputes it whenever mpmath is installed.
TABLE2_ERRATA = {
    (10.0, 0.5, 0.5): TableErratum(printed=86.0701, reference=86.07046027786995),
    (5.0, 0.75, 0.5): TableErratum(printed=92.3236, reference=92.3240191920301),
}


def table2_metric_mpmath(nu, beta, x):
    """Table-2 metric U/F - 1 computed with mpmath alone, at 50 digits.

    U = e^{-beta x} x^nu L_nu(x) / (1 - beta) uses ``mpmath.struvel``.  F is
    the Struve power series integrated term by term: with a = 2k + 2nu + 2,
    the k-th term of t^nu L_nu(t) is t^(a-1) / (2^(2k+nu+1) Gamma(k+3/2)
    Gamma(k+nu+3/2)), and its integral against e^{-beta t} over [0, x] is
    beta^(-a) gamma(a, beta x), evaluated with ``mpmath.gammainc``.  The
    terms are positive, so the sum carries no cancellation.
    """
    import mpmath

    with mpmath.workdps(50):
        nu, beta, x = mpmath.mpf(nu), mpmath.mpf(beta), mpmath.mpf(x)
        half = mpmath.mpf(1) / 2
        f = mpmath.mpf(0)
        k = 0
        while True:
            a = 2 * k + 2 * nu + 2
            term = beta ** (-a) * mpmath.gammainc(a, 0, beta * x) / (
                2 ** (2 * k + nu + 1)
                * mpmath.gamma(k + 1 + half)
                * mpmath.gamma(k + nu + 1 + half)
            )
            f += term
            if term < f * mpmath.mpf(10) ** -45:
                break
            k += 1
        u = mpmath.exp(-beta * x) * x**nu * mpmath.struvel(nu, x) / (1 - beta)
        return float(u / f - 1)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def load_golden():
    """Parse the golden file into (function, nu, x, log_value) tuples."""
    rows = []
    for line in GOLDEN_PATH.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, nu, x, mantissa, exponent = line.split(",")
        log_value = math.log(float(mantissa)) + float(exponent)
        rows.append((name, float(nu), float(x), log_value))
    return rows


@pytest.fixture(scope="session")
def golden_rows():
    return load_golden()
