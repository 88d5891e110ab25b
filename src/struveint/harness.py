"""Verification harness: reproduce the relative-error tables, sweep the
inequality catalog over grids, profile tightness limits, and check the
limiting forms.

Reports are order-normalized (rows sorted by bound id, nu, beta, x) so
output is independent of evaluation order; all machine rendering prints
floats with 17 significant digits, making repeated runs byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from . import tables
from .bounds import (
    Margin,
    _f_reference,
    _tuple_new,
    check,
    default_x_star,
    eval_bound,
    get_bound,
    list_bounds,
    margin_status,
)
from .errors import DomainError
from .scaled import ScaledReal
from .specfun import bessel_k_scaled, log_gamma, struve_l_scaled, struve_l_scaled_log

__all__ = [
    "GridSpec",
    "TableRow",
    "MarginRow",
    "TableCheckRow",
    "LimitCheckRow",
    "Report",
    "default_grid",
    "parse_grid_file",
    "verify_all",
    "reproduce_table",
    "tightness_profile",
    "asymptotic_check",
    "truncated_sum_error",
    "simple_upper_error",
    "margins_csv",
    "tables_csv",
    "tables_markdown",
    "limits_csv",
    "TABLE_TOLERANCE",
]

TABLE_TOLERANCE = 1.5e-4  # reference tables print 4 decimals


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _log_spaced(lo: float, hi: float, n: int) -> tuple[float, ...]:
    lle, lhe = math.log(lo), math.log(hi)
    return tuple(math.exp(lle + i * (lhe - lle) / (n - 1)) for i in range(n))


_ALL_BOUNDS = tuple(b.bound_id for b in list_bounds())


class _GridFields(NamedTuple):
    nu_values: tuple[float, ...]
    beta_values: tuple[float, ...]
    x_values: tuple[float, ...]
    bound_filter: tuple[str, ...]


class GridSpec(_GridFields):
    """Sweep grid; values must lie in the global domains, and the bound list
    defaults to every catalog id.  A named tuple whose constructor (and so
    ``_replace``) checks the values and keeps the first of a repeated bound
    id, which would otherwise check its rows twice.
    """

    __slots__ = ()

    def __new__(cls, nu_values, beta_values, x_values, bound_filter=_ALL_BOUNDS):
        if not (nu_values and beta_values and x_values):
            raise DomainError("grid value lists must be nonempty")
        for nu in nu_values:
            if not nu > -1.5:
                raise DomainError(f"grid nu must exceed -3/2, got {nu}")
            if nu == math.inf:
                raise DomainError(f"grid nu must be finite, got {nu}")
        for beta in beta_values:
            if not 0.0 < beta < 1.0:
                raise DomainError(f"grid beta must lie in (0, 1), got {beta}")
        for x in x_values:
            if not x > 0.0:
                raise DomainError(f"grid x must be positive, got {x}")
            if x == math.inf:
                raise DomainError(f"grid x must be finite, got {x}")
        if not bound_filter:
            raise DomainError("grid bound list must be nonempty")
        for bound_id in bound_filter:
            get_bound(bound_id)
        bound_filter = tuple(dict.fromkeys(bound_filter))
        return super().__new__(cls, nu_values, beta_values, x_values, bound_filter)

    @classmethod
    def _make(cls, iterable) -> "GridSpec":
        return cls(*iterable)


def default_grid() -> GridSpec:
    """The shipped sweep grid: straddles every validity boundary in nu
    (just inside -1/2, both sides of 0, 1/2, 3/2) and covers three decades
    in x."""
    return GridSpec(
        nu_values=(-0.49, -0.25, -0.1, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 5.0, 10.0),
        beta_values=(0.1, 0.25, 0.5, 0.75, 0.9),
        x_values=_log_spaced(0.05, 100.0, 25),
    )


def _split_list(text: str) -> tuple[str, ...]:
    """The tokens of a comma-separated list, stripped; blank tokens are
    skipped."""
    return tuple(tok for tok in map(str.strip, text.split(",")) if tok)


# grid file key -> GridSpec field
_GRID_KEYS = {"nu": "nu_values", "beta": "beta_values", "x": "x_values", "bounds": "bound_filter"}


def parse_grid_file(text: str) -> GridSpec:
    """Parse the line-oriented ``key=value`` grid format.

    Keys: ``nu``, ``beta``, ``x`` (comma-separated reals) and ``bounds``
    (comma-separated ids), each at most once.  Missing keys fall back to the
    default grid.
    """
    values: dict[str, tuple[str, ...]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"grid line is not key=value: {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _GRID_KEYS:
            raise ValueError(f"unknown grid key {key!r}")
        if key in values:
            raise ValueError(f"repeated grid key {key!r}")
        values[key] = _split_list(val)
    return default_grid()._replace(**{
        name: values[key] if key == "bounds" else tuple(map(float, values[key]))
        for key, name in _GRID_KEYS.items()
        if key in values
    })


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    nu: float
    beta: float
    x: float
    metric: float


class MarginRow(NamedTuple):
    """One sweep row; a named tuple, since verify_all builds one per check
    (through tuple.__new__, without the generated __new__ frame)."""

    bound_id: str
    nu: float
    beta: Optional[float]
    x: float
    x_star: Optional[float]
    margin: Margin
    status: str


@dataclass(frozen=True)
class TableCheckRow:
    which: int
    row: TableRow
    expected: float
    deviation: float
    ok: bool


class LimitCheckRow(NamedTuple):
    name: str
    point: str
    computed: float
    target: float
    tolerance: float
    ok: bool


@dataclass(frozen=True)
class Report:
    rows: tuple
    summary: dict
    max_table_deviation: float = 0.0


def truncated_sum_error(nu: float, beta: float, x: float) -> float:
    """Table-1 metric: 1 - L5/F with the five-term truncated Struve sum."""
    l5 = eval_bound("LB-2.3", nu, beta, x, truncation=5)
    return 1.0 - l5.ratio_to(_f_reference(nu, beta, x))


def simple_upper_error(nu: float, beta: float, x: float) -> float:
    """Table-2 metric: U/F - 1 with the UB-GAU2 upper bound."""
    u = eval_bound("UB-GAU2", nu, beta, x)
    return u.ratio_to(_f_reference(nu, beta, x)) - 1.0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _summary(rows) -> dict:
    """Verdict counts of rows that each carry an ``ok`` flag."""
    ok = sum(row.ok for row in rows)
    return {
        "checked": len(rows),
        "strict": ok,
        "inconclusive": 0,
        "violated": len(rows) - ok,
    }


def reproduce_table(which: int) -> Report:
    """Recompute one relative-error table and compare to the stored cells."""
    metric = truncated_sum_error if which == 1 else simple_upper_error
    rows = []
    for nu, beta, x, expected in tables.cells(which):
        value = metric(nu, beta, x)
        deviation = abs(value - expected)
        rows.append(
            TableCheckRow(
                which=which,
                row=TableRow(nu=nu, beta=beta, x=x, metric=value),
                expected=expected,
                deviation=deviation,
                ok=deviation <= TABLE_TOLERANCE,
            )
        )
    return Report(
        rows=tuple(rows),
        summary=_summary(rows),
        max_table_deviation=max(row.deviation for row in rows),
    )


def _sort_key(row: MarginRow):
    beta = row.beta if row.beta is not None else -1.0
    return (row.bound_id, row.nu, beta, row.x)


def _increasing(values: tuple[float, ...]) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def verify_all(grid: GridSpec) -> Report:
    """Run every in-validity (bound, point) check over the grid.

    Bounds that do not involve beta are evaluated once per (nu, x); UB-3.8
    uses the documented default x_star = 2/(1-beta) and covers the grid
    points with x >= x_star.  A hypothesis that involves x only as x > 0,
    which GridSpec guarantees, is tested once per (bound, nu, beta).
    """
    rows = []
    append = rows.append
    counts = {"checked": 0, "strict": 0, "inconclusive": 0, "violated": 0}
    x_values = grid.x_values
    for bound_id in sorted(grid.bound_filter):
        spec = get_bound(bound_id)
        validity = spec.validity
        betas: Iterable[Optional[float]] = (
            grid.beta_values if spec.uses_beta else (None,)
        )
        for nu in grid.nu_values:
            for beta in betas:
                if spec.uses_x_star:
                    x_star = default_x_star(beta)
                    xs = [x for x in x_values if validity(nu, beta, x, x_star) is None]
                elif validity(nu, beta, x_values[0], None) is None:
                    x_star = None
                    xs = x_values
                else:
                    continue
                for x in xs:
                    margin = check(bound_id, nu, beta, x, x_star)
                    status = margin_status(margin)
                    counts[status] += 1
                    row = (bound_id, nu, beta, x, x_star, margin, status)
                    append(_tuple_new(MarginRow, row))
    counts["checked"] = len(rows)
    # the loops run in key order when each value list strictly increases
    if not (
        _increasing(grid.nu_values)
        and _increasing(grid.beta_values)
        and _increasing(x_values)
    ):
        rows.sort(key=_sort_key)
    return Report(rows=tuple(rows), summary=counts)


def tightness_profile(
    bound_id: str,
    nu: float,
    beta: Optional[float],
    xs: Iterable[float],
    x_star: Optional[float] = None,
    truncation: Optional[int] = None,
) -> list[tuple[float, float]]:
    """Trajectory of bound/reference ratios along ``xs``; for a two-sided
    bound, the binding side's."""
    side = get_bound(bound_id).side.value
    out = []
    for x in xs:
        margin = check(bound_id, nu, beta, x, x_star=x_star, truncation=truncation)
        if side == "two-sided":
            ratio = margin.bound_value.ratio_to(margin.reference_value)
        elif side == "lower":
            ratio = 1.0 - margin.signed_margin
        else:
            ratio = 1.0 + margin.signed_margin
        out.append((x, ratio))
    return out


def _fitted_band_constant(nu: float) -> float:
    # second-order coefficient of the large-x expansions of L and K, padded
    mu = 4.0 * nu * nu
    return 2.0 * abs((mu - 1.0) * (mu - 9.0)) / 128.0 + 1.0


def asymptotic_check() -> Report:
    """Verify the six limiting forms at designated large/small arguments."""
    rows: list[LimitCheckRow] = []

    def record(name, point, computed, target, tol):
        rows.append(
            LimitCheckRow(
                name=name,
                point=point,
                computed=computed,
                target=target,
                tolerance=tol,
                ok=abs(computed - target) <= tol,
            )
        )

    # (1) integral large-x law: F ~ x^{nu-1/2} e^{(1-b)x} / (sqrt(2 pi)(1-b));
    # the 1/x deviation is (4 nu^2 - 1)/8 + (nu - 1/2)/(1 - beta), so nu = 5
    # needs x = 2000 before the 2% tolerance becomes attainable
    for nu, x in ((0.0, 400.0), (1.0, 400.0), (5.0, 2000.0)):
        for beta in (0.25, 0.5):
            f = _f_reference(nu, beta, x)
            norm = ScaledReal.from_log(
                0.5 * math.log(2.0 * math.pi)
                + math.log1p(-beta)
                + (0.5 - nu) * math.log(x)
                - (1.0 - beta) * x
            )
            record(
                "integral-large-x",
                f"nu={nu} beta={beta} x={x:g}",
                (f * norm).to_float(),
                1.0,
                0.02,
            )

    # (2) weighted-Struve large-x law: e^{-bx} x^nu L_{nu+n}(x) ~
    #     x^{nu-1/2} e^{(1-b)x} / sqrt(2 pi); order chosen so the 1/x term
    #     stays inside the 1% tolerance at x = 400
    nu, beta, x = -0.25, 0.5, 400.0
    for n in (0.0, 1.0, 3.0):
        val = math.exp(
            struve_l_scaled_log(nu + n, x) + 0.5 * math.log(2.0 * math.pi * x)
        )
        record(
            "weighted-struve-large-x",
            f"nu={nu} n={n} beta={beta} x={x}",
            val,
            1.0,
            0.01,
        )

    # (3) Struve small-x law with the second-order factor
    x = 1e-2
    for nu in (-0.5, 0.0, 1.0, 5.0):
        lead = (
            struve_l_scaled_log(nu, x)
            + x
            + 0.5 * math.log(math.pi)
            + nu * math.log(2.0)
            + log_gamma(nu + 1.5)
            - (nu + 1.0) * math.log(x)
        )
        record(
            "struve-small-x",
            f"nu={nu} x={x}",
            math.exp(lead),
            1.0 + x * x / (3.0 * (2.0 * nu + 3.0)),
            1e-4,
        )

    # (4) Struve large-x law inside the fitted 1/x^2 band
    for nu in (0.0, 1.0, 5.0):
        c = _fitted_band_constant(nu)
        for x in (200.0, 400.0, 1000.0):
            val = struve_l_scaled(nu, x).to_float() * math.sqrt(2.0 * math.pi * x)
            target = 1.0 - (4.0 * nu * nu - 1.0) / (8.0 * x)
            record(
                "struve-large-x",
                f"nu={nu} x={x}",
                val,
                target,
                c / (x * x),
            )

    # (5) Bessel K small-x law
    nu, x = 2.0, 1e-4
    val = bessel_k_scaled(nu, x).to_float() * math.exp(-x)
    target = math.exp((nu - 1.0) * math.log(2.0) + log_gamma(nu) - nu * math.log(x))
    record("besselk-small-x", f"nu={nu} x={x}", val / target, 1.0, 1e-3)

    # (6) Bessel K large-x law inside the fitted band
    for nu in (0.0, 1.0, 5.0):
        c = _fitted_band_constant(nu)
        for x in (200.0, 400.0, 1000.0):
            val = bessel_k_scaled(nu, x).to_float() * math.sqrt(2.0 * x / math.pi)
            target = 1.0 + (4.0 * nu * nu - 1.0) / (8.0 * x)
            record("besselk-large-x", f"nu={nu} x={x}", val, target, c / (x * x))

    return Report(rows=tuple(rows), summary=_summary(rows))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _csv(header: str, lines: Iterable[str]) -> str:
    """CSV text: the header line, then one line per row."""
    return "\n".join((header, *lines)) + "\n"


def margins_csv(report: Report) -> str:
    # one %-format per row; %.17g prints nan as "nan", and a beta-free
    # bound's None beta is passed as nan.  Each logged value is ln
    # of a positive value (ln m + e, as ScaledReal.log_abs), nan otherwise.
    # The nu,beta,x field is formatted once per point.
    lines = []
    nan = math.nan
    log = math.log
    copysign = math.copysign
    points: dict = {}
    for bound_id, nu, beta, x, _, margin, status in report.rows:
        bound, ref, signed_margin, _ = margin
        key = (nu, copysign(1.0, nu), beta, x)  # 0.0 and -0.0 print apart
        point = points.get(key)
        if point is None:
            point = points[key] = "%.17g,%.17g,%.17g" % (
                nu, nan if beta is None else beta, x
            )
        lines.append(
            "%s,%s,%.17g,%.17g,%.17g,%s"
            % (
                bound_id,
                point,
                log(bound.mantissa) + bound.exponent if bound.mantissa > 0.0 else nan,
                log(ref.mantissa) + ref.exponent if ref.mantissa > 0.0 else nan,
                signed_margin,
                status,
            )
        )
    return _csv(
        "bound_id,nu,beta,x,bound_value_log,reference_value_log,rel_margin,status", lines
    )


def tables_csv(report: Report) -> str:
    return _csv(
        "table,nu,beta,x,metric,expected,abs_deviation",
        (
            "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
            % (r.which, r.row.nu, r.row.beta, r.row.x, r.row.metric, r.expected, r.deviation)
            for r in report.rows
        ),
    )


def tables_markdown(report: Report) -> str:
    """Rows are (nu, beta) pairs, columns the x values, like the source
    tables."""
    xs = tables.TABLE_X
    by_key = {(r.row.nu, r.row.beta, r.row.x): r.row.metric for r in report.rows}
    header = "| (nu, beta) | " + " | ".join(_short(x) for x in xs) + " |"
    sep = "|" + "---|" * (len(xs) + 1)
    lines = [header, sep]
    for beta in tables.TABLE_BETA:
        for nu in tables.TABLE_NU:
            cells = " | ".join(
                f"{by_key[(nu, beta, x)]:.4f}" for x in xs
            )
            lines.append(f"| ({_short(nu)}, {_short(beta)}) | {cells} |")
    return "\n".join(lines) + "\n"


def limits_csv(report: Report) -> str:
    return _csv(
        "check,point,computed,target,tolerance,ok",
        (
            "%s,%s,%.17g,%.17g,%.17g,%d"
            % (r.name, r.point.replace(",", ";"), r.computed, r.target, r.tolerance, r.ok)
            for r in report.rows
        ),
    )


def _short(v: float) -> str:
    return f"{v:g}"
