"""Command-line interface.

Machine-readable data goes to stdout, human summaries to stderr.  Exit code
0 means every requested check passed (no violations, no table deviations
beyond tolerance); numerical failures exit 1 with the failing point printed;
usage errors exit 2.

Subcommands::

    struveint tables [--which 1|2] [--format csv|md]
    struveint verify [--grid FILE] [--bounds ID,...]
    struveint eval --fn {F,G,L,I,K} --nu V [--beta V] --x V
    struveint tightness --bound ID --nu V [--beta V] --xs 1,2,5
                        [--x-star V] [--truncation K]
    struveint asymptotics
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import harness
from .bounds import default_x_star, get_bound
from .errors import ConvergenceError
from .integrals import F, G
from .scaled import ScaledReal
from .specfun import bessel_i_scaled, bessel_k_scaled, struve_l_scaled


def _x_list(text: str) -> tuple[float, ...]:
    """``--xs``: comma-separated reals, at least one; anything else is a
    usage error."""
    try:
        xs = tuple(float(tok) for tok in harness._split_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of reals: {text!r}") from None
    if not xs:
        raise argparse.ArgumentTypeError("empty list")
    return xs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="struveint",
        description="Bounds and integrals of the modified Struve function L_nu",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="reproduce the relative-error tables")
    p_tables.add_argument("--which", type=int, choices=(1, 2), default=None)
    p_tables.add_argument("--format", choices=("csv", "md"), default="csv")
    p_tables.set_defaults(run=_cmd_tables)

    p_verify = sub.add_parser("verify", help="sweep the inequality catalog")
    p_verify.add_argument("--grid", type=str, default=None, help="grid file (key=value lines)")
    p_verify.add_argument("--bounds", type=str, default=None, help="comma-separated bound ids")
    p_verify.set_defaults(run=_cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate one function at a point")
    p_eval.add_argument("--fn", required=True, choices=("F", "G", "L", "I", "K"))
    p_eval.add_argument("--nu", type=float, required=True)
    p_eval.add_argument("--beta", type=float, default=None)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.set_defaults(run=_cmd_eval)

    p_tight = sub.add_parser("tightness", help="bound/reference ratio trajectory")
    p_tight.add_argument("--bound", required=True)
    p_tight.add_argument("--nu", type=float, required=True)
    p_tight.add_argument("--beta", type=float, default=None)
    p_tight.add_argument("--xs", type=_x_list, required=True, help="comma-separated x values")
    p_tight.add_argument("--x-star", type=float, default=None)
    p_tight.add_argument("--truncation", type=int, default=None)
    p_tight.set_defaults(run=_cmd_tightness)

    p_asym = sub.add_parser("asymptotics", help="check the limiting forms")
    p_asym.set_defaults(run=_cmd_asymptotics)
    return parser


def _cmd_tables(args) -> int:
    which_list = (1, 2) if args.which is None else (args.which,)
    status = 0
    for which in which_list:
        report = harness.reproduce_table(which)
        if args.format == "csv":
            sys.stdout.write(harness.tables_csv(report))
        else:
            sys.stdout.write(f"Table {which}\n")
            sys.stdout.write(harness.tables_markdown(report))
        print(
            f"table {which}: {report.summary['checked']} cells, "
            f"max deviation {report.max_table_deviation:.3e}, "
            f"{report.summary['violated']} beyond tolerance",
            file=sys.stderr,
        )
        if report.summary["violated"]:
            status = 1
    return status


def _cmd_verify(args) -> int:
    if args.grid is not None:
        with open(args.grid, "r", encoding="utf-8") as fh:
            grid = harness.parse_grid_file(fh.read())
    else:
        grid = harness.default_grid()
    if args.bounds is not None:
        grid = grid._replace(bound_filter=harness._split_list(args.bounds))
    report = harness.verify_all(grid)
    sys.stdout.write(harness.margins_csv(report))
    s = report.summary
    print(
        f"checked {s['checked']} (bound, point) pairs: "
        f"{s['strict']} strict, {s['inconclusive']} inconclusive, "
        f"{s['violated']} violated",
        file=sys.stderr,
    )
    return 1 if s["violated"] else 0


def _cmd_eval(args) -> int:
    nu, beta, x = args.nu, args.beta, args.x
    if args.fn in ("F", "G") and beta is None:
        print("eval: --beta is required for F and G", file=sys.stderr)
        return 2
    if args.fn not in ("F", "G") and beta is not None:
        print(f"eval: {args.fn} takes no --beta", file=sys.stderr)
        return 2
    if args.fn == "F":
        value = F(nu, beta, x)
    elif args.fn == "G":
        value = G(nu, beta, x)
    elif args.fn == "L":
        value = struve_l_scaled(nu, x) * ScaledReal.from_log(x)
    elif args.fn == "I":
        value = bessel_i_scaled(nu, x) * ScaledReal.from_log(x)
    else:
        value = bessel_k_scaled(nu, x) * ScaledReal.from_log(-x)
    try:
        plain = format(value.to_float(), ".17g")
    except OverflowError:
        plain = "overflow"
    print(
        f"{args.fn},{nu:.17g},{'nan' if beta is None else format(beta, '.17g')},"
        f"{x:.17g},{value.mantissa:.17g},{value.exponent:.17g},{plain}"
    )
    return 0


def _cmd_tightness(args) -> int:
    spec = get_bound(args.bound)
    x_star = args.x_star
    if x_star is None and spec.uses_x_star and args.beta is not None:
        x_star = default_x_star(args.beta)
    profile = harness.tightness_profile(
        args.bound, args.nu, args.beta, args.xs, x_star=x_star, truncation=args.truncation
    )
    lines = ("%.17g,%.17g" % point for point in profile)
    sys.stdout.write(harness._csv("x,bound_over_reference", lines))
    return 0


def _cmd_asymptotics(_args) -> int:
    report = harness.asymptotic_check()
    sys.stdout.write(harness.limits_csv(report))
    s = report.summary
    print(
        f"{s['checked']} limiting-form checks, {s['violated']} failed",
        file=sys.stderr,
    )
    return 1 if s["violated"] else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # DomainError is a ValueError; ArithmeticError covers overflow and x / 0
    try:
        return args.run(args)
    except (ConvergenceError, KeyError, ArithmeticError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its key: print the message bare
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
