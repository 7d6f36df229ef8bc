"""Command-line interface.

Subcommands: ``eval`` (one formula at one point), ``table`` (the
comparison table as CSV or Markdown), ``verify`` (the certification
suite; exit code 1 on any failure), ``rate`` (the x^-9 decay constant),
and ``constants`` (the sharp constants).  Results go to stdout,
diagnostics to stderr; exit codes are 0 (success), 1 (verification
failure), 2 (usage or domain error).
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .formulas import FormulaId, log_error, w2_log_gap, w2star_log_gap
from .precision import DEFAULT_DIGITS, DomainError, OracleConfig, PrecisionError, exp, format_sci
from .report import (
    DEFAULT_ABSCISSAS,
    DEFAULT_FORMULAS,
    TableSpec,
    build_table,
    render_csv,
    render_markdown,
)
from .verify import (
    RATE_DECAY_LIMIT,
    RATE_DIGITS,
    _linear_grid,
    check_goldens,
    estimate_rate_constant,
    report_lines,
    reports_to_csv,
    verify_best_constants,
    verify_convexity_polynomials,
    verify_csch_bound,
    verify_monotone_convex,
    verify_trigamma_bound,
)

__all__ = ["main"]


def _parse_number(text: str) -> Fraction:
    """Exact parse of a decimal or p/q literal of any sign; the formulas check the domain.

    A value whose numerator or denominator has more digits than Python
    prints (``sys.get_int_max_str_digits()``) is refused, before any
    arithmetic: its result could not be printed.  A decimal exponent
    beyond the limit by more than the mantissa's digits is refused before
    the value is built, which could take minutes.
    """
    limit = sys.get_int_max_str_digits()
    too_large = argparse.ArgumentTypeError(
        f"too large to print: {text!r} has more than {limit} digits as an exact fraction"
    )
    try:
        if "/" in text:
            if limit and any(sum(map(str.isdigit, side)) > limit for side in text.split("/")):
                raise too_large
            value = Fraction(text)
        else:
            number = Decimal(text)
            _, digits, exponent = number.as_tuple()
            # c 10^e with c of n digits: the numerator has n + e digits, the
            # denominator at least -e - n + 1
            if limit and number.is_finite() and number and abs(exponent) > limit + len(digits):
                raise too_large
            value = Fraction(number)
    except (InvalidOperation, OverflowError, ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from e
    largest = max(abs(value.numerator), value.denominator)
    # 10^limit has more than 3 limit bits, so most values skip building it
    if limit and largest.bit_length() > 3 * limit and largest >= 10**limit:
        raise too_large
    return value


def _parse_number_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_number(part) for part in text.split(",") if part)


def _parse_formula(tag: str) -> FormulaId:
    try:
        return FormulaId(tag)
    except ValueError:
        choices = ", ".join(f.value for f in FormulaId)
        raise argparse.ArgumentTypeError(f"unknown formula {tag!r} (choices: {choices})")


def _parse_formula_list(text: str) -> tuple[FormulaId, ...]:
    return tuple(_parse_formula(part) for part in text.split(",") if part)


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    """START:STOP:COUNT linear grid specification."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be START:STOP:COUNT")
    lo, hi = _parse_number(parts[0]), _parse_number(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("grid COUNT must be an integer")
    if count < 3 or hi <= lo:
        raise argparse.ArgumentTypeError("grid needs COUNT >= 3 and STOP > START")
    return _linear_grid(lo, hi, count)


DEFAULT_VERIFY_GRID = _linear_grid(Fraction(1), Fraction(50), 99)

_CHECK_BUILDERS = {
    "trigamma-bound": lambda cfg, grid: verify_trigamma_bound(cfg),
    "csch-bound": lambda cfg, grid: verify_csch_bound(cfg),
    "convexity-polynomials": lambda cfg, grid: verify_convexity_polynomials(cfg),
    "best-constants": lambda cfg, grid: verify_best_constants(cfg),
    "monotone-convex-w2": lambda cfg, grid: verify_monotone_convex("w2", grid, cfg),
    "monotone-convex-w2star": lambda cfg, grid: verify_monotone_convex("w2star", grid, cfg),
    "reference-table": lambda cfg, grid: check_goldens(cfg=cfg),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windschitl",
        description="Windschitl-type gamma approximations: evaluation, "
        "comparison tables, and exact certification of the sharp constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one formula at one point")
    p_eval.add_argument("formula", type=_parse_formula)
    p_eval.add_argument("x", type=_parse_number)
    p_eval.add_argument("--digits", type=int, default=DEFAULT_DIGITS)

    p_table = sub.add_parser("table", help="print the comparison table")
    p_table.add_argument("--x", type=_parse_number_list, default=DEFAULT_ABSCISSAS)
    p_table.add_argument("--formulas", type=_parse_formula_list, default=DEFAULT_FORMULAS)
    p_table.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_table.add_argument("--digits", type=int, default=DEFAULT_DIGITS)

    p_verify = sub.add_parser("verify", help="run the certification suite")
    p_verify.add_argument(
        "--only",
        action="append",
        choices=sorted(_CHECK_BUILDERS),
        help="run only this check (repeatable, each name at most once)",
    )
    p_verify.add_argument(
        "--grid",
        type=_parse_grid,
        default=DEFAULT_VERIFY_GRID,
        help="START:STOP:COUNT grid for the monotonicity checks",
    )
    p_verify.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p_verify.add_argument("--format", choices=("text", "csv"), default="text")

    p_rate = sub.add_parser("rate", help="estimate the x^-9 decay constant")
    p_rate.add_argument(
        "--formula",
        type=_parse_formula,
        default=FormulaId.W2,
        help="w2 or w2star",
    )
    p_rate.add_argument("--x", type=_parse_number_list, default=(Fraction(100), Fraction(1000)))
    p_rate.add_argument("--digits", type=int, default=RATE_DIGITS)

    p_constants = sub.add_parser("constants", help="print the sharp constants")
    p_constants.add_argument("--digits", type=int, default=12)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _dispatch(args)
    except (DomainError, OverflowError, PrecisionError, ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.digits <= 0:
        raise ValueError(f"--digits must be positive, got {args.digits}")
    out = sys.stdout
    if args.command == "eval":
        cfg = OracleConfig.for_digits(args.digits)
        record = log_error(args.formula, args.x, cfg)
        # every line is formatted before any is printed, so a value that
        # cannot be rendered leaves stdout empty; the relative error goes
        # first, because it refuses an unprintable magnitude at once where
        # rendering the value alone can take mpmath seconds
        relative_error = record.format_relative_error(6)
        lines = [
            f"formula        = {args.formula.value}",
            f"target         = {args.formula.target.value}",
            f"x              = {args.x}",
            f"value          = {record.format_value(args.digits)}",
            f"relative_error = {relative_error}",
            f"log_gap        = {format_sci(record.log_gap, 6)}",
        ]
        print("\n".join(lines), file=out)
        return 0

    if args.command == "table":
        spec = TableSpec(
            abscissas=args.x,
            formulas=args.formulas,
            precision_digits=args.digits,
        )
        render = render_csv if args.format == "csv" else render_markdown
        out.write(render(spec, build_table(spec)))
        return 0

    if args.command == "verify":
        names = args.only or sorted(_CHECK_BUILDERS)
        if len(set(names)) != len(names):
            raise ValueError("checks must be distinct")
        cfg = OracleConfig.for_digits(args.digits)
        reports = [_CHECK_BUILDERS[name](cfg, args.grid) for name in names]
        if args.format == "csv":
            out.write(reports_to_csv(reports))
        else:
            for report in reports:
                for line in report_lines(report):
                    print(line, file=out)
        failed = [r for r in reports if not r.passed]
        if failed:
            print(
                f"error: {len(failed)} check(s) failed: "
                + ", ".join(r.check_name for r in failed),
                file=sys.stderr,
            )
            return 1
        return 0

    if args.command == "rate":
        cfg = OracleConfig.for_digits(args.digits)
        estimate = estimate_rate_constant(args.x, args.formula, cfg)
        limit = RATE_DECAY_LIMIT
        print(f"formula            = {estimate.formula.value}", file=out)
        print(f"abscissas          = {','.join(str(x) for x in estimate.xs)}", file=out)
        print(f"scaled_gap_largest = {format_sci(estimate.at_largest, 12)}", file=out)
        print(f"richardson         = {format_sci(estimate.richardson, 12)}", file=out)
        print(f"limit              = {format_sci(limit, 12)} ({limit})", file=out)
        deviation = abs(estimate.at_largest - limit) / limit
        print(f"relative_deviation = {format_sci(deviation, 3)}", file=out)
        return 0

    if args.command == "constants":
        digits = args.digits
        cfg = OracleConfig.for_digits(max(digits + 10, 30))
        beta = w2_log_gap(1, cfg)
        beta_star = w2star_log_gap(1, cfg)
        lam = exp(beta)
        lam_star = exp(beta_star)
        print(f"beta               = {beta.to_decimal_string(digits)}", file=out)
        print(f"lambda             = {lam.to_decimal_string(digits)}", file=out)
        print(f"lambda_star        = {lam_star.to_decimal_string(digits)}", file=out)
        print(f"w2_log_gap(1)      = {beta.to_decimal_string(digits)}", file=out)
        print(f"w2star_log_gap(1)  = {beta_star.to_decimal_string(digits)}", file=out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")
