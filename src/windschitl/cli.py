"""Command-line interface.

Subcommands: ``eval`` (one formula at one point), ``table`` (the
comparison table as CSV or Markdown), ``verify`` (the certification
suite; exit code 1 on any failure), ``rate`` (the x^-9 decay constant),
and ``constants`` (the sharp constants).  Results go to stdout,
diagnostics to stderr; exit codes are 0 (success), 1 (verification
failure, or a reader that closed stdout before the command finished), 2
(usage or domain error).
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .formulas import FormulaId, log_error, w2_log_gap, w2star_log_gap
from .goldens import TABLE_ABSCISSAS, TABLE_FORMULAS
from .precision import DEFAULT_DIGITS, DomainError, OracleConfig, PrecisionError, exp, format_sci
from .report import TableSpec, build_table, render_csv, render_markdown
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
    try:
        if "/" in text:
            if limit and any(sum(map(str.isdigit, side)) > limit for side in text.split("/")):
                raise _too_large(text)
            value = Fraction(text)
        else:
            number = Decimal(text)
            _, digits, exponent = number.as_tuple()
            # c 10^e with c of n digits: the numerator has n + e digits, the
            # denominator at least -e - n + 1
            if limit and number.is_finite() and number and abs(exponent) > limit + len(digits):
                raise _too_large(text)
            value = Fraction(number)
    except (InvalidOperation, OverflowError, ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from e
    largest = max(abs(value.numerator), value.denominator)
    # 10^limit has more than 3 limit bits, so most values skip building it
    if limit and largest.bit_length() > 3 * limit and largest >= 10**limit:
        raise _too_large(text)
    return value


def _too_large(text: str) -> argparse.ArgumentTypeError:
    limit = sys.get_int_max_str_digits()
    return argparse.ArgumentTypeError(f"too large to print: {text!r} has more than {limit} digits as an exact fraction")


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


# The CLI's grammar, declared once: each command's help and its arguments,
# each the name and keyword arguments of add_argument.  _build_parser
# turns it into argparse; _parse_plain reads a plain command line from it.
_COMMANDS = {
    "eval": (
        "evaluate one formula at one point",
        (
            ("formula", {"type": _parse_formula}),
            ("x", {"type": _parse_number}),
            ("--digits", {"type": int, "default": DEFAULT_DIGITS}),
        ),
    ),
    "table": (
        "print the comparison table",
        (
            ("--x", {"type": _parse_number_list, "default": TABLE_ABSCISSAS}),
            ("--formulas", {"type": _parse_formula_list, "default": TABLE_FORMULAS}),
            ("--format", {"choices": ("csv", "markdown"), "default": "csv"}),
            ("--digits", {"type": int, "default": DEFAULT_DIGITS}),
        ),
    ),
    "verify": (
        "run the certification suite",
        (
            (
                "--only",
                {
                    "action": "append",
                    "choices": sorted(_CHECK_BUILDERS),
                    "help": "run only this check (repeatable, each name at most once)",
                },
            ),
            (
                "--grid",
                {
                    "type": _parse_grid,
                    "default": DEFAULT_VERIFY_GRID,
                    "help": "START:STOP:COUNT grid for the monotonicity checks",
                },
            ),
            ("--digits", {"type": int, "default": DEFAULT_DIGITS}),
            ("--format", {"choices": ("text", "csv"), "default": "text"}),
        ),
    ),
    "rate": (
        "estimate the x^-9 decay constant",
        (
            ("--formula", {"type": _parse_formula, "default": FormulaId.W2, "help": "w2 or w2star"}),
            ("--x", {"type": _parse_number_list, "default": (Fraction(100), Fraction(1000))}),
            ("--digits", {"type": int, "default": RATE_DIGITS}),
        ),
    ),
    "constants": (
        "print the sharp constants",
        (("--digits", {"type": int, "default": 12}),),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of :data:`_COMMANDS`: it words every usage, help and error text."""
    parser = argparse.ArgumentParser(
        prog="windschitl",
        description="Windschitl-type gamma approximations: evaluation, "
        "comparison tables, and exact certification of the sharp constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=help_text)
        for name, kwargs in arguments:
            p_command.add_argument(name, **kwargs)
    return parser


def _dest(name: str) -> str:
    """The attribute argparse stores an argument under."""
    return name.lstrip("-").replace("-", "_")


def _parse_plain(argv) -> argparse.Namespace | None:
    """The namespace argparse would return for a plain command line, else None.

    Plain means: a command, then each of its options spelled in full and
    followed by a value that does not start with "-", and exactly its
    positionals, in any order.  Values are converted and checked as
    argparse does, from the same declaration.  Every other line (help,
    abbreviations, --opt=value, "--", a value argparse would refuse) gives
    None, and argparse parses it again and words the message.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _COMMANDS[argv[0]][1]
    options = {name: kwargs for name, kwargs in arguments if name.startswith("-")}
    positionals = [(name, kwargs) for name, kwargs in arguments if not name.startswith("-")]
    values = {_dest(name): kwargs.get("default") for name, kwargs in arguments}
    words = iter(argv[1:])
    for word in words:
        if word.startswith("-"):
            kwargs = options.get(word)
            value = next(words, None)
            if kwargs is None or value is None or value.startswith("-"):
                return None
            name = word
        elif positionals:
            (name, kwargs), value = positionals.pop(0), word
        else:
            return None
        try:
            value = kwargs.get("type", str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        dest = _dest(name)
        if kwargs.get("action") == "append":
            value = (values[dest] or []) + [value]
        values[dest] = value
    if positionals:
        return None
    return argparse.Namespace(command=argv[0], **values)


def main(argv=None) -> int:
    args = _parse_plain(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`verify | head -1`); the output left in
        # the buffer goes to the null device, as Python's signal docs advise
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # an in-memory stdout has no descriptor
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
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
        # first, so where it and the value both cannot be printed, the
        # error names the relative error
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
