import argparse
import contextlib
import csv
import io
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import floor, log10
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windschitl import (
    DomainError,
    FormulaId,
    GoldenCell,
    LogErrorValue,
    OracleConfig,
    PrecisionReal,
    TABLE_GOLDENS,
    TableSpec,
    build_table,
    check_goldens,
    format_sci,
    ln,
    log_error,
    render_csv,
    render_markdown,
)
from windschitl import cli, precision, verify
from windschitl.cli import main
from windschitl.goldens import TABLE_ABSCISSAS, TABLE_FORMULAS

from support import fresh_memos


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------


def test_default_spec_mirrors_the_published_table():
    spec = TableSpec()
    assert spec.abscissas == tuple(Fraction(v) for v in (1, 2, 5, 10, 20, 50, 100))
    assert spec.formulas == (FormulaId.NEMES2, FormulaId.CHEN, FormulaId.W1, FormulaId.W2)
    assert spec.precision_digits == 50


def test_spec_validation():
    with pytest.raises(ValueError):
        TableSpec(abscissas=())
    with pytest.raises(ValueError):
        TableSpec(abscissas=(Fraction(2), Fraction(1)))
    with pytest.raises(ValueError):
        TableSpec(abscissas=(Fraction(-1), Fraction(1)))
    with pytest.raises(ValueError):
        TableSpec(formulas=())
    with pytest.raises(ValueError, match="formulas must be distinct"):
        TableSpec(formulas=(FormulaId.W2, FormulaId.W2))
    with pytest.raises(ValueError):
        TableSpec(precision_digits=0)


def test_build_table_cells():
    records = build_table(TableSpec())
    assert len(records) == 28
    by_key = {
        (x, f): r
        for (x, f), r in zip(
            ((x, f) for x in TABLE_ABSCISSAS for f in TABLE_FORMULAS), records
        )
    }
    assert format_sci(by_key[(1, FormulaId.W2)].relative_error, 4) == "2.407E-5"
    assert format_sci(by_key[(50, FormulaId.CHEN)].relative_error, 4) == "5.330E-16"


def test_build_table_custom_formula():
    spec = TableSpec(abscissas=(Fraction(5),), formulas=(FormulaId.STIRLING,))
    (record,) = build_table(spec)
    assert format_sci(record.relative_error, 3) == "1.65E-2"


def test_build_table_identifies_the_failing_cell(capsys):
    # chen's inner logarithm has a negative argument at x = 1/100; eval and
    # table name the formula and the argument once, in the same words
    message = "error: chen at x = 1.00000E-2 cannot be evaluated: ln needs a positive argument\n"
    for argv in (["eval", "chen", "0.01"], ["table", "--x", "0.01", "--formulas", "chen"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message)


# ---------------------------------------------------------------------------
# Golden checking
# ---------------------------------------------------------------------------


def test_all_published_cells_print_as_published_or_as_corrected():
    report = check_goldens()
    assert report.passed, report.failures
    assert [(w.description, w.value) for w in report.witnesses] == [
        ("misprint (x=2, nemes2)", "computed 1.897E-6, published 1.900E-6"),
        ("misprint (x=100, w1)", "computed 4.790E-18, published 4.791E-18"),
    ]


@pytest.mark.parametrize("digits", [30, 50, 200])
def test_no_correctly_printed_cell_lies_near_a_rounding_tie(digits):
    # oracle noise far below 0.05 units of the 4th digit cannot flip a cell
    cfg = OracleConfig.for_digits(digits)
    nearest = Fraction(1, 2)
    for cell in TABLE_GOLDENS:
        if cell.corrected_relative_error is None:
            r = log_error(cell.formula, cell.x, cfg).relative_error.to_fraction()
            units = r / Fraction(10) ** (floor(log10(r)) - 3)
            nearest = min(nearest, abs(units - floor(units) - Fraction(1, 2)))
    assert nearest >= Fraction(1, 20)
    assert format_sci(nearest, 2) == "7.9E-2"  # nemes2 at x = 50


def test_each_cell_keeps_the_string_the_paper_prints():
    # four significant digits, a trailing zero included, so a note quotes the paper
    assert len(TABLE_GOLDENS) == len(TABLE_ABSCISSAS) * len(TABLE_FORMULAS) == 28
    assert all(re.fullmatch(r"[1-9]\.\d{3}e-\d+", c.published) for c in TABLE_GOLDENS)
    cell = TABLE_GOLDENS[len(TABLE_FORMULAS)]
    assert (cell.x, cell.formula, cell.published) == (2, FormulaId.NEMES2, "1.900e-6")


def test_each_misprint_rounds_to_its_correction_and_not_to_the_printed_value():
    cfg = OracleConfig.for_digits(100)
    misprints = [c for c in TABLE_GOLDENS if c.corrected_relative_error is not None]
    assert [(c.x, c.formula) for c in misprints] == [(2, FormulaId.NEMES2), (100, FormulaId.W1)]
    for cell in misprints:
        printed = Fraction(log_error(cell.formula, cell.x, cfg).format_relative_error(4))
        assert printed == cell.corrected_relative_error != Fraction(cell.published)


def test_a_misprint_whose_computed_digits_equal_the_printed_ones_fails():
    # w2 at 2 prints 2.308e-7, as published; declared misprinted, it fails
    cell = GoldenCell(Fraction(2), FormulaId.W2, "2.308e-7", Fraction("2.309e-7"))
    report = check_goldens(cells=(cell,))
    assert not report.passed
    (failure,) = report.failures
    assert failure.description == "cell (x=2, w2) prints 2.309E-7 at 4 significant digits"
    assert failure.value == "computed 2.308E-7, published 2.308E-7"


# a wrong mantissa, and a 4th digit one unit off
@pytest.mark.parametrize(
    "x, published, computed", [(2, "9.999e-7", "2.308E-7"), (10, "2.786e-13", "2.785E-13")]
)
def test_a_perturbed_published_value_fails_with_named_cell(x, published, computed):
    broken = list(TABLE_GOLDENS[:4]) + [GoldenCell(Fraction(x), FormulaId.W2, published)]
    report = check_goldens(cells=broken)
    assert not report.passed
    (failure,) = report.failures
    shown = format_sci(Fraction(published), 4)
    assert failure.description == f"cell (x={x}, w2) prints {shown} at 4 significant digits"
    assert failure.value == f"computed {computed}, published {shown}"


def test_passing_cells_format_no_witness(monkeypatch):
    shown = []
    format_sci = verify.format_sci
    monkeypatch.setattr(verify, "format_sci", lambda value, digits: shown.append(digits) or format_sci(value, digits))
    report = check_goldens(cells=TABLE_GOLDENS[:8])
    assert report.passed
    assert shown == []  # the misprint note shows the paper's own string


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_csv_schema_and_roundtrip():
    spec = TableSpec(abscissas=(Fraction(1), Fraction(5, 2)), formulas=(FormulaId.W2,))
    records = build_table(spec)
    text = render_csv(spec, records)
    assert text.endswith("\n") and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["x", "formula", "relative_error", "log_gap", "digits"]
    assert [r[0] for r in rows[1:]] == ["1", "2.5"]
    # parsed decimals reproduce the 6-digit rendering of the records exactly
    for row, record in zip(rows[1:], records):
        assert Decimal(row[2]) == Decimal(format_sci(record.relative_error, 6))
        assert Decimal(row[3]) == Decimal(format_sci(record.log_gap, 6))
        assert row[4] == "50"
    # re-rendering the parsed values is byte-identical
    rebuilt = "\n".join(
        [",".join(rows[0])]
        + [",".join(row) for row in rows[1:]]
    ) + "\n"
    assert rebuilt == text


def test_markdown_grid_shape_and_values():
    spec = TableSpec()
    text = render_markdown(spec, build_table(spec))
    lines = text.strip().split("\n")
    assert lines[0] == "| x | nemes2 | chen | w1 | w2 |"
    assert len(lines) == 2 + 7
    # each cell prints the published value, or a misprint's correction
    golden = {
        (c.x, c.formula): c.corrected_relative_error or Fraction(c.published)
        for c in TABLE_GOLDENS
    }
    for line, x in zip(lines[2:], TABLE_ABSCISSAS):
        cells = [c.strip() for c in line.strip("|").split("|")][1:]
        for formula, cell in zip(TABLE_FORMULAS, cells):
            assert Fraction(cell) == golden[(x, formula)]


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------


def test_eval_subcommand(capsys, monkeypatch, fresh_memos):
    import windschitl.formulas as formulas

    evaluate = formulas.log_approximate
    calls = []
    monkeypatch.setattr(formulas, "log_approximate", lambda *a: calls.append(a) or evaluate(*a))
    assert main(["eval", "w2", "1", "--digits", "30"]) == 0
    assert len(calls) == 1  # the printed value reuses the log gap's evaluation
    out = capsys.readouterr().out
    assert "relative_error = 2.40660E-5" in out
    assert "target         = gamma(x+1)" in out
    assert "value          = 0.99997" in out


@pytest.mark.parametrize("argv, distinct", [(["verify"], 100), (["table"], 7)])
def test_each_distinct_kernel_argument_is_evaluated_once(capsys, fresh_memos, argv, distinct):
    # verify's two monotone-convex checks share their 99 grid points, and
    # best-constants and reference-table reuse all but x = 100 of theirs;
    # W0, W2 and W2* share the core at each point
    ln_gamma_memo, core_memo = fresh_memos
    assert main(argv) == 0
    capsys.readouterr()
    assert ln_gamma_memo.cache_info().misses == distinct
    assert core_memo.cache_info().misses == distinct


def test_eval_rejects_nonpositive(capsys):
    assert main(["eval", "w2", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_table_subcommand_is_deterministic(capsys):
    argv = ["table", "--x", "1,2", "--formulas", "w2,chen", "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "x,formula,relative_error,log_gap,digits"


def test_constants_subcommand(capsys):
    assert main(["constants", "--digits", "12"]) == 0
    out = capsys.readouterr().out
    assert "beta               = 2.40663292647e-5" in out
    assert "lambda             = 1.00002406662" in out
    assert "lambda_star        = 1.00002411708" in out
    assert "w2star_log_gap(1)  = 2.41167914741e-5" in out


def test_rate_subcommand(capsys):
    assert main(["rate", "--formula", "w2", "--x", "100,1000"]) == 0
    out = capsys.readouterr().out
    assert "limit              = 2.91929117326E-4 (869/2976750)" in out
    assert "richardson" in out


def test_rate_rejects_other_formulas(capsys):
    assert main(["rate", "--formula", "stirling"]) == 2
    assert "error:" in capsys.readouterr().err


def test_rate_names_an_unresolvable_x_in_scientific_form(capsys):
    # as every other error does, not as the 301 digits of str(x)
    assert main(["rate", "--x", "1e300"]) == 2
    err = capsys.readouterr().err
    assert "log gap at x = 1.00000E+300 is below the resolvable floor" in err
    assert "0" * 30 not in err


def test_verify_single_check_exit_zero(capsys):
    assert main(["verify", "--only", "csch-bound"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS csch-bound")


def test_verify_csv_format(capsys):
    assert main(["verify", "--only", "csch-bound", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["check_name", "status", "witness", "value"]


def test_verify_exit_code_one_on_failure(capsys, monkeypatch):
    import windschitl.cli as cli
    from windschitl.verify import CheckStatus, VerificationReport, Witness

    def always_fails(cfg, grid):
        return VerificationReport(
            "csch-bound",
            CheckStatus.FAIL,
            (Witness("forced failure", "fixture", ok=False),),
        )

    monkeypatch.setitem(cli._CHECK_BUILDERS, "csch-bound", always_fails)
    assert main(["verify", "--only", "csch-bound"]) == 1
    captured = capsys.readouterr()
    assert "FAIL csch-bound" in captured.out
    assert "error: 1 check(s) failed: csch-bound" in captured.err


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # about 300 KB of output: the reader leaves after the first line
        (["verify", "--digits", "11", "--only", "monotone-convex-w2", "--grid", "1:50:1500"], 1),
        # a few lines, still buffered when the command ends: the final flush fails
        (["eval", "w2", "1"], 0),
    ],
    ids=["verify-head-1", "eval-closed-at-once"],
)
def test_a_reader_that_closes_early_gets_exit_one_and_no_traceback(argv, lines_read):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    child = subprocess.Popen([sys.executable, "-m", "windschitl", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    lines = [child.stdout.readline() for _ in range(lines_read)]
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert all(line.endswith(b"\n") for line in lines)
    assert err == b"", err.decode(errors="replace")


def test_a_closed_in_memory_stdout_exits_one(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["eval", "w2", "1"]) == 1


def test_usage_errors_exit_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["table", "--format", "html"]) == 2
    assert main(["eval", "nosuch", "1"]) == 2
    assert main(["verify", "--grid", "1:2"]) == 2
    # an infinite number is "not a number" to argparse, not a traceback
    assert main(["eval", "w2", "inf"]) == 2
    assert main(["table", "--x", "inf"]) == 2
    assert main(["verify", "--grid", "1:inf:3"]) == 2
    assert capsys.readouterr().err.count("not a number: 'inf'") == 3


@pytest.fixture
def default_digit_limit():
    """Python's default limit of 4300 digits on int/str conversion, whatever
    the environment sets, restored after the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["eval", "w2", "1e100000"], "1e100000"),
        (["eval", "w2", "1e-5000"], "1e-5000"),
        (["table", "--x", "1,1e5000", "--formulas", "w2"], "1e5000"),
        (["rate", "--x", "100,1e4300"], "1e4300"),
        # building this value alone would take minutes
        (["verify", "--grid", "1:1e99999999:3"], "1e99999999"),
        # int() refuses a p/q side of 4301 digits
        (["eval", "w2", "1" * 4301 + "/3"], "1" * 4301 + "/3"),
        (["eval", "w2", "3/" + "1" * 4301], "3/" + "1" * 4301),
    ],
    ids=["eval", "eval-tiny", "table", "rate", "verify-grid", "eval-numerator", "eval-denominator"],
)
def test_a_number_too_large_to_print_is_refused_before_any_arithmetic(capsys, monkeypatch, default_digit_limit, argv, text):
    def dispatch(args):
        raise AssertionError("the command ran before the refusal")

    monkeypatch.setattr(cli, "_dispatch", dispatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"too large to print: '{text}' has more than 4300 digits as an exact fraction" in captured.err


def test_the_refusal_is_exact_at_the_digit_limit(default_digit_limit):
    parse = cli._parse_number
    # 4300 digits print, 4301 do not: in the numerator or in the denominator
    assert parse("1e4299") == 10**4299 and parse("-1e4299") == -(10**4299)
    assert parse("9" * 4300) == 10**4300 - 1
    assert parse("1e-4299") == Fraction(1, 10**4299)
    assert parse("2e-4300") == Fraction(1, 5 * 10**4299)  # reduced to 4300 digits
    assert parse("0e99999999") == 0
    assert parse("1" * 4300 + "/3") == Fraction(int("1" * 4300), 3)
    assert parse("-3/" + "1" * 4300) == Fraction(-3, int("1" * 4300))
    refused = ("1e4300", "-1e4300", "1" * 4301, "1e-4300", "0.1e-4299", "1e99999999", "1e-99999999")
    for text in (*refused, "1" * 4301 + "/3", "-3/" + "1" * 4301):
        with pytest.raises(argparse.ArgumentTypeError, match="too large to print"):
            parse(text)
    # the limit is Python's, read at each parse; 0 lifts it
    for raised in (5001, 0):
        sys.set_int_max_str_digits(raised)
        assert parse("1e5000") == 10**5000


def test_a_number_that_parses_builds_no_error(monkeypatch, default_digit_limit):
    built = []

    class Counted(argparse.ArgumentTypeError):
        def __init__(self, message):
            built.append(message)
            super().__init__(message)

    monkeypatch.setattr(cli.argparse, "ArgumentTypeError", Counted)
    for text in ("1", "-2.5", "3/4", "1e4299", "1" * 4300 + "/3"):
        cli._parse_number(text)
    assert built == []
    with pytest.raises(Counted, match="too large to print: '1e4300'"):
        cli._parse_number("1e4300")
    assert len(built) == 1


def test_chen_at_a_million_prints_the_true_relative_error(capsys):
    # ln(1 + u) of the exact u: rounding 1 + u first made it 4.16708E-46
    assert main(["eval", "chen", "1e6"]) == 0
    assert "relative_error = 4.16706E-46\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "formula, x, error",
    [("nemes1", Fraction(9, 100), DomainError), ("chen", Fraction(1, 100), DomainError),
     ("nemes2", Fraction(1, 10**300), OverflowError), ("lsm", Fraction(1, 1000), OverflowError)],
)
def test_domain_edges_keep_their_exception_types(formula, x, error):
    with pytest.raises(error):
        log_error(FormulaId(formula), x).format_relative_error(6)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--digits", "5"], "numeric checks need more than 10 digits, got 5"),
        (
            ["eval", "w2", "1e-30"],
            "relative error of w2 at x = 1.00000E-30 cannot be printed: it is exp(6.54695E+86) - 1",
        ),
        (
            ["eval", "w2", "1e-300"],
            "relative error of w2 at x = 1.00000E-300 cannot be printed: it is exp(6.54695E+896) - 1",
        ),
        # rendering this value alone takes mpmath about 9 s
        (
            ["eval", "lsm", "1e-300", "--digits", "28"],
            "relative error of lsm at x = 1.00000E-300 cannot be printed: it is exp(1.11699E+2997) - 1",
        ),
        # the defect kernels' domain edges: ln(1 + u) at 1 + u < 0, and defects far above the Stirling term
        (["eval", "nemes1", "0.09"], "nemes1 at x = 9.00000E-2 cannot be evaluated: ln needs a positive argument"),
        (["eval", "chen", "0.01"], "chen at x = 1.00000E-2 cannot be evaluated: ln needs a positive argument"),
        (
            ["eval", "nemes2", "1e-300"],
            "relative error of nemes2 at x = 1.00000E-300 cannot be printed: it is exp(7.36111E+298) - 1",
        ),
        (["eval", "lsm", "0.001"], "relative error of lsm at x = 1.00000E-3 cannot be printed: it is exp(1.11699E+27) - 1"),
        (["constants", "--digits", "0"], "--digits must be positive, got 0"),
        (["constants", "--digits", "-5"], "--digits must be positive, got -5"),
        # an empty list is refused, not replaced by the published table's axis
        (["table", "--x", ","], "at least one abscissa is required"),
        (["table", "--formulas", ","], "at least one formula is required"),
        (["table", "--formulas", "w2,w2", "--x", "1"], "formulas must be distinct"),
        # every subcommand refuses a nonpositive --digits in the flag's own words
        (["eval", "w2", "1", "--digits", "0"], "--digits must be positive, got 0"),
        (["verify", "--digits", "0"], "--digits must be positive, got 0"),
        (["rate", "--digits", "0"], "--digits must be positive, got 0"),
        (["table", "--digits", "0"], "--digits must be positive, got 0"),
        # a check named twice would run and print twice
        (["verify", "--only", "csch-bound", "--only", "csch-bound"], "checks must be distinct"),
    ],
    ids=[
        "verify-too-few-digits",
        "eval-overflowing-value",
        "eval-unprintable-error",
        "eval-unprintable-value",
        "eval-nemes1-below-its-domain",
        "eval-chen-below-its-domain",
        "eval-nemes2-unprintable-error",
        "eval-lsm-unprintable-error",
        "constants-zero-digits",
        "constants-negative-digits",
        "table-empty-abscissas",
        "table-empty-formulas",
        "table-repeated-formula",
        "eval-zero-digits",
        "verify-zero-digits",
        "rate-zero-digits",
        "table-zero-digits",
        "verify-repeated-only",
    ],
)
def test_unrepresentable_requests_exit_two_with_one_error_line(capsys, monkeypatch, argv, message):
    # the refusal comes before any value is rendered, exactly or from its logarithm
    def render(*args):
        raise AssertionError("a value was rendered before the refusal")

    monkeypatch.setattr(PrecisionReal, "to_decimal_string", render)
    monkeypatch.setattr(precision, "_decimal_mantissa", render)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # Gamma(x+1) has a decimal exponent of about 4303 digits
        ("1e4299", "value of w2 at x = 1.00000E+4299 cannot be printed: it is exp(9.89781E+4302)"),
        # 4300 digits parse, in the numerator or in the denominator
        ("1" * 4300 + "/3", "value of w2 at x = 3.70370E+4298 cannot be printed: it is exp(3.66549E+4302)"),
        (
            "3/" + "1" * 4300,
            "relative error of w2 at x = 2.70000E-4299 cannot be printed: it is exp(3.32620E+12892) - 1",
        ),
    ],
    ids=["decimal", "numerator", "denominator"],
)
def test_a_value_with_an_unprintable_decimal_exponent_is_refused_before_rendering(
    capsys, monkeypatch, default_digit_limit, text, message
):
    # the value line's digits come from its logarithm: no mantissa is computed
    def mantissa(*args):
        raise AssertionError("a value was rendered before the refusal")

    monkeypatch.setattr(precision, "_decimal_mantissa", mantissa)
    assert main(["eval", "w2", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_str_and_repr_refuse_a_decimal_exponent_past_the_digit_limit(default_digit_limit):
    # the relative error of w2 at 3/(4300 ones) is exp(3.32620E+12892) - 1,
    # beyond 2^+-3,000,000, so it is rendered from its logarithm, whose
    # decimal exponent has 12,893 digits
    error = log_error(FormulaId.W2, Fraction(3, int("1" * 4300))).relative_error
    for render in (str, repr):
        with pytest.raises(OverflowError, match="more than 4300 digits cannot be printed"):
            render(error)


@pytest.mark.parametrize("sign", [1, -1])
def test_format_value_refuses_exactly_a_decimal_exponent_past_the_digit_limit(monkeypatch, default_digit_limit, sign):
    # F(x) = 10^E with E = log_value / ln 10; E of 4300 digits renders, of 4301
    # is refused before the mantissa step
    taken, mantissa = [], precision._decimal_mantissa
    monkeypatch.setattr(precision, "_decimal_mantissa", lambda *a: taken.append(a) or mantissa(*a))
    prec = 207
    one, ln10 = PrecisionReal(1, prec), ln(PrecisionReal(10, prec))
    for scale, printable in ((Fraction(999, 1000), True), (Fraction(1001, 1000), False)):
        log_value = sign * ln10 * (scale * 10**4300)
        record = LogErrorValue(one, FormulaId.W2, log_value, log_gap=one, relative_error=one)
        if printable:
            _, exponent = record.format_value(10).split("e")
            assert exponent[0] == "+-"[sign < 0] and len(exponent) == 4301
            assert len(taken) == 1
        else:
            with pytest.raises(OverflowError, match=r"value of w2 at x = 1E\+0 cannot be printed"):
                record.format_value(10)
            assert len(taken) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["table", "--x", "1e-300", "--formulas", "w2"],
            "relative error of w2 at x = 1.00000E-300 cannot be printed: it is exp(6.54695E+896) - 1",
        ),
        # a relative error near 2^(1.3e13): its exact Fraction alone would
        # need terabytes, so the size is checked before any conversion
        (
            ["table", "--x", "8e-15", "--formulas", "nemes2", "--format", "markdown"],
            "relative error of nemes2 at x = 8.00000E-15 cannot be printed: it is exp(9.20139E+12) - 1",
        ),
    ],
    ids=["beyond-any-integer", "beyond-memory"],
)
def test_unprintable_table_cell_names_its_argument(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "fmt, table",
    [
        ("csv", "x,formula,relative_error,log_gap,digits\n{x},stirling,1E+0,4.85056E+3,50\n"),
        ("markdown", "| x | stirling |\n| --- | --- |\n| {x} | 1E+0 |\n"),
    ],
    ids=["csv", "markdown"],
)
def test_an_abscissa_of_more_digits_than_python_prints_is_written_out(capsys, default_digit_limit, fmt, table):
    # 3/2^14000 parses (2^14000 has 4215 digits) and is the plain decimal
    # 3 5^14000 10^-14000, of 14,002 characters
    assert main(["table", "--x", f"3/{2**14000}", "--formulas", "stirling", "--format", fmt]) == 0
    captured = capsys.readouterr()
    sys.set_int_max_str_digits(0)  # for the reference's own str()
    x = "0." + str(3 * 5**14000).rjust(14000, "0")
    assert len(x) == 14002
    assert captured.out == table.format(x=x)
    assert captured.err == ""


def test_verify_grids_follow_the_linear_grid_rule():
    from windschitl import cli

    assert cli.DEFAULT_VERIFY_GRID == tuple(1 + Fraction(i, 2) for i in range(99))  # 1..50
    assert cli._parse_grid("1:6:6") == tuple(Fraction(k) for k in range(1, 7))


def test_grid_option_controls_monotone_checks(capsys):
    assert main(["verify", "--only", "monotone-convex-w2", "--grid", "1:6:6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS monotone-convex-w2")


# ---------------------------------------------------------------------------
# Parsing: a plain command line is read from the declared grammar, and
# wherever that route answers, it answers as argparse does
# ---------------------------------------------------------------------------

# well-formed values for each declared argument, then values argparse refuses
# or that the plain route leaves to argparse
WELL_FORMED_VALUES = {
    "formula": st.sampled_from([f.value for f in FormulaId]),
    "x": st.sampled_from(["1", "3/2", "0.5", "1e3", "100"]),
    "--digits": st.integers(1, 300).map(str),
    "--x": st.lists(st.sampled_from(["1", "2.5", "7/3", "1e2"]), max_size=3).map(",".join),
    "--formulas": st.lists(st.sampled_from([f.value for f in FormulaId]), max_size=3).map(",".join),
    "--format": st.sampled_from(["csv", "markdown", "text"]),
    "--only": st.sampled_from(sorted(cli._CHECK_BUILDERS)),
    "--grid": st.sampled_from(["1:50:5", "2:3:3", "1/2:7:4"]),
    "--formula": st.sampled_from(["w2", "w2star", "w0"]),
}
ODD_VALUES = st.sampled_from(["-1", "-5", "abc", "", "1:2", "nosuch", "inf", "1,", "--", "-h", "1e100000"])


@st.composite
def command_lines(draw, odd=True):
    """A command, then its option/value pairs and positionals in any order,
    options repeated; with odd=True, mixed with what argparse must handle."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    names = [name for name, _ in cli._COMMANDS[command][1]]
    options = [name for name in names if name.startswith("-")]
    value = lambda name: draw(ODD_VALUES if odd and draw(st.integers(0, 9)) == 0 else WELL_FORMED_VALUES[name])
    items = [[value(name)] for name in names if not name.startswith("-")]
    for name in draw(st.lists(st.sampled_from(options), max_size=5)):
        items.insert(draw(st.integers(0, len(items))), [name, value(name)])
    if odd:
        oddities = [
            lambda name: [name[: draw(st.integers(3, len(name)))], value(name)],  # abbreviation
            lambda name: [f"{name}={value(name)}"],
            lambda name: ["--"],
            lambda name: [draw(st.sampled_from(["-h", "--help"]))],
            lambda name: [value("x")],  # a positional too many
            lambda name: [name],  # an option without its value
        ]
        if draw(st.integers(0, 2)) == 0:
            for oddity in draw(st.lists(st.sampled_from(oddities), min_size=1, max_size=2)):
                items.insert(draw(st.integers(0, len(items))), oddity(draw(st.sampled_from(options))))
        if draw(st.integers(0, 5)) == 0 and items:
            items.pop(draw(st.integers(0, len(items) - 1)))  # a positional may go missing
        if draw(st.integers(0, 9)) == 0:
            command = draw(st.sampled_from(["", "-h", "--help", "ev", "frobnicate"]))
    return [command] + [word for item in items for word in item]


def argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it refuses the line or prints help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_the_plain_route_agrees_with_argparse_or_declines(argv):
    plain = cli._parse_plain(argv)
    assert plain is None or vars(plain) == argparse_vars(argv), argv


@settings(max_examples=200, deadline=None)
@given(argv=command_lines(odd=False))
def test_the_plain_route_serves_every_well_formed_line(argv):
    expected = argparse_vars(argv)
    plain = cli._parse_plain(argv)
    if expected is None:  # a well-formed value argparse still refuses, such as --format text for table
        assert plain is None, argv
    else:
        assert plain is not None and vars(plain) == expected, argv


def test_every_declared_argument_uses_only_what_the_plain_route_reads():
    for _, arguments in cli._COMMANDS.values():
        for name, kwargs in arguments:
            assert set(kwargs) <= {"type", "default", "choices", "action", "help"}, name
            assert kwargs.get("action", "append") == "append", name
            # argparse would convert a string default by its type, and the plain route does not
            assert not (isinstance(kwargs.get("default"), str) and "type" in kwargs), name
            # a positional has no default and no action
            assert name.startswith("-") or not {"default", "action"} & set(kwargs), name


# ---------------------------------------------------------------------------
# Fuzzing: every input that argparse accepts ends with exit code 0, 1 or 2
# ---------------------------------------------------------------------------

# positive numbers in [1e-300, 1e400], written as a CLI user would
NUMBERS = st.one_of(
    st.builds("{}/{}".format, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.builds("{}.{:03d}".format, st.integers(0, 10**5), st.integers(1, 999)),
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-300, 400)),
)
DIGITS = st.integers(-2, 300).map(str)
FORMULAS = st.sampled_from([f.value for f in FormulaId])

COMMANDS = st.one_of(
    st.builds(lambda f, x, d: ["eval", f, x, "--digits", d], FORMULAS, NUMBERS, DIGITS),
    st.builds(
        lambda xs, f, fmt, d: ["table", "--x", ",".join(xs), "--formulas", f, "--format", fmt, "--digits", d],
        st.lists(NUMBERS, min_size=1, max_size=2),
        FORMULAS,
        st.sampled_from(["csv", "markdown"]),
        DIGITS,
    ),
    st.builds(
        lambda f, xs, d: ["rate", "--formula", f, "--x", ",".join(xs), "--digits", d],
        st.sampled_from(["w2", "w2star"]),
        st.lists(NUMBERS, min_size=1, max_size=2),
        DIGITS,
    ),
    st.builds(lambda d: ["constants", "--digits", d], DIGITS),
    st.builds(
        lambda check, lo, span, d: ["verify", "--only", check, "--grid", f"{lo}:{lo + span}:3", "--digits", d],
        st.sampled_from(sorted(cli._CHECK_BUILDERS)),
        st.integers(1, 100),
        st.integers(1, 10**4),
        DIGITS,
    ),
)


# derandomized, so every run tries the same commands and takes the same
# time: an argument near 1e-300 can cost mpmath seconds in exp and sinh
@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=COMMANDS)
def test_every_accepted_command_exits_zero_one_or_two(argv):
    assert cli.main(argv) in (0, 1, 2), argv
