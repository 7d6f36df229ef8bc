"""Comparison-table construction and CSV/Markdown rendering.

CSV is the regression format (6 significant digits, schema
``x,formula,relative_error,log_gap,digits``); Markdown is the display
format (4 significant digits, one row per abscissa).  Both use LF line
endings, a ``.`` decimal point, and the one scientific notation produced
by :func:`windschitl.precision.format_sci`, so identical inputs render
byte-identically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._record import Record
from .formulas import FormulaId, LogErrorValue, log_error
from .goldens import TABLE_ABSCISSAS, TABLE_FORMULAS
from .precision import DEFAULT_DIGITS, OracleConfig, _digit_string, format_sci
from .verify import check_goldens  # re-exported: defined with the other checks

__all__ = [
    "TableSpec",
    "build_table",
    "render_csv",
    "render_markdown",
    "check_goldens",
]


class TableSpec(Record):
    """What to tabulate: abscissas x formulas at a given oracle accuracy."""

    def __init__(
        self,
        abscissas: tuple[Fraction, ...] = TABLE_ABSCISSAS,
        formulas: tuple[FormulaId, ...] = TABLE_FORMULAS,
        precision_digits: int = DEFAULT_DIGITS,
    ):
        if not formulas:
            raise ValueError("at least one formula is required")
        if len(set(formulas)) != len(formulas):
            raise ValueError("formulas must be distinct")
        if not abscissas:
            raise ValueError("at least one abscissa is required")
        if any(x <= 0 for x in abscissas):
            raise ValueError("abscissas must be positive")
        if any(b <= a for a, b in zip(abscissas, abscissas[1:])):
            raise ValueError("abscissas must be strictly increasing")
        if precision_digits <= 0:
            raise ValueError("precision_digits must be positive")
        vars(self).update(abscissas=abscissas, formulas=formulas, precision_digits=precision_digits)

    @property
    def config(self) -> OracleConfig:
        return OracleConfig.for_digits(self.precision_digits)


def build_table(spec: TableSpec) -> tuple[LogErrorValue, ...]:
    """One error record per (abscissa, formula) pair, in that order.

    A failing cell raises ``log_error``'s error, which names the formula and x.
    """
    cfg = spec.config
    return tuple(log_error(formula, x, cfg) for x in spec.abscissas for formula in spec.formulas)


def _fraction_to_plain_decimal(fr: Fraction) -> str:
    """Exact plain-decimal rendering when the fraction terminates, else p/q,
    every digit string from :func:`precision._digit_string`, so a long
    abscissa such as 3/2^14000 prints past Python's limit on int-to-str
    conversion."""
    sign, num, den = "-" if fr < 0 else "", abs(fr.numerator), fr.denominator
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if rest != 1:
        return f"{sign}{_digit_string(num)}/{_digit_string(den)}"
    k = max(twos, fives)
    digits = _digit_string(num * 10**k // den).rjust(k + 1, "0")
    # in lowest terms the k-th decimal is never 0, so no zero trails
    return sign + (f"{digits[:-k]}.{digits[-k:]}" if k else digits)


def render_csv(spec: TableSpec, records: Sequence[LogErrorValue]) -> str:
    lines = ["x,formula,relative_error,log_gap,digits"]
    pairs = [(x, f) for x in spec.abscissas for f in spec.formulas]
    for (x, formula), record in zip(pairs, records, strict=True):
        lines.append(
            ",".join(
                (
                    _fraction_to_plain_decimal(x),
                    formula.value,
                    record.format_relative_error(6),
                    format_sci(record.log_gap, 6),
                    str(spec.precision_digits),
                )
            )
        )
    return "\n".join(lines) + "\n"


def render_markdown(spec: TableSpec, records: Sequence[LogErrorValue]) -> str:
    header = "| x | " + " | ".join(f.value for f in spec.formulas) + " |"
    rule = "| --- |" + " --- |" * len(spec.formulas)
    lines = [header, rule]
    per_row = len(spec.formulas)
    for i, x in enumerate(spec.abscissas):
        row = records[i * per_row : (i + 1) * per_row]
        cells = " | ".join(r.format_relative_error(4) for r in row)
        lines.append(f"| {_fraction_to_plain_decimal(x)} | {cells} |")
    return "\n".join(lines) + "\n"
