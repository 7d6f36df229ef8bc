"""The published comparison table, as printed, and the golden cells it gives.

Each printed value is the relative error |F(x) - Gamma(x+1)| / Gamma(x+1)
of one formula at one abscissa, rounded to nearest at 4 significant
digits.  The table's axes are the default ``table`` grid, and its cells
are stored as the printed strings.  Two cells are misprints: each is
declared with the value it rounds to.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .formulas import FormulaId

__all__ = ["GoldenCell", "TABLE_ABSCISSAS", "TABLE_FORMULAS", "TABLE_GOLDENS"]


class GoldenCell(Record):
    """One printed cell: ``published`` is the decimal string the paper
    prints, such as ``"1.900e-6"``; ``corrected_relative_error`` is the
    correctly rounded 4-digit value where the paper misprints the cell,
    else None."""

    def __init__(
        self,
        x: Fraction,
        formula: FormulaId,
        published: str,
        corrected_relative_error: Fraction | None = None,
    ):
        if x <= 0:
            raise ValueError("abscissa must be positive")
        if not isinstance(published, str) or Fraction(published) <= 0:
            raise ValueError("published relative error must be a positive decimal string")
        if corrected_relative_error is not None and (
            corrected_relative_error <= 0 or corrected_relative_error == Fraction(published)
        ):
            raise ValueError("a corrected relative error must be positive and differ from the printed one")
        vars(self).update(
            x=x,
            formula=formula,
            published=published,
            corrected_relative_error=corrected_relative_error,
        )


_PRINTED_FORMULAS = ("nemes2", "chen", "w1", "w2")
_PRINTED_ROWS = (
    (1, ("1.114e-4", "1.398e-4", "1.832e-4", "2.407e-5")),
    (2, ("1.900e-6", "2.222e-6", "2.668e-6", "2.308e-7")),
    (5, ("4.353e-9", "4.956e-9", "5.743e-9", "1.249e-10")),
    (10, ("3.609e-11", "4.088e-11", "4.710e-11", "2.785e-13")),
    (20, ("2.864e-13", "3.240e-13", "3.727e-13", "5.634e-16")),
    (50, ("4.713e-16", "5.330e-16", "6.129e-16", "1.492e-19")),
    (100, ("3.684e-18", "4.166e-18", "4.791e-18", "2.918e-22")),
)
# (x, formula): the correctly rounded value of a misprinted cell.  At 100
# digits nemes2 at 2 is 1.89664e-6, and w1 at 100 is 4.79047e-18, 0.03
# units of its 4th digit below a tie.
_MISPRINTS = {(2, "nemes2"): Fraction("1.897e-6"), (100, "w1"): Fraction("4.790e-18")}

TABLE_FORMULAS: tuple[FormulaId, ...] = tuple(FormulaId(tag) for tag in _PRINTED_FORMULAS)
TABLE_ABSCISSAS: tuple[Fraction, ...] = tuple(Fraction(x) for x, _ in _PRINTED_ROWS)

# row by row, in the printed column order
TABLE_GOLDENS: tuple[GoldenCell, ...] = tuple(
    GoldenCell(Fraction(x), FormulaId(tag), printed, _MISPRINTS.get((x, tag)))
    for x, row in _PRINTED_ROWS
    for tag, printed in zip(_PRINTED_FORMULAS, row, strict=True)
)
