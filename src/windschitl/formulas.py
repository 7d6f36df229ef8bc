"""The gamma-approximation formula catalog and its error functionals.

Thirteen closed-form approximations are evaluated in log space (their
factored forms make ln F(x) direct to compute, immune to overflow, and
accurate enough to resolve gaps far below the formula values).  Ten
approximate Gamma(x+1); the Smith and Yang-Chu forms approximate
Gamma(x+1/2) and are compared against that target.

``w2_log_gap`` / ``w2star_log_gap`` are the error functionals of the two
exponent-corrected Windschitl formulas: ln Gamma(x+1) - ln F(x), strictly
decreasing and convex on (1, oo) with range (0, value-at-1).
"""

from __future__ import annotations

import enum
import sys
from fractions import Fraction

from ._record import Record
from .exact import Polynomial, RationalFunction
from .precision import (
    _LOG2_10,
    DEFAULT_CONFIG,
    OracleConfig,
    PrecisionReal,
    exp,
    expm1,
    ln,
    ln_gamma_ref,
    ln_sqrt_two_pi,
    ln_stirling_term,
    memoized,
    sinh,
    tanh,
    DomainError,
    PrecisionError,
    floor_log10,
    format_sci,
    working_argument,
)

__all__ = [
    "FormulaId",
    "Target",
    "LogErrorValue",
    "approximate",
    "log_approximate",
    "log_error",
    "W2_CORRECTION",
    "w2_correction",
    "w2_log_gap",
    "w2star_log_gap",
    "log1p_defect",
]


class Target(enum.Enum):
    """Which gamma value a formula approximates."""

    GAMMA_X_PLUS_1 = "gamma(x+1)"
    GAMMA_X_PLUS_HALF = "gamma(x+1/2)"


class FormulaId(enum.Enum):
    """Stable tags for the approximation formulas (CLI and CSV use the values)."""

    STIRLING = "stirling"
    W0 = "w0"
    W1 = "w1"
    W2 = "w2"
    W2STAR = "w2star"
    LSM = "lsm"
    RAMANUJAN = "ramanujan"
    SMITH = "smith"
    NEMES1 = "nemes1"
    NEMES2 = "nemes2"
    CHEN = "chen"
    YANGCHU1 = "yangchu1"
    YANGCHU2 = "yangchu2"

    @property
    def target(self) -> Target:
        if self in (FormulaId.SMITH, FormulaId.YANGCHU1, FormulaId.YANGCHU2):
            return Target.GAMMA_X_PLUS_HALF
        return Target.GAMMA_X_PLUS_1


def _ln_stirling(x: PrecisionReal) -> PrecisionReal:
    # ln sqrt(2 pi x) + x ln x - x = ln sqrt(2 pi) + (x + 1/2) ln x - x
    return ln_stirling_term(x, 1)


def _ln_half_shift_base(x: PrecisionReal) -> PrecisionReal:
    # ln sqrt(2 pi) + x ln x - x, shared by the Gamma(x+1/2) formulas
    return ln_stirling_term(x, 0)


@memoized
def _ln_windschitl_core(x: PrecisionReal) -> PrecisionReal:
    # ln W0(x), shared by W0, W2 and W2*: it depends on x's value and precision alone
    return _ln_stirling(x) + (x / 2) * ln(x * sinh(1 / x))


# the paper's exponent correction y(x) = 7 / (324 x^3 (35 x^2 + 33)), exactly;
# verify derives every algebraic use of the correction from this one object
W2_CORRECTION = RationalFunction(7, 324 * Polynomial.from_terms({3: 33, 5: 35}))


@memoized
def w2_correction(x: PrecisionReal) -> PrecisionReal:
    """W2_CORRECTION at the precision of x, to a relative 16 2^-prec; memoized,
    so W2 and W2* at one point share one evaluation."""
    return 7 / (324 * x * x * x * (35 * x * x + 33))


def _ln_w1(x: PrecisionReal) -> PrecisionReal:
    return _ln_stirling(x) + (x / 2) * ln(x * sinh(1 / x) + 1 / (810 * x**6))


def _ln_w2(x: PrecisionReal) -> PrecisionReal:
    return _ln_windschitl_core(x) + w2_correction(x)


def _ln_w2star(x: PrecisionReal) -> PrecisionReal:
    return _ln_windschitl_core(x) + ln(1 + w2_correction(x))


def _ln_lsm(x: PrecisionReal) -> PrecisionReal:
    # sinh-argument refinement truncated after the 1/x^11 coefficient
    arg = 1 / x + Fraction(1, 810) / x**7 - Fraction(67, 42525) / x**9 + Fraction(19, 8505) / x**11
    return _ln_stirling(x) + (x / 2) * ln(x * sinh(arg))


def _ln_ramanujan(x: PrecisionReal) -> PrecisionReal:
    body = 8 * x**3 + 4 * x * x + x + Fraction(1, 30)
    return ln_sqrt_two_pi(x.prec) - ln(PrecisionReal(2, x.prec)) / 2 + x * ln(x) - x + ln(body) / 6


def _ln_smith(x: PrecisionReal) -> PrecisionReal:
    return _ln_half_shift_base(x) + (x / 2) * ln(2 * x * tanh(1 / (2 * x)))


def _ln_nemes1(x: PrecisionReal) -> PrecisionReal:
    return _ln_stirling(x) + x * ln(1 + 1 / (12 * x * x - Fraction(1, 10)))


def _ln_nemes2(x: PrecisionReal) -> PrecisionReal:
    return _ln_stirling(x) + (210 * x * x + 53) / (360 * x * (7 * x * x + 2))


def _ln_chen(x: PrecisionReal) -> PrecisionReal:
    return _ln_stirling(x) + (x * x + Fraction(53, 210)) * ln(
        1 + 1 / (12 * x**3 + Fraction(24, 7) * x - Fraction(1, 2))
    )


def _ln_yangchu1(x: PrecisionReal) -> PrecisionReal:
    return _ln_half_shift_base(x) - Fraction(1, 24) * x / (x * x + Fraction(7, 120))


def _ln_yangchu2(x: PrecisionReal) -> PrecisionReal:
    return (
        _ln_half_shift_base(x)
        - 1 / (24 * x)
        + Fraction(7, 2880) / x / (x * x + Fraction(31, 98))
    )


_LN_EVALUATORS = {
    FormulaId.STIRLING: _ln_stirling,
    FormulaId.W0: _ln_windschitl_core,
    FormulaId.W1: _ln_w1,
    FormulaId.W2: _ln_w2,
    FormulaId.W2STAR: _ln_w2star,
    FormulaId.LSM: _ln_lsm,
    FormulaId.RAMANUJAN: _ln_ramanujan,
    FormulaId.SMITH: _ln_smith,
    FormulaId.NEMES1: _ln_nemes1,
    FormulaId.NEMES2: _ln_nemes2,
    FormulaId.CHEN: _ln_chen,
    FormulaId.YANGCHU1: _ln_yangchu1,
    FormulaId.YANGCHU2: _ln_yangchu2,
}


def log_approximate(formula: FormulaId, x: PrecisionReal) -> PrecisionReal:
    """ln F(x) for the tagged formula, at the precision carried by x."""
    if x.sign <= 0:
        raise DomainError("approximation formulas need x > 0")
    return _LN_EVALUATORS[formula](x)


def approximate(formula: FormulaId, x: PrecisionReal) -> PrecisionReal:
    """F(x) for the tagged formula, at the precision carried by x."""
    return exp(log_approximate(formula, x))


class LogErrorValue(Record):
    """Error of one formula at one abscissa against the reference oracle.

    ``log_value`` is ln F(x) at the precision of ``x``; ``log_gap`` is
    ln(true value) - ln(approximation); ``relative_error`` is
    |approximation - true| / true = |expm1(-log_gap)|, derived from the
    same evaluation by :func:`precision.expm1`, with no cancellation: it is
    within one ulp of that value at the computed gap, however small the gap.
    """

    def __init__(
        self,
        x: PrecisionReal,
        formula: FormulaId,
        log_value: PrecisionReal,
        log_gap: PrecisionReal,
        relative_error: PrecisionReal,
    ):
        vars(self).update(
            x=x,
            formula=formula,
            log_value=log_value,
            log_gap=log_gap,
            relative_error=relative_error,
        )

    def format_relative_error(self, sig_digits: int) -> str:
        """``format_sci`` of the relative error, or an OverflowError that names
        the formula and the argument when its decimal exponent is too large
        to print (exp(-log_gap) - 1 at an astronomically negative gap)."""
        try:
            return format_sci(self.relative_error, sig_digits)
        except OverflowError:
            form = f"exp({format_sci(-self.log_gap, 6)}) - 1"
            raise self._unprintable("relative error", form) from None

    def format_value(self, digits: int) -> str:
        """F(x) to ``digits`` significant digits, or an OverflowError as above,
        raised before F(x) is built, when its decimal exponent log_value / ln 10
        has more digits than Python prints (``sys.get_int_max_str_digits()``).
        ln 10 is taken only when log_value's binary exponent cannot decide."""
        limit, log_value = sys.get_int_max_str_digits(), self.log_value
        _, man, exponent, bits = log_value.raw
        # |log_value| < 2^(exponent + bits) and ln 10 > 2, so the decimal
        # exponent is below 2^(exponent + bits - 1): printable while that is
        # at most 10^limit, with 13 % to spare for the float product
        if limit and man and exponent + bits - 1 > limit * _LOG2_10:
            decimal_exponent = log_value / ln(PrecisionReal(10, log_value.prec))
            if floor_log10(decimal_exponent) >= limit:
                raise self._unprintable("value", f"exp({format_sci(log_value, 6)})")
        return exp(log_value).to_decimal_string(digits)

    def _unprintable(self, what: str, form: str) -> OverflowError:
        x, formula = format_sci(self.x, 6), self.formula.value
        return OverflowError(f"{what} of {formula} at x = {x} cannot be printed: it is {form}")


# ln Gamma(x + shift) is the log of each target; an int 1 takes the cheaper exact conversion
_TARGET_SHIFT = {Target.GAMMA_X_PLUS_1: 1, Target.GAMMA_X_PLUS_HALF: Fraction(1, 2)}


def _log_gap(formula: FormulaId, x, cfg: OracleConfig) -> tuple[PrecisionReal, PrecisionReal]:
    """(ln(target gamma value) - ln F(x), ln F(x)): the one route to every log gap."""
    x = working_argument(x, cfg)
    target = ln_gamma_ref(x + _TARGET_SHIFT[formula.target], cfg)
    log_value = log_approximate(formula, x)
    return target - log_value, log_value


def log_error(formula: FormulaId, x, cfg: OracleConfig = DEFAULT_CONFIG) -> LogErrorValue:
    """Evaluate a formula against its target gamma value at oracle accuracy.

    Domain and precision failures are re-raised naming the formula and x.
    """
    x = working_argument(x, cfg)
    try:
        gap, log_value = _log_gap(formula, x, cfg)
    except (DomainError, PrecisionError) as e:
        raise type(e)(
            f"{formula.value} at x = {format_sci(x, 6)} cannot be evaluated: {e}"
        ) from e
    rel = abs(expm1(-gap))
    return LogErrorValue(
        x=x, formula=formula, log_value=log_value, log_gap=gap, relative_error=rel
    )


def w2_log_gap(x, cfg: OracleConfig = DEFAULT_CONFIG) -> PrecisionReal:
    """ln Gamma(x+1) - ln W2(x): the exponent-corrected formula's log error.

    Strictly decreasing and convex on (1, oo), falling from its value at
    x = 1 (about 2.4066e-5) to 0; positive, so the formula underestimates.
    """
    return _log_gap(FormulaId.W2, x, cfg)[0]


def w2star_log_gap(x, cfg: OracleConfig = DEFAULT_CONFIG) -> PrecisionReal:
    """ln Gamma(x+1) - ln W2*(x), for the linear-corrected variant."""
    return _log_gap(FormulaId.W2STAR, x, cfg)[0]


def log1p_defect(y: PrecisionReal) -> PrecisionReal:
    """y - ln(1+y) for y > -1: the gap between the two correction styles.

    Satisfies w2star_log_gap(x) = w2_log_gap(x) + log1p_defect(w2_correction(x)).
    """
    if y <= -1:
        raise DomainError("log1p_defect needs y > -1")
    return y - ln(1 + y)
