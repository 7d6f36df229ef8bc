"""The gamma-approximation formula catalog and its error functionals.

Thirteen closed-form approximations are evaluated in log space, each as
the Stirling term ln sqrt(2 pi) + (x + a) ln x - x plus a small defect
D_F(x), summed in one fixed-point integer and rounded once (immune to
overflow, and accurate enough to resolve gaps far below the formula
values).  Ten approximate Gamma(x+1); the Smith and Yang-Chu forms
approximate Gamma(x+1/2) and are compared against that target.

``w2_log_gap`` / ``w2star_log_gap`` are the error functionals of the two
exponent-corrected Windschitl formulas: ln Gamma(x+1) - ln F(x), strictly
decreasing and convex on (1, oo) with range (0, value-at-1).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import partial

from ._record import Record
from .exact import Polynomial, RationalFunction
from .precision import (
    DEFAULT_CONFIG,
    OracleConfig,
    PrecisionReal,
    _log_hyperbolic,
    _quotient,
    _scaled_integer,
    _stirling_fixed,
    _times_log,
    exp_decimal_string,
    expm1,
    from_fixed,
    ln_gamma_ref,
    log1p,
    memoized,
    DomainError,
    PrecisionError,
    format_sci,
    working_argument,
)

__all__ = [
    "FormulaId",
    "Target",
    "LogErrorValue",
    "log_approximate",
    "log_error",
    "W2_CORRECTION",
    "w2_log_gap",
    "w2star_log_gap",
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
        return Target.GAMMA_X_PLUS_1 if _FORMULAS[self][0] else Target.GAMMA_X_PLUS_HALF


# Each formula is ln F(x) = ln sqrt(2 pi) + (x + a) ln x - x + D_F(x): the
# Stirling term of precision._stirling_fixed, unrounded at its F fraction
# bits, plus the defect D_F(x) as an integer at the same F, rounded once.
# A defect is a sum of terms, each of one of three shapes bound to the
# paper's rational functions; each term reads x as the exact N 2^-t and
# states its error in units of 2^-F.


def _rational(d: RationalFunction, x: PrecisionReal, frac_bits: int) -> int:
    """D(x) for a rational function D: one floor division of its exact
    value at x, under one unit low."""
    return _quotient(*d.at_dyadic(*_scaled_integer(x.raw)), frac_bits)


def _times_log1p(m: RationalFunction, u: RationalFunction, x: PrecisionReal, frac_bits: int) -> int:
    """m(x) ln(1 + u(x)) for rational functions m > 0 and u:
    :func:`precision.log1p` of the exact u at x, times m
    (:func:`precision._times_log`), within 1.32 units, or 1.26 where m = 1;
    ln's DomainError where 1 + u <= 0 (nemes1 for x^2 < 1/120, chen for
    168 x^3 + 48 x < 7)."""
    n, t = _scaled_integer(x.raw)
    num, den = u.at_dyadic(n, t)
    return _times_log(*m.at_dyadic(n, t), frac_bits, lambda g: log1p(num, den, g))


def _hyperbolic(
    k: int, tanh: bool, c: RationalFunction | None, e: RationalFunction | None, x: PrecisionReal, frac_bits: int
) -> int:
    """(x/2) ln(k x sinh(r) + c(x)), or with tanh(r) for ``tanh``, where r =
    (1 + e(x))/(k x), for rational functions c >= 0 and e >= 0 with positive
    denominators, or none: (x/2) ln((1 + e) h(r) + c) with h(r) = sinh(r)/r
    or tanh(r)/r, within 1.33 units (:func:`precision._log_hyperbolic`,
    :func:`precision._times_log`).  The excess e, not the argument r itself,
    is the declared function, so no Horner step runs at r's degree."""
    n, t = _scaled_integer(x.raw)
    e_num, e_den = e.at_dyadic(n, t) if e else (0, 1)
    r, f = ((e_den + e_num) << t, e_den * k * n), (e_den + e_num, e_den)
    c = c.at_dyadic(n, t) if c else (0, 1)
    return _times_log(n, 1 << (t + 1), frac_bits, lambda g: _log_hyperbolic(r, g, tanh, c, f))


_x = Polynomial.identity()  # the paper's variable


@memoized
def _windschitl_core(x: PrecisionReal, frac_bits: int) -> int:
    """(x/2) ln(x sinh(1/x)), the defect of W0, shared by W0, W2 and W2*:
    within 1.33 units (:func:`_hyperbolic`).  Memoized: it depends on x's
    value and precision alone, which set frac_bits."""
    return _hyperbolic(1, False, None, None, x, frac_bits)


# the paper's exponent correction y(x); verify derives every use of it from this object
W2_CORRECTION = 7 / (324 * _x**3 * (35 * _x**2 + 33))

# x s - 1 = s / t - 1 for LSM's sinh argument s = 1/x + 1/(810 x^7) -
# 67/(42525 x^9) + 19/(8505 x^11) in t = 1/x, exactly: (105 x^4 - 134 x^2 +
# 190) / (85050 x^10), positive for every x > 0
_LSM_ARGUMENT = Polynomial.from_terms({1: 1, 7: Fraction(1, 810), 9: Fraction(-67, 42525), 11: Fraction(19, 8505)})
_LSM_EXCESS = RationalFunction(_LSM_ARGUMENT.divided_by_power(1) - 1).reciprocal_substitution()

# formula: (twice a, the terms whose sum is its defect; none for Stirling's formula itself)
_FORMULAS = {
    FormulaId.STIRLING: (1, ()),
    FormulaId.W0: (1, (_windschitl_core,)),
    FormulaId.W1: (1, (partial(_hyperbolic, 1, False, 1 / (810 * _x**6), None),)),
    # the core plus y, and the core plus ln(1 + y), with y exact
    FormulaId.W2: (1, (_windschitl_core, partial(_rational, W2_CORRECTION))),
    FormulaId.W2STAR: (1, (_windschitl_core, partial(_times_log1p, RationalFunction(1), W2_CORRECTION))),
    FormulaId.LSM: (1, (partial(_hyperbolic, 1, False, None, _LSM_EXCESS),)),  # (x/2) ln(x sinh(s))
    # ln(8x^3 + 4x^2 + x + 1/30)/6 - ln(2)/2 - (ln x)/2 = ln(1 + u)/6
    FormulaId.RAMANUJAN: (
        1,
        (partial(_times_log1p, RationalFunction(Fraction(1, 6)), (4 * _x**2 + _x + Fraction(1, 30)) / (8 * _x**3)),),
    ),
    FormulaId.SMITH: (0, (partial(_hyperbolic, 2, True, None, None),)),  # (x/2) ln(2x tanh(1/(2x)))
    FormulaId.NEMES1: (1, (partial(_times_log1p, RationalFunction(_x), 1 / (12 * _x**2 - Fraction(1, 10))),)),
    FormulaId.NEMES2: (1, (partial(_rational, (210 * _x**2 + 53) / (360 * _x * (7 * _x**2 + 2))),)),
    FormulaId.CHEN: (
        1,
        (
            partial(
                _times_log1p,
                RationalFunction(_x**2 + Fraction(53, 210)),
                1 / (12 * _x**3 + 24 * _x / 7 - Fraction(1, 2)),
            ),
        ),
    ),
    FormulaId.YANGCHU1: (0, (partial(_rational, -_x / (24 * (_x**2 + Fraction(7, 120)))),)),
    # -1/(24x) + (7/2880) / (x (x^2 + 31/98)) as one fraction, of lower degree
    FormulaId.YANGCHU2: (0, (partial(_rational, -(5880 * _x**2 + 1517) / (1440 * _x * (98 * _x**2 + 31))),)),
}


def log_approximate(formula: FormulaId, x: PrecisionReal) -> PrecisionReal:
    """ln F(x) for the tagged formula, at the precision carried by x: the
    Stirling term and the terms of the formula's defect summed in one integer
    at F fraction bits and rounded once, so within half an ulp plus 3.75
    units of 2^-F (:func:`precision._stirling_fixed`) plus each term's own."""
    if x.sign <= 0:
        raise DomainError("approximation formulas need x > 0")
    twice_a, defects = _FORMULAS[formula]
    total, frac_bits = _stirling_fixed(x.raw, twice_a, x.prec)
    for defect in defects:
        total += defect(x, frac_bits)
    return from_fixed(total, frac_bits, x.prec)


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
        """F(x) to ``digits`` significant digits, taken from log_value
        (:func:`precision.exp_decimal_string`), or an OverflowError as above
        when its decimal exponent has more digits than Python prints
        (``sys.get_int_max_str_digits()``): raised before any digit of F(x)
        is computed, but within one of that limit, where the rounding of
        the digits decides the exponent."""
        try:
            return exp_decimal_string(self.log_value, digits)
        except OverflowError:
            raise self._unprintable("value", f"exp({format_sci(self.log_value, 6)})") from None

    def _unprintable(self, what: str, form: str) -> OverflowError:
        x, formula = format_sci(self.x, 6), self.formula.value
        return OverflowError(f"{what} of {formula} at x = {x} cannot be printed: it is {form}")


def _log_gap(formula: FormulaId, x, cfg: OracleConfig) -> tuple[PrecisionReal, PrecisionReal]:
    """(ln(target gamma value) - ln F(x), ln F(x)): the one route to every log gap."""
    x = working_argument(x, cfg)
    # the target is Gamma(x + a + 1/2); an int 1 takes the cheaper exact conversion
    target = ln_gamma_ref(x + (1 if _FORMULAS[formula][0] else Fraction(1, 2)), cfg)
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
