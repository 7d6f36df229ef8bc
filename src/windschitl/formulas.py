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
import sys
from fractions import Fraction

from mpmath import libmp

from ._record import Record
from .exact import Polynomial, RationalFunction
from .precision import (
    _LOG2_10,
    _RND,
    DEFAULT_CONFIG,
    MIN_PRECISION_BITS,
    OracleConfig,
    PrecisionReal,
    _ln_fixed,
    _rational_raw,
    _scaled_integer,
    _stirling_fixed,
    _wrap,
    exp,
    expm1,
    ln,
    ln_gamma_ref,
    log1p,
    memoized,
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


def _quotient(num: int, den: int, frac_bits: int) -> int:
    """floor(num / den 2^frac_bits) for den > 0: under one unit of 2^-frac_bits low."""
    return (num << frac_bits) // den if frac_bits >= 0 else num // (den << -frac_bits)


def _times_log(m_num: int, m_den: int, frac_bits: int, log_at) -> int:
    """m L in fixed point at frac_bits, for m = m_num / m_den > 0: within e/4
    + 1 units when log_at(g) gives L at g = frac_bits + k fraction bits
    within e units, where m < 2^(k-2): the product is floored once."""
    k = max(m_num.bit_length() - m_den.bit_length() + 1, 0) + 2
    return _quotient(m_num * log_at(frac_bits + k), m_den, -k)


# The hyperbolic defects sum sinh(r)/r and cosh r as series where r < 2^mag,
# mag < 0, and wp <= _HYPERBOLIC_SERIES_RATIO (-mag), at least twice their
# term count; past it, libmp's sinh and tanh cost less (at 300 digits the two
# tie from wp / (-mag) near 280 down).
_HYPERBOLIC_SERIES_RATIO = 400
# Guard bits of those series: at most _HYPERBOLIC_SERIES_RATIO / 2 + 1 terms,
# each within 3 units of 2^-wp, are below a relative 2^-8 of a unit in h(r).
_HYPERBOLIC_GUARD = 18


def _hyperbolic_series(r2: int, wp: int, odd: int) -> int:
    """sum_(k>=1) r^2k / (2k + odd)! in fixed point at wp bits, from r2 =
    r^2 2^wp within 2 units and r <= 1/2: sinh(r)/r - 1 for odd = 1, cosh(r)
    - 1 for odd = 0.  Each term is floored twice and is at most r^2/2 of
    the one before, so it is within 3 units, and the omitted ones sum below
    0.2."""
    total, term, j = 0, 1 << wp, odd
    while term:
        term = ((term * r2) >> wp) // ((j + 1) * (j + 2))
        total += term
        j += 2
    return total


def _log_hyperbolic(r: tuple[int, int], frac_bits: int, tanh: bool = False, c: tuple[int, int] = (0, 1)) -> int:
    """ln(h(r) + c) in fixed point at frac_bits, h(r) = sinh(r)/r, or tanh(r)/r
    with ``tanh``, for the exact rationals r = p/q > 0 and c >= 0: within
    1.32 units.

    With r < 2^mag, where mag < 0 and wp = max(frac_bits, 0) +
    _HYPERBOLIC_GUARD is at most _HYPERBOLIC_SERIES_RATIO (-mag), sinh(r)/r
    and cosh r come from :func:`_hyperbolic_series`, r^2 from r floored at wp
    bits, within a relative 2^-8 unit each, c is floored at wp bits, and
    :func:`precision.log1p` takes the exact rational h + c - 1 they give:
    within 1.26 units of that.  Otherwise r is rounded to wp =
    frac_bits + s bits, r + 5 < 2^(s-4), and libmp's sinh or tanh, the
    quotient by r, c and the sum are each rounded to wp bits.  h moves by
    r h'(r)/h(r), at most max(r, 1) times r's relative error, so h + c is
    within a relative (r + 5) 2^-wp, a sixteenth of a unit in its logarithm,
    which :func:`precision._ln_fixed` takes within 1.25 units.
    """
    p, q = r
    c_num, c_den = c
    mag = p.bit_length() - q.bit_length() + 1
    wp = max(frac_bits, 0) + _HYPERBOLIC_GUARD
    if mag < 0 and wp <= _HYPERBOLIC_SERIES_RATIO * -mag:
        root = (p << wp) // q
        r2, one = (root * root) >> wp, 1 << wp
        sinhc = one + _hyperbolic_series(r2, wp, 1)
        cosh = one + _hyperbolic_series(r2, wp, 0) if tanh else one
        added = ((c_num << wp) // c_den * cosh) >> wp if c_num else 0
        return log1p(sinhc - cosh + added, cosh, frac_bits)
    wp = max(frac_bits + max(mag, 3) + 5, MIN_PRECISION_BITS)
    arg = _rational_raw(p, q, wp)
    h = libmp.mpf_div((libmp.mpf_tanh if tanh else libmp.mpf_sinh)(arg, wp, _RND), arg, wp, _RND)
    if c_num:
        h = libmp.mpf_add(h, _rational_raw(c_num, c_den, wp), wp, _RND)
    return _ln_fixed(h, frac_bits)


# Each formula is ln F(x) = ln sqrt(2 pi) + (x + a) ln x - x + D_F(x): the
# Stirling term of precision._stirling_fixed, unrounded at its F fraction
# bits, plus the defect D_F(x) as an integer at the same F, rounded once.
# x is the exact N 2^-t of its raw value (precision._scaled_integer), and
# each defect kernel states its error in units of 2^-F.


@memoized
def _windschitl_core(x: PrecisionReal, frac_bits: int) -> int:
    """(x/2) ln(x sinh(1/x)), the defect of W0, shared by W0, W2 and W2*:
    within 1.33 units (:func:`_log_hyperbolic`, :func:`_times_log`).
    Memoized: it depends on x's value and precision alone, which set
    frac_bits."""
    n, t = _scaled_integer(x.raw)
    return _times_log(n, 1 << (t + 1), frac_bits, lambda g: _log_hyperbolic((1 << t, n), g))


# the paper's exponent correction y(x) = 7 / (324 x^3 (35 x^2 + 33)), exactly;
# verify derives every algebraic use of the correction from this one object
W2_CORRECTION = RationalFunction(7, 324 * Polynomial.from_terms({3: 33, 5: 35}))


@memoized
def w2_correction(x: PrecisionReal) -> PrecisionReal:
    """W2_CORRECTION at the precision of x, as the exact 7 2^(5t) / (324 N^3
    (35 N^2 + 33 4^t)) rounded once: within half an ulp.  Memoized, so W2
    and W2* at one point share one evaluation."""
    n, t = _scaled_integer(x.raw)
    den = 324 * n**3 * (35 * n * n + (33 << 2 * t))
    return _wrap(_rational_raw(7 << 5 * t, den, x.prec), x.prec)


def _w2(x: PrecisionReal, frac_bits: int) -> int:
    """The core plus the shared correction y, floored: within 2.33 units and
    half an ulp of y at the precision of x, the correction's one rounding."""
    return _windschitl_core(x, frac_bits) + libmp.to_fixed(w2_correction(x).raw, frac_bits)


def _w2star(x: PrecisionReal, frac_bits: int) -> int:
    """The core plus ln(1 + y) of the shared correction (:func:`precision.log1p`):
    within 2.59 units and half an ulp of y."""
    return _windschitl_core(x, frac_bits) + log1p(*libmp.to_rational(w2_correction(x).raw), frac_bits)


def _w1(x: PrecisionReal, frac_bits: int) -> int:
    """(x/2) ln(x sinh(1/x) + 1/(810 x^6)): within 1.33 units."""
    n, t = _scaled_integer(x.raw)
    c = (1 << 6 * t, 810 * n**6)
    return _times_log(n, 1 << (t + 1), frac_bits, lambda g: _log_hyperbolic((1 << t, n), g, c=c))


def _lsm(x: PrecisionReal, frac_bits: int) -> int:
    """(x/2) ln(x sinh(s)) with the sinh argument s = 1/x + 1/(810 x^7) -
    67/(42525 x^9) + 19/(8505 x^11), so x s = 1 + (105 x^4 - 134 x^2 + 190)
    / (85050 x^10), positive for every x > 0: (x/2) (ln(sinh(s)/s) +
    ln(x s)), within 1.65 units."""
    n, t = _scaled_integer(x.raw)
    n2 = n * n
    excess = ((105 * n2 * n2) << 6 * t) - ((134 * n2) << 8 * t) + (190 << 10 * t)  # (x s - 1) 85050 n^10
    den = 85050 * n2**5
    s = ((den + excess) << t, den * n)  # s = x s / x, exactly
    return _times_log(n, 1 << (t + 1), frac_bits, lambda g: _log_hyperbolic(s, g) + log1p(excess, den, g))


def _smith(x: PrecisionReal, frac_bits: int) -> int:
    """(x/2) ln(2x tanh(1/(2x))), that is (x/2) ln(tanh(u)/u) at u = 1/(2x):
    within 1.33 units."""
    n, t = _scaled_integer(x.raw)
    return _times_log(n, 1 << (t + 1), frac_bits, lambda g: _log_hyperbolic((1 << t, 2 * n), g, tanh=True))


def _ramanujan(x: PrecisionReal, frac_bits: int) -> int:
    """ln(8x^3 + 4x^2 + x + 1/30)/6 - ln(2)/2 - (ln x)/2, which is
    ln(1 + u)/6 with u = t/2 + t^2/8 + t^3/240 = (120 x^2 + 30 x + 1) /
    (240 x^3), t = 1/x: within 1.32 units."""
    n, t = _scaled_integer(x.raw)
    num = ((120 * n * n) << t) + ((30 * n) << 2 * t) + (1 << 3 * t)
    return _times_log(1, 6, frac_bits, lambda g: log1p(num, 240 * n**3, g))


def _nemes1(x: PrecisionReal, frac_bits: int) -> int:
    """x ln(1 + u), u = 1/(12 x^2 - 1/10) = 10 4^t / (120 N^2 - 4^t): within
    1.32 units; ln's DomainError where 1 + u <= 0, for x^2 < 1/120."""
    n, t = _scaled_integer(x.raw)
    return _times_log(n, 1 << t, frac_bits, lambda g: log1p(10 << 2 * t, 120 * n * n - (1 << 2 * t), g))


def _nemes2(x: PrecisionReal, frac_bits: int) -> int:
    """(210 x^2 + 53) / (360 x (7 x^2 + 2)): one floor division, under one unit low."""
    n, t = _scaled_integer(x.raw)
    four_t = 1 << 2 * t
    return _quotient((210 * n * n + 53 * four_t) << t, 360 * n * (7 * n * n + 2 * four_t), frac_bits)


def _chen(x: PrecisionReal, frac_bits: int) -> int:
    """(x^2 + 53/210) ln(1 + u), u = 1/(12 x^3 + 24x/7 - 1/2) = 14 8^t /
    (168 N^3 + 48 N 4^t - 7 8^t): within 1.32 units; ln's DomainError where
    1 + u <= 0, for 168 x^3 + 48 x < 7."""
    n, t = _scaled_integer(x.raw)
    four_t = 1 << 2 * t
    den = 168 * n**3 + 48 * n * four_t - (7 << 3 * t)
    return _times_log(210 * n * n + 53 * four_t, 210 * four_t, frac_bits, lambda g: log1p(14 << 3 * t, den, g))


def _yangchu1(x: PrecisionReal, frac_bits: int) -> int:
    """-x / (24 (x^2 + 7/120)) = -5x / (120 x^2 + 7): one floor division, under one unit low."""
    n, t = _scaled_integer(x.raw)
    return _quotient(-5 * n << t, 120 * n * n + (7 << 2 * t), frac_bits)


def _yangchu2(x: PrecisionReal, frac_bits: int) -> int:
    """-1/(24x) + (7/2880) / (x (x^2 + 31/98)) = -(5880 x^2 + 1517) / (1440 x
    (98 x^2 + 31)): one floor division, under one unit low."""
    n, t = _scaled_integer(x.raw)
    four_t = 1 << 2 * t
    return _quotient(-(5880 * n * n + 1517 * four_t) << t, 1440 * n * (98 * n * n + 31 * four_t), frac_bits)


# formula: (twice a, defect kernel, or None for Stirling's formula itself)
_FORMULAS = {
    FormulaId.STIRLING: (1, None),
    FormulaId.W0: (1, _windschitl_core),
    FormulaId.W1: (1, _w1),
    FormulaId.W2: (1, _w2),
    FormulaId.W2STAR: (1, _w2star),
    FormulaId.LSM: (1, _lsm),
    FormulaId.RAMANUJAN: (1, _ramanujan),
    FormulaId.SMITH: (0, _smith),
    FormulaId.NEMES1: (1, _nemes1),
    FormulaId.NEMES2: (1, _nemes2),
    FormulaId.CHEN: (1, _chen),
    FormulaId.YANGCHU1: (0, _yangchu1),
    FormulaId.YANGCHU2: (0, _yangchu2),
}


def log_approximate(formula: FormulaId, x: PrecisionReal) -> PrecisionReal:
    """ln F(x) for the tagged formula, at the precision carried by x: the
    Stirling term and the formula's defect summed in one integer at F
    fraction bits and rounded once, so within half an ulp plus 3.75 units of
    2^-F (:func:`precision._stirling_fixed`) plus the defect kernel's own."""
    if x.sign <= 0:
        raise DomainError("approximation formulas need x > 0")
    twice_a, defect = _FORMULAS[formula]
    total, frac_bits = _stirling_fixed(x.raw, twice_a, x.prec)
    if defect is not None:
        total += defect(x, frac_bits)
    return _wrap(libmp.from_man_exp(total, -frac_bits, x.prec, _RND), x.prec)


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
    y is exact, and with |y| < 2^mag the difference is at least 2^(2 min(mag,
    0) - 4), so y 2^G less :func:`precision.log1p` at G = prec + 12 - 2
    min(mag, 0) fraction bits cancels nothing that counts: within 1.26
    units of 2^-G, below 2^-(prec+4) of the result, before its one rounding.
    """
    if y <= -1:
        raise DomainError("log1p_defect needs y > -1")
    _, man, exp, bc = y.raw
    if not man:
        return y
    frac_bits = y.prec + 12 - 2 * min(exp + bc, 0)
    num, den = libmp.to_rational(y.raw)
    total = (num << frac_bits) // den - log1p(num, den, frac_bits)
    return _wrap(libmp.from_man_exp(total, -frac_bits, y.prec, _RND), y.prec)
