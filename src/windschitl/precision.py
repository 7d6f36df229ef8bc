"""Configurable-precision real arithmetic and reference special functions.

``PrecisionReal`` wraps mpmath's low-level ``libmp`` layer: every value
carries its working precision in bits and every operation rounds to
nearest at that precision.  Only ``libmp`` is loaded, as the private
package ``windschitl._libmp`` (see :func:`_load_libmp`): all of mpmath,
which this package otherwise does not call, took a cold command about
20 ms to import, ``libmp`` alone about 4.5 ms.  Each operator is one
``libmp`` call on raw values, with no temporary ``PrecisionReal`` for an
``int`` or ``Fraction`` operand.  No global precision state exists, values
are immutable, and all functions here are pure, so concurrent use is safe
(the memos behind them are thread-safe ``lru_cache``s of immutable values,
see :func:`memoized`).

The module also provides the ground-truth oracles ``ln_gamma_ref`` and
``trigamma_ref``: upward argument shifting followed by the divergent
asymptotic series truncated where its terms still decrease, so the
remainder is bounded in magnitude by the first omitted term.  At an
integer x below the shift threshold, where the paper's own numbers sit
(beta at x = 1, its table at x = 1 to 100), ``ln_gamma_ref`` takes the
functional equation down to Gamma(1) = 1 instead: ln (x-1)! from the
exact factorial, one logarithm rounded once, within half an ulp and 1.25
units of 2^-F (see :func:`_ln_factorial`), with no series and no
truncation.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from itertools import accumulate

from ._record import Record
from .exact import bernoulli  # noqa: F401 - unused here; perfbench/tests/test_tracing.py checks this binding
from .exact import tangent_numbers


def _load_libmp():
    """mpmath's ``libmp`` package alone, loaded as ``windschitl._libmp``.

    ``from mpmath import libmp`` would first run ``mpmath/__init__``, which
    loads all of mpmath (its contexts, functions, calculus and matrices)
    for the one layer this module calls.  ``libmp`` imports nothing of
    mpmath outside itself, only relatively, so its ``__init__`` runs here
    as a package of its own, from mpmath's files and cached bytecode.  It
    is registered before it runs, so its relative imports resolve to
    ``windschitl._libmp.*``.
    """
    mpmath = find_spec("mpmath")  # finds the package without running it
    if mpmath is None:
        raise ModuleNotFoundError("No module named 'mpmath'", name="mpmath")
    directory = os.path.join(mpmath.submodule_search_locations[0], "libmp")
    name = f"{__package__}._libmp"
    spec = spec_from_file_location(
        name, os.path.join(directory, "__init__.py"), submodule_search_locations=[directory]
    )
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


libmp = _load_libmp()

__all__ = [
    "MIN_PRECISION_BITS",
    "DomainError",
    "PrecisionError",
    "PrecisionReal",
    "OracleConfig",
    "working_argument",
    "exp",
    "expm1",
    "ln",
    "log1p",
    "sqrt",
    "sinh",
    "tanh",
    "pi",
    "ln_gamma_ref",
    "trigamma_ref",
    "exp_decimal_string",
    "format_sci",
]

MIN_PRECISION_BITS = 64
_RND = "n"  # round to nearest even, everywhere
_LOG2_10 = 3.321928094887362
# Entries of each memo of a kernel result (here and in formulas): above the
# distinct arguments of a default verify run (100), so none is evaluated
# twice there, and bounded, so a stream of fresh arguments cannot grow it.
_MEMO_SIZE = 128


class DomainError(ValueError):
    """Argument outside a function's real domain (never a silent NaN)."""


class PrecisionError(ArithmeticError):
    """The requested accuracy cannot be delivered with the given configuration."""


def bits_for_digits(digits: int) -> int:
    """Bits needed to carry ``digits`` significant decimal digits, with headroom."""
    return int(digits * _LOG2_10) + 8


# An int below 2^64 in magnitude is exact at every precision (>= 64 bits),
# so libmp's cheaper unrounded conversion gives the same raw value.
_EXACT_INT = 1 << MIN_PRECISION_BITS


def _binary_operator(name: str, fn, reflected: bool = False, divides: bool = False):
    """The PrecisionReal operator ``name`` over the libmp function fn(s, t, prec, rnd).

    One type test on the fast path, one libmp call, one result object.  A
    PrecisionReal operand, a subclass included, sets the precision to the
    larger of the two; an int, bool or Fraction operand is rounded straight
    to a raw value at self.prec, with no temporary PrecisionReal; anything
    else gives NotImplemented.  A reflected operator passes the operands to
    fn swapped, and ``divides`` refuses a zero right operand of fn.
    """
    from_int, mpf_sign = libmp.from_int, libmp.mpf_sign
    new = object.__new__

    def binary(self, other):
        prec = self.prec
        if isinstance(other, PrecisionReal):
            if other.prec > prec:
                prec = other.prec
            raw = other.raw
        elif isinstance(other, int):
            raw = from_int(other) if -_EXACT_INT < other < _EXACT_INT else from_int(other, prec, _RND)
        elif isinstance(other, Fraction):
            raw = _rational_raw(other.numerator, other.denominator, prec)
        else:
            return NotImplemented
        s, t = (raw, self.raw) if reflected else (self.raw, raw)
        if divides and not t[1] and mpf_sign(t) == 0:
            raise ZeroDivisionError("division by zero")
        result = new(PrecisionReal)  # _wrap, inlined on the hottest path
        _set_raw(result, fn(s, t, prec, _RND))
        _set_prec(result, prec)
        return result

    binary.__name__ = name
    binary.__qualname__ = f"PrecisionReal.{name}"
    return binary


def _comparison(name: str, signs: tuple[int, ...]):
    """The exact PrecisionReal comparison ``name``: whether the sign of
    self - other (-1, 0 or 1) is one of ``signs``, or NotImplemented where
    ``_cmp`` gives None.  A PrecisionReal operand goes straight to libmp."""
    mpf_cmp = libmp.mpf_cmp

    def compare(self, other):
        if isinstance(other, PrecisionReal):
            return mpf_cmp(self.raw, other.raw) in signs
        c = self._cmp(other)
        return NotImplemented if c is None else c in signs

    compare.__name__ = name
    compare.__qualname__ = f"PrecisionReal.{name}"
    return compare


class PrecisionReal:
    """Immutable real number with an explicit precision in bits (>= 64).

    Arithmetic between two values rounds to nearest at the larger of the
    two precisions; int and Fraction operands are absorbed at the other
    operand's precision.  Comparisons are exact (no rounding), including
    against int and Fraction.  Each operator tests for a PrecisionReal
    operand first and makes one libmp call (see :func:`_binary_operator`
    and :func:`_comparison`); its result is bit for bit that of turning
    the operand into a PrecisionReal first.  ``__init__`` builds values
    from outside; results are made without it.
    """

    __slots__ = ("raw", "prec")

    raw: tuple
    prec: int

    def __init__(self, value, prec: int | None = None) -> None:
        if isinstance(value, PrecisionReal):
            prec = value.prec if prec is None else prec
            _check_prec(prec)
            raw = value.raw if prec >= value.prec else libmp.mpf_pos(value.raw, prec, _RND)
        else:
            if prec is None:
                raise TypeError("precision (bits) is required for new values")
            _check_prec(prec)
            if isinstance(value, int):
                raw = libmp.from_int(value, prec, _RND)
            elif isinstance(value, Fraction):
                raw = _rational_raw(value.numerator, value.denominator, prec)
            elif isinstance(value, str):
                raw = libmp.from_str(value, prec, _RND)
            elif isinstance(value, float):
                if not math.isfinite(value):
                    raise ValueError(f"cannot build PrecisionReal from {value}")
                raw = libmp.mpf_pos(libmp.from_float(value), prec, _RND)
            else:
                raise TypeError(f"cannot build PrecisionReal from {type(value).__name__}")
        _set_raw(self, raw)
        _set_prec(self, prec)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PrecisionReal is immutable")

    # -- arithmetic -----------------------------------------------------

    __add__ = _binary_operator("__add__", libmp.mpf_add)
    __radd__ = _binary_operator("__radd__", libmp.mpf_add, reflected=True)
    __sub__ = _binary_operator("__sub__", libmp.mpf_sub)
    __rsub__ = _binary_operator("__rsub__", libmp.mpf_sub, reflected=True)
    __mul__ = _binary_operator("__mul__", libmp.mpf_mul)
    __rmul__ = _binary_operator("__rmul__", libmp.mpf_mul, reflected=True)
    __truediv__ = _binary_operator("__truediv__", libmp.mpf_div, divides=True)
    __rtruediv__ = _binary_operator("__rtruediv__", libmp.mpf_div, reflected=True, divides=True)

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            if exponent < 0 and libmp.mpf_sign(self.raw) == 0:
                raise ZeroDivisionError("zero to a negative power")
            return _wrap(libmp.mpf_pow_int(self.raw, exponent, self.prec, _RND), self.prec)
        return NotImplemented

    def __neg__(self):
        return _wrap(libmp.mpf_neg(self.raw), self.prec)

    def __abs__(self):
        return _wrap(libmp.mpf_abs(self.raw), self.prec)

    def __bool__(self) -> bool:
        return libmp.mpf_sign(self.raw) != 0

    # -- exact comparisons ----------------------------------------------

    def _cmp(self, other) -> int | None:
        """-1, 0 or 1 as self is below, at or above an int or Fraction,
        exactly; None for any other operand (the comparisons handle a
        PrecisionReal before they call this)."""
        if isinstance(other, int):
            num, den = other, 1
        elif isinstance(other, Fraction):
            num, den = other.numerator, other.denominator
        else:
            return None
        # man 2^exp against num/den, den > 0, cross-multiplied in integers
        sign, man, exp, _ = self.raw
        lhs = -man * den if sign else man * den
        if exp >= 0:
            lhs <<= exp
        else:
            num <<= -exp
        return (lhs > num) - (lhs < num)

    __eq__ = _comparison("__eq__", (0,))
    __lt__ = _comparison("__lt__", (-1,))
    __le__ = _comparison("__le__", (-1, 0))
    __gt__ = _comparison("__gt__", (1,))
    __ge__ = _comparison("__ge__", (0, 1))

    __hash__ = None  # mixed-precision equality is value-based; hashing is a trap

    @property
    def sign(self) -> int:
        return libmp.mpf_sign(self.raw)

    # -- conversions -----------------------------------------------------

    def to_fraction(self) -> Fraction:
        """Exact rational value of this binary float."""
        return Fraction(*self.as_integer_ratio())

    def as_integer_ratio(self) -> tuple[int, int]:
        """(p, q) in lowest terms with q > 0 a power of two and p / q the exact
        value, read from the raw (sign, man, exp), man odd or zero."""
        sign, man, exp, _ = self.raw
        if sign:
            man = -man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)

    def to_float(self) -> float:
        return libmp.to_float(self.raw)

    __float__ = to_float

    def to_decimal_string(self, digits: int) -> str:
        """Decimal string with ``digits`` significant digits, the exact value
        rounded half-even (:func:`_round_ratio`) and laid out as mpmath
        prints (:func:`_decimal_layout`).  A value beyond
        2^+-_PRINTABLE_BITS is rendered from its logarithm
        (:func:`_exp_decimal`), ln|v| taken within 2^-(prec+10): an
        OverflowError where its decimal exponent has more digits than
        Python prints (``sys.get_int_max_str_digits()``)."""
        if digits < 1:
            raise ValueError("need at least one significant digit")
        sign, man, exp, bc = self.raw
        if not man:
            q, e = 0, 0
        elif abs(exp + bc) <= _PRINTABLE_BITS:
            q, e, _ = _round_ratio(*self.as_integer_ratio(), digits)
        else:
            bits = self.prec + abs(exp + bc).bit_length() + _LOG_ROUTE_GUARD
            q, e = _exp_decimal(libmp.mpf_log(libmp.mpf_abs(self.raw), bits, _RND), self.prec, digits)
        return _decimal_layout(sign, q, e, digits)

    def __repr__(self) -> str:
        digits = max(1, int(self.prec / _LOG2_10) - 2)
        return f"PrecisionReal('{self.to_decimal_string(digits)}', prec={self.prec})"

    def __str__(self) -> str:
        return self.to_decimal_string(max(1, int(self.prec / _LOG2_10) - 2))


# The slots' own descriptors write past the __setattr__ that refuses changes.
_set_raw = PrecisionReal.raw.__set__
_set_prec = PrecisionReal.prec.__set__


def _wrap(raw: tuple, prec: int) -> PrecisionReal:
    """A PrecisionReal holding a raw libmp value as is, with no checks or rounding."""
    obj = object.__new__(PrecisionReal)
    _set_raw(obj, raw)
    _set_prec(obj, prec)
    return obj


def memoized(fn):
    """fn(x, *rest) memoized on (x.raw, x.prec, *rest), which must hold all the
    result depends on: a hit returns the immutable value fn returned.
    One ``lru_cache`` of ``_MEMO_SIZE`` entries, with its ``cache_info`` and
    ``cache_clear``; an exception is not memoized."""
    cached = lru_cache(maxsize=_MEMO_SIZE)(lambda raw, prec, *rest: fn(_wrap(raw, prec), *rest))
    memo = wraps(fn)(lambda x, *rest: cached(x.raw, x.prec, *rest))
    memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
    return memo


def _rational_raw(num: int, den: int, prec: int) -> tuple:
    """num / den for den > 0, rounded to nearest at prec bits, as a raw value.

    One integer division gives a quotient of at least prec + 2 bits, and a
    sticky bit marks a nonzero remainder, so the rounding is libmp's own of
    the exact quotient.  libmp's conversion of a rational would first make
    num and den into raw values, stripping their trailing zero bits 8 at a
    time, which costs quadratic time in a large power of two.  A
    power-of-two den needs no division: num is rounded at its exponent,
    with no shifted quotient whose trailing zeros libmp would strip (for
    1/2 at 207 bits, 4.5 us that way against 0.4 us this way, on a 2-core
    VM).
    """
    if not den & (den - 1):
        return libmp.from_man_exp(num, 1 - den.bit_length(), prec, _RND)
    shift = prec + 2 - num.bit_length() + den.bit_length()
    q, rem = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    return libmp.from_man_exp((q << 1) | bool(rem), -shift - 1, prec, _RND)


def from_fixed(value: int, frac_bits: int, prec: int) -> PrecisionReal:
    """The fixed-point value 2^-frac_bits, rounded once to nearest at prec bits."""
    return _wrap(libmp.from_man_exp(value, -frac_bits, prec, _RND), prec)


def _check_prec(prec) -> None:
    if not isinstance(prec, int) or prec < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be an int >= {MIN_PRECISION_BITS} bits, got {prec}")


# ---------------------------------------------------------------------------
# Elementary functions (2 ulp at the argument's stated precision)
# ---------------------------------------------------------------------------


def _is_huge_integer(x: tuple, prec: int) -> bool:
    """Whether a raw x is integer-valued with more integer bits than prec.

    mpmath 1.3.0's mpf_exp raises e to such an x by repeated squaring
    when prec > 600: one squaring per bit of x, seconds for an x of a
    few thousand bits.
    """
    _, man, exp, bc = x
    return bool(man) and exp >= 0 and exp + bc > prec


def _exp_huge_integer(x: tuple, prec: int) -> tuple:
    """exp(x) for a raw x that :func:`_is_huge_integer` accepts, rounded to prec bits.

    Reduces x = n ln 2 + r with |r| <= ln(2)/2 and ln 2 to wp = mag + prec
    + 20 fraction bits, mag = bitlen(x): r is off by under |n| 2^(1-wp) <
    2^-(prec+18), which is also the relative error of exp(r) 2^n before
    its one rounding.
    """
    sign, man, exp, bc = x
    wp = exp + bc + prec + 20
    ln2 = libmp.ln2_fixed(wp)
    scaled = (-man if sign else man) << (exp + wp)  # x 2^wp, exactly
    n = (2 * scaled + ln2) // (2 * ln2)  # round(x / ln 2)
    r = libmp.from_man_exp(scaled - n * ln2, -wp)
    return libmp.mpf_shift(libmp.mpf_exp(r, prec, _RND), n)


def _exp_raw(x: tuple, prec: int) -> tuple:
    """exp of a raw x, rounded to prec bits, by mpmath or :func:`_exp_huge_integer`."""
    if _is_huge_integer(x, prec):
        return _exp_huge_integer(x, prec)
    return libmp.mpf_exp(x, prec, _RND)


def exp(x: PrecisionReal) -> PrecisionReal:
    return _wrap(_exp_raw(x.raw, x.prec), x.prec)


# expm1 sums its series while wp / |mag|, about its term count, is at most
# this; past it, exp at more bits costs less (at 2000 bits and |x| near
# 2^-15, the 99 terms took 0.5 ms and exp 0.24 ms).
_EXPM1_SERIES_RATIO = 40
# Bits exp carries beyond prec + max(-mag, 0) where expm1 takes 1 from it:
# |exp(x) - 1| >= min(1/2, |x|) / 2, so an ulp of exp costs under 2^-7 ulp.
_EXPM1_EXP_BITS = 12


def expm1(x: PrecisionReal) -> PrecisionReal:
    """exp(x) - 1 at the precision of x, rounded once: within half an ulp
    and 2^-7 of one, with no cancellation.

    With 2^(mag-1) <= |x| < 2^mag, where mag < 0 and the series is short
    (wp <= _EXPM1_SERIES_RATIO |mag|), sum_k x^k / k! runs in fixed point
    on |x| at wp = _fixed_bits(prec, prec) - mag fraction bits, each term
    truncated once: fewer than prec terms are nonzero and an error shrinks
    by |x| / k < 1/2 from one term to the next, so the sum is off by under
    2 prec units, a relative 2^-(prec+13) of |exp(x) - 1| >= |x| / 2.
    Otherwise exp(x) is taken at prec + max(-mag, 0) + _EXPM1_EXP_BITS
    bits, which cover the bits that subtracting 1 cancels (by :func:`exp`'s
    route for a huge integer), and 1 is subtracted.
    """
    sign, man, exp, bc = x.raw
    prec, mag = x.prec, exp + bc
    if not man:
        return x
    wp = _fixed_bits(prec, prec) - mag
    if mag >= 0 or wp > _EXPM1_SERIES_RATIO * -mag:
        e = _exp_raw(x.raw, prec + max(-mag, 0) + _EXPM1_EXP_BITS)
        return _wrap(libmp.mpf_sub(e, libmp.fone, prec, _RND), prec)
    power = man << (exp + wp)  # |x| 2^wp, exactly: exp + wp > prec - bc >= 0
    term, total, k = power, 0, 1
    while term:
        total += -term if sign and k & 1 else term
        k += 1
        term = (term * power >> wp) // k
    return from_fixed(total, wp, prec)


# log1p sums its series while its term count, about wp / (1 - 2 mag), is at
# most this; past it, libmp's log of 1 + u costs less.  (libmp's log is
# cheap until 1 + u is within 2^-7 of 1; from 220 to 1100 bits the two tie
# between 30 and 85 terms.)
_LOG1P_SERIES_TERMS = 45
# Guard bits of log1p's series: its n terms are off by under 4n units of
# 2^-wp, a quarter unit of 2^-frac_bits for n <= _LOG1P_SERIES_TERMS + 2.
_LOG1P_GUARD = 10


def log1p(num: int, den: int, frac_bits: int) -> int:
    """ln(1 + u) for the exact rational u = num / den > -1, den != 0, in
    fixed point: an integer within 1.26 units of ln(1 + u) 2^frac_bits.

    With |u| < 2^mag, mag = bitlen(|num|) - bitlen(|den|) + 1, where mag < 0
    and the series is short (wp <= _LOG1P_SERIES_TERMS (1 - 2 mag)), it is
    2 atanh(v) = 2 sum_k v^(2k+1) / (2k+1), v = u / (2 + u) = num / (2 den +
    num), summed in fixed point on |v| at wp = max(frac_bits, 0) +
    _LOG1P_GUARD bits.  |v| < 2^mag / 1.5 <= 1/3, so a term is below v^2 <
    2^(2 mag - 1) of the one before and there are at most
    _LOG1P_SERIES_TERMS + 2 of them.  |v| and v^2 are floored once each, and
    every power and quotient once, so each term is within 1.6 units of
    2^-wp and the omitted ones sum below 0.7: twice the sum is within a
    quarter unit of 2^-frac_bits, and the shift to frac_bits floors it.
    Otherwise 1 + u is rounded to max(frac_bits + 8, 64) bits, within a
    relative 2^-(frac_bits+8), and :func:`_ln_fixed` takes its logarithm,
    within 1.25 units of that.  DomainError where 1 + u <= 0.
    """
    if den < 0:
        num, den = -num, -den
    if num + den <= 0:
        raise DomainError("ln needs a positive argument")
    mag = abs(num).bit_length() - den.bit_length() + 1
    wp = max(frac_bits, 0) + _LOG1P_GUARD
    if mag >= 0 or wp > _LOG1P_SERIES_TERMS * (1 - 2 * mag):
        return _ln_fixed(_rational_raw(num + den, den, max(frac_bits + 8, MIN_PRECISION_BITS)), frac_bits)
    power = (abs(num) << wp) // (2 * den + num)  # |v| 2^wp, floored
    square, total, k = (power * power) >> wp, power, 1
    while power:
        power = (power * square) >> wp
        k += 2
        total += power // k
    total = (total << 1) >> (wp - frac_bits)
    return -total if num < 0 else total


def _quotient(num: int, den: int, frac_bits: int) -> int:
    """floor(num / den 2^frac_bits) for den != 0: under one unit of 2^-frac_bits low."""
    return (num << frac_bits) // den if frac_bits >= 0 else num // (den << -frac_bits)


def _times_log(m_num: int, m_den: int, frac_bits: int, log_at) -> int:
    """m L in fixed point at frac_bits, for m = m_num / m_den > 0: within e/4
    + 1 units when log_at(g) gives L at g = frac_bits + k fraction bits
    within e units, where m < 2^(k-2): the product is floored once.  m = 1
    is log_at(frac_bits) itself, within e units."""
    if m_num == m_den:
        return log_at(frac_bits)
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


def _log_hyperbolic(
    r: tuple[int, int], frac_bits: int, tanh: bool = False, c: tuple[int, int] = (0, 1), f: tuple[int, int] = (1, 1)
) -> int:
    """ln(f h(r) + c) in fixed point at frac_bits, h(r) = sinh(r)/r, or
    tanh(r)/r with ``tanh``, for the exact rationals r = p/q > 0, c >= 0 and
    the factor f >= 1: within 1.32 units.

    With r < 2^mag, where mag < 0 and wp = max(frac_bits, 0) +
    _HYPERBOLIC_GUARD is at most _HYPERBOLIC_SERIES_RATIO (-mag), sinh(r)/r
    and cosh r come from :func:`_hyperbolic_series`, r^2 from r floored at wp
    bits, within a relative 2^-8 unit each, sinh(r)/r times f and c are
    floored at wp bits, and :func:`log1p` takes the exact rational f h + c -
    1 they give: within 1.26 units of that.  Otherwise r is rounded to wp =
    frac_bits + s bits, r + 6 < 2^(s-4), and libmp's sinh or tanh, the
    quotient by r, f and the product by it, c and the sum are each rounded
    to wp bits.  h moves by r h'(r)/h(r), at most max(r, 1) times r's relative
    error, so f h + c is within a relative (r + 6) 2^-wp, a sixteenth of a
    unit in its logarithm, which :func:`_ln_fixed` takes within 1.25 units.
    """
    p, q = r
    c_num, c_den = c
    f_num, f_den = f
    mag = p.bit_length() - q.bit_length() + 1
    wp = max(frac_bits, 0) + _HYPERBOLIC_GUARD
    if mag < 0 and wp <= _HYPERBOLIC_SERIES_RATIO * -mag:
        root = (p << wp) // q
        r2, one = (root * root) >> wp, 1 << wp
        sinhc = (one + _hyperbolic_series(r2, wp, 1)) * f_num // f_den
        cosh = one + _hyperbolic_series(r2, wp, 0) if tanh else one
        added = ((c_num << wp) // c_den * cosh) >> wp if c_num else 0
        return log1p(sinhc - cosh + added, cosh, frac_bits)
    wp = max(frac_bits + max(mag, 3) + 5, MIN_PRECISION_BITS)
    arg = _rational_raw(p, q, wp)
    h = libmp.mpf_div((libmp.mpf_tanh if tanh else libmp.mpf_sinh)(arg, wp, _RND), arg, wp, _RND)
    if f_num != f_den:
        h = libmp.mpf_mul(h, _rational_raw(f_num, f_den, wp), wp, _RND)
    if c_num:
        h = libmp.mpf_add(h, _rational_raw(c_num, c_den, wp), wp, _RND)
    return _ln_fixed(h, frac_bits)


def ln(x: PrecisionReal) -> PrecisionReal:
    if x.sign <= 0:
        raise DomainError("ln needs a positive argument")
    return _wrap(libmp.mpf_log(x.raw, x.prec, _RND), x.prec)


def sqrt(x: PrecisionReal) -> PrecisionReal:
    if x.sign < 0:
        raise DomainError("sqrt needs a nonnegative argument")
    return _wrap(libmp.mpf_sqrt(x.raw, x.prec, _RND), x.prec)


def sinh(x: PrecisionReal) -> PrecisionReal:
    if _is_huge_integer(x.raw, x.prec):
        # exp(-|x|) is far below an ulp of exp |x|: sinh x = sign(x) exp|x| / 2,
        # as mpmath's own sinh has it
        half = libmp.mpf_shift(_exp_huge_integer(libmp.mpf_abs(x.raw), x.prec), -1)
        return _wrap(libmp.mpf_neg(half) if x.sign < 0 else half, x.prec)
    return _wrap(libmp.mpf_sinh(x.raw, x.prec, _RND), x.prec)


def tanh(x: PrecisionReal) -> PrecisionReal:
    return _wrap(libmp.mpf_tanh(x.raw, x.prec, _RND), x.prec)


def pi(prec: int) -> PrecisionReal:
    _check_prec(prec)
    return _wrap(libmp.mpf_pi(prec, _RND), prec)


@lru_cache(maxsize=None, typed=True)  # typed: a prec of 64.0 misses and is refused
def ln_sqrt_two_pi(prec: int) -> PrecisionReal:
    """ln sqrt(2*pi) at the given precision (cached)."""
    _check_prec(prec)
    two_pi = libmp.mpf_mul_int(libmp.mpf_pi(prec + 8, _RND), 2, prec + 8, _RND)
    return _wrap(libmp.mpf_shift(libmp.mpf_log(two_pi, prec, _RND), -1), prec)


# ---------------------------------------------------------------------------
# Deterministic decimal rendering
# ---------------------------------------------------------------------------


# Beyond 2^+-_PRINTABLE_BITS no exact ratio is rounded: its power of ten
# alone would have about a million digits (Decimal's default exponent range,
# +-999999, is about 3.32e6 binary places).  format_sci refuses such a
# value; to_decimal_string renders it from its logarithm.
_PRINTABLE_BITS = 3_000_000
# Bits the logarithm route carries beyond the value's precision: the rest
# of ln v split by ln 10 is within 2^-(prec+9), and its exp is rounded to
# prec + 10 bits, far below the last of the digits the precision carries.
_LOG_ROUTE_GUARD = 10
# Digit strings are converted in chunks of this many digits, fewer than
# Python's least limit on int-to-str conversion (640).
_CHUNK_DIGITS = 600


def _round_ratio(num: int, den: int, digits: int) -> tuple[int, int, bool]:
    """|num / den|, num != 0 and den > 0, rounded half-even to digits >= 1
    significant digits: (q, e, exact), the finished digits q with
    10^(digits-1) <= q < 10^digits and e such that q 10^(e+1-digits) is the
    rounded value, a carry into the next decade folded into e, and whether
    q is exact.

    The float estimate of e = floor(log10 |num / den|) is off by at most
    one.  One multiply or divide by a power of ten scales the ratio to
    a / b, and one exact comparison of a / b with 10^(digits-1) and
    10^digits settles e, a factor of ten moving a / b with it; one integer
    division then rounds it.
    """
    num = abs(num)
    e = math.floor(math.log10(num) - math.log10(den))
    k = digits - 1 - e
    a, b = (num * 10**k, den) if k >= 0 else (num, den * 10**-k)
    low = 10 ** (digits - 1)
    if a < b * low:
        a, e = 10 * a, e - 1
    elif a >= 10 * b * low:
        b, e = 10 * b, e + 1
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q & 1):
        q += 1
        if q == 10 * low:
            q, e = low, e + 1
    return q, e, r == 0


def _digit_string(q: int) -> str:
    """str(q) for q >= 0, in chunks below Python's limit on int-to-str
    conversion (``sys.get_int_max_str_digits()``), which would refuse a
    long mantissa at a high ``--digits`` or a long ``table`` abscissa."""
    chunk, low_parts = 10**_CHUNK_DIGITS, []
    while q >= chunk:
        q, low = divmod(q, chunk)
        low_parts.append(f"{low:0{_CHUNK_DIGITS}d}")
    return str(q) + "".join(reversed(low_parts))


def _decimal_layout(negative: int, q: int, e: int, digits: int) -> str:
    """(-1)^negative q 10^(e+1-digits), q the finished digits from
    :func:`_round_ratio`, laid out as mpmath's own string conversion lays
    out ``digits`` digits: fixed notation where min(-(digits // 3), -5) < e
    < digits, scientific with a lowercase signed exponent elsewhere,
    trailing zeros stripped but one after the point, and 0.0 for zero."""
    if not q:
        return "0.0"
    text, tail = _digit_string(q), ""
    if min(-(digits // 3), -5) < e < digits:
        text = "0." + "0" * (-e - 1) + text if e < 0 else text[: e + 1] + "." + text[e + 1 :]
    else:
        text, tail = text[0] + "." + text[1:], f"e{e:+d}"
    text = text.rstrip("0")
    return f"{'-' if negative else ''}{text}{'0' if text.endswith('.') else ''}{tail}"


def _exp_decimal(log: tuple, prec: int, digits: int) -> tuple[int, int]:
    """exp(L) for a raw L at precision prec, rounded half-even to ``digits``
    significant digits: (q, e) as from :func:`_round_ratio`, in time that
    does not grow with the decimal exponent.

    L = E ln 10 + r with E = round(L / ln 10) and |r| <= ln(10)/2, so
    exp(L) = exp(r) 10^E: L and ln 10 are taken at F = prec + bitlen(|L|) +
    _LOG_ROUTE_GUARD fraction bits, so r is within (|E| + 1) 2^-F <
    2^-(prec+9), and exp(r) comes from :func:`_decimal_mantissa`.  Where
    |L| < 1, E is 0 and no ln 10 is taken.  An OverflowError where the
    exponent printed, E or E - 1 as exp(r) rounds to 1 or more or to less,
    has more digits than Python prints (``sys.get_int_max_str_digits()``,
    if nonzero); where |E| > 10^limit both have, and no digit is computed.
    """
    sign, man, exp, bc = log
    frac_bits = prec + max(exp + bc, 0) + _LOG_ROUTE_GUARD
    scaled = man << (exp + frac_bits) if exp + frac_bits >= 0 else man >> -(exp + frac_bits)
    rest, decimal_exponent = -scaled if sign else scaled, 0
    if exp + bc > 0:
        ln10 = libmp.ln10_fixed(frac_bits)
        decimal_exponent = (2 * rest + ln10) // (2 * ln10)
        rest -= decimal_exponent * ln10
    limit = sys.get_int_max_str_digits()
    if not limit or abs(decimal_exponent) <= 10**limit:
        q, e, _ = _decimal_mantissa(rest, frac_bits, prec, digits)
        e += decimal_exponent
        if not limit or abs(e) < 10**limit:
            return q, e
    raise OverflowError(f"a decimal exponent of more than {limit} digits cannot be printed")


def _decimal_mantissa(rest: int, frac_bits: int, prec: int, digits: int) -> tuple[int, int, bool]:
    """exp(rest 2^-frac_bits) at prec + _LOG_ROUTE_GUARD bits, rounded by
    :func:`_round_ratio`."""
    _, man, exp, _ = libmp.mpf_exp(libmp.from_man_exp(rest, -frac_bits), prec + _LOG_ROUTE_GUARD, _RND)
    return _round_ratio(man << max(exp, 0), 1 << max(-exp, 0), digits)


def exp_decimal_string(log_value: PrecisionReal, digits: int) -> str:
    """exp(log_value) to ``digits`` significant digits, laid out as
    :meth:`PrecisionReal.to_decimal_string` lays them out, taken from the
    logarithm (:func:`_exp_decimal`): an OverflowError where the decimal
    exponent has more digits than Python prints."""
    if digits < 1:
        raise ValueError("need at least one significant digit")
    return _decimal_layout(0, *_exp_decimal(log_value.raw, log_value.prec, digits), digits)


def format_sci(value, sig_digits: int) -> str:
    """Scientific notation rounded to ``sig_digits`` significant digits.

    The one canonical form used everywhere: mantissa ``d.dd...``, ``E``,
    signed unpadded exponent (e.g. ``2.40663E-5``; values representable
    in fewer digits print without trailing zeros, as ``Decimal`` prints
    them).  Rendering rounds the exact rational half-even with one
    integer division (:func:`_round_ratio`), so equal values always print
    identically.
    """
    if sig_digits < 1:
        raise ValueError("need at least one significant digit")
    if isinstance(value, PrecisionReal):
        _, _, exp, bc = value.raw
        if abs(exp + bc) > _PRINTABLE_BITS:
            raise OverflowError(f"a number beyond 2^+-{_PRINTABLE_BITS} cannot be printed")
        num, den = value.as_integer_ratio()
    elif isinstance(value, (int, Fraction)):
        num, den = value.numerator, value.denominator
    else:
        raise TypeError(f"cannot render {type(value).__name__}")
    if not num:
        return "0E+0"
    q, e, exact = _round_ratio(num, den, sig_digits)
    if exact:
        # an exact value keeps no trailing zero below its units digit, as Decimal
        k = sig_digits - 1 - e
        while k > 0 and q % 10 == 0:
            q, k = q // 10, k - 1
    digits = _digit_string(q)
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{'-' if num < 0 else ''}{mantissa}E{e:+d}"


# ---------------------------------------------------------------------------
# Oracle configuration
# ---------------------------------------------------------------------------


class OracleConfig(Record):
    """Accuracy contract for the reference oracles: one number, the digits.

    Arithmetic runs with ``guard_digits`` extra digits.  Arguments below
    ``shift_threshold`` are shifted upward by the functional equation
    before the ``series_terms``-term asymptotic series is applied; an
    integer below it takes ln Gamma down to Gamma(1) instead, and reads
    no ``series_terms`` (see :func:`ln_gamma_ref`).
    ``shift_threshold``, ``series_terms`` and ``precision_bits`` are
    computed once per instance; they are not fields, so equality, hashing
    and ``repr`` see the digits alone.
    """

    def __init__(self, target_decimal_digits: int):
        if target_decimal_digits <= 0:
            raise ValueError("target_decimal_digits must be positive")
        vars(self).update(target_decimal_digits=target_decimal_digits)

    @classmethod
    def for_digits(cls, digits: int) -> OracleConfig:
        """The oracle configuration for a target accuracy."""
        return cls(digits)

    @property
    def series_digits(self) -> int:
        """D, the accuracy the series is sized for: at least what 64 bits carry."""
        return max(self.target_decimal_digits, int(MIN_PRECISION_BITS / _LOG2_10))

    @cached_property
    def shift_threshold(self) -> int:
        """max(ceil(0.4 D + 5), floor((17 D - 331) / 20)) up to D = 297, the
        first line up to D = 50 and the second from 51, and 2D above.

        A higher threshold trades shift steps for fewer series terms, each
        a full product per call and a tangent number and two coefficients
        to set up per process.  From 50 to 250 digits the second line
        left warm calls on the benchmark's mix flat or a few percent faster
        and halved a cold ``eval`` at 200 digits.  Above 297 digits a
        shift step costs a quarter of a full-precision product (ln Gamma)
        or one division of about 2p by p bits (trigamma), and 2D against
        1.6D - 240 took a cold ``eval w2 1`` from 8.1 to 6.7 ms at 500
        digits and from 35 to 27 ms at 1000, and ``verify --digits 500``
        from 0.30 to 0.40 s (0.60 s with the kernels before pairing);
        3D took the ``eval`` to 23 ms at 1000 digits but ``verify`` to
        0.57 s.  perfbench pins 25 at D = 50, though 35 measured 1-4 %
        faster warm.
        """
        d = self.series_digits
        if d > 297:
            return 2 * d
        return max((2 * d + 29) // 5, (17 * d - 331) // 20)

    @cached_property
    def series_terms(self) -> int:
        return _series_terms(self.shift_threshold, self.series_digits)

    @property
    def guard_digits(self) -> int:
        return max(10, self.target_decimal_digits // 10)

    @cached_property
    def precision_bits(self) -> int:
        return max(
            MIN_PRECISION_BITS,
            bits_for_digits(self.target_decimal_digits + self.guard_digits),
        )


DEFAULT_DIGITS = 50
DEFAULT_CONFIG = OracleConfig.for_digits(DEFAULT_DIGITS)


def working_argument(x, cfg: OracleConfig) -> PrecisionReal:
    """The argument rule shared by the oracles and the error functionals.

    A ``PrecisionReal`` keeps its exact value, and work runs at
    max(x.prec, cfg.precision_bits); any other number is rounded to
    cfg.precision_bits.  Callers take the working precision from the
    result's ``prec``.
    """
    prec = cfg.precision_bits
    if isinstance(x, PrecisionReal):
        return x if x.prec >= prec else PrecisionReal(x, prec)
    return PrecisionReal(x, prec)


def _validate_series(threshold: int, terms: int, target_digits: int) -> None:
    """Exact guard for the truncated asymptotic series.

    Checks, once per configuration, that (a) term magnitudes decrease
    through the truncation index for every argument >= threshold, and
    (b) the first omitted term at the threshold is below 10^-(target+5),
    for both the log-gamma series (terms B_2j / (2j(2j-1) y^(2j-1))) and
    the trigamma series (terms B_2j / y^(2j+1)).  Both run on the tangent
    numbers, |B_2j| = 2j T_j / (4^j (4^j - 1)), cross-multiplied in
    integers: the decrease check |B_2j+2| <= |B_2j| t^2 is
    (j+1) T_(j+1) (4^j - 1) <= 4 j T_j (4^(j+1) - 1) t^2.
    """
    t_sq, n1 = threshold * threshold, terms + 1
    tangents = tangent_numbers(n1)
    for j in range(1, n1):
        # the raw Bernoulli ratio dominates the log-gamma term ratio, so one
        # decrease check covers both series
        four_j = 1 << (2 * j)
        if (j + 1) * tangents[j + 1] * (four_j - 1) > 4 * j * tangents[j] * (4 * four_j - 1) * t_sq:
            raise PrecisionError(
                f"asymptotic terms stop decreasing at index {j + 1} for "
                f"threshold {threshold}; raise the threshold or lower series_terms"
            )
    # |B_2n1| / (2n1 (2n1-1) t^(2n1-1)) and |B_2n1| / t^(2n1+1) against 10^-(target+5)
    scaled, four_n1 = tangents[n1] * 10 ** (target_digits + 5), 1 << (2 * n1)
    below = four_n1 * (four_n1 - 1) * threshold ** (2 * n1 - 1)
    if scaled >= (2 * n1 - 1) * below or 2 * n1 * scaled >= below * t_sq:
        raise PrecisionError(
            f"first omitted series term at threshold {threshold} exceeds the "
            f"{target_digits}-digit accuracy target; raise series_terms or the threshold"
        )


@lru_cache(maxsize=None)
def _series_terms(threshold: int, target_digits: int) -> int:
    """Fewest terms whose first omitted term at the threshold is below
    10^-(target+5) in both series, estimated in floats with |B_2j| <=
    2 zeta(2) (2j)! / (2 pi)^(2j) (so never too few), then certified exactly.

    The estimate falls while (2j)^2 < (2 pi threshold)^2 and rises after,
    so once it rises no term count meets the target and the search stops
    with ``PrecisionError``.
    """
    ln_budget, ln_t = -(target_digits + 5) * math.log(10), math.log(threshold)
    terms, previous = 1, math.inf
    while True:
        m = 2 * (terms + 1)  # index of the first omitted Bernoulli number
        ln_b = math.log(math.pi**2 / 3) + math.lgamma(m + 1) - m * math.log(2 * math.pi)
        divisors = (math.log(m * (m - 1)) + (m - 1) * ln_t, (m + 1) * ln_t)  # lngamma, trigamma
        estimate = ln_b - min(divisors)
        if estimate < ln_budget:
            break
        if estimate > previous:
            raise PrecisionError(
                f"no series length at threshold {threshold} meets the "
                f"{target_digits}-digit accuracy target; raise the threshold"
            )
        terms, previous = terms + 1, estimate
    _validate_series(threshold, terms, target_digits)
    return terms


# ---------------------------------------------------------------------------
# Integer kernels of the oracles
# ---------------------------------------------------------------------------


def _fixed_bits(prec: int, count: int) -> int:
    """Working bits of a kernel that truncates ``count`` times: prec + 2 bitlen(count) + 10."""
    return prec + 2 * count.bit_length() + 10


# Stirling-series tables kept at once: both series at 50, 100 and 200
# digits, the precisions of the benchmark's warm workload, and two more.
# An evicted table is rebuilt from the cached Bernoulli numbers.
_SERIES_TABLES = 8


@lru_cache(maxsize=_SERIES_TABLES)
def _series_fixed(
    series: str, terms: int, frac_bits: int, step: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The fixed-point Stirling-series coefficients and the bounds that
    decide how many of them an argument needs: (coefficients, bounds).

    c_j = B_2j / (2j(2j-1)) for "lngamma" and B_2j for "trigamma", read
    from the tangent numbers as (-1)^(j-1) 2^-2j num/den, the pair not
    reduced: T_j / ((2j-1)(4^j-1)) and 2j T_j / (4^j-1).  With F =
    frac_bits and s = step, the coefficients are round(c_j 2^(F -
    s(j-1))), j = terms..1, which depends on the value alone.  A
    coefficient enters the sum times u^(j-1) <= 2^-s(j-1), so its
    rounding costs half a unit of 2^-F there, however few bits it keeps.
    Where the exponent is negative, the denominator is shifted instead of
    the numerator, and the coefficient is still rounded to nearest.

    With L_j = F + floor(log2 |c_j|) + 1 > F + log2 |c_j|, the first m
    terms suffice at u <= 2^-e2 when L_(m+1) - e2 m < 0: the first
    omitted term is then below half a unit of 2^-F.  That holds from e2 =
    L_(m+1) // m + 1 on.  The bounds are, for m = terms-1..1, the least
    e2 from which some m' <= m terms suffice, so they ascend (see
    :func:`_terms_needed`).
    """
    tangents = tangent_numbers(terms)
    coeffs, least_e2 = [], []
    for j in range(terms, 0, -1):
        # |c_j| = (num / den) 2^-2j, the power of two kept in the shift
        num, den = tangents[j], (1 << (2 * j)) - 1
        if series == "lngamma":
            den *= 2 * j - 1
        else:
            num *= 2 * j
        bits = frac_bits - step * (j - 1) - 2 * j
        if j > 1:  # the least e2 from which j - 1 terms suffice
            e = num.bit_length() - den.bit_length()
            e -= (num << max(-e, 0)) < (den << max(e, 0))  # floor(log2 |c_j|) + 2j
            least_e2.append((frac_bits + e - 2 * j + 1) // (j - 1) + 1)  # from L_j
        if not j & 1:
            num = -num
        if bits >= 0:
            num <<= bits
        else:
            den <<= -bits
        coeffs.append(((num << 1) + den) // (den << 1))
    bounds = list(accumulate(reversed(least_e2), min))  # m = 1..terms-1
    return tuple(coeffs), tuple(reversed(bounds))


def _terms_needed(bounds: tuple[int, ...], y: tuple) -> int:
    """The fewest m <= terms for which L_(m+1) - e2 m < 0 (see
    :func:`_series_fixed`), with e2 = 2(exp + bc - 1), so y^2 >= 2^e2."""
    _, _, exp, bc = y
    return len(bounds) + 1 - bisect_right(bounds, 2 * (exp + bc - 1))


def _stirling_series(series: str, cfg: OracleConfig, y: tuple, prec: int) -> tuple[int, int, int]:
    """sum_j c_j u^(j-1) at u = 1/y^2 in fixed point, for a raw y >= the
    threshold: (the sum, u, their fraction bits F = _fixed_bits(prec, terms)).

    With s = 2 (bitlen(threshold) - 1), u <= 2^-s.  u is rounded to
    nearest, to at most 2^(F-s) units, and the coefficients come from
    :func:`_series_fixed` in falling precision: the accumulator after c_j
    has F - s(j-1) fraction bits, so Horner's rule runs as
    acc = ((acc u) >> (F - s)) + C_j.  Only the first m terms are summed,
    m from :func:`_terms_needed`: the sum of the omitted ones alternates
    and decreases through ``terms`` for every y >= the threshold (as the
    series guard certifies), so it is below its first term, half a unit.

    Error budget, in units of 2^-F against the exact all-``terms`` sum at
    1/y^2.  An error at step j is scaled by u^(j-1) <= 2^-s(j-1) before it
    reaches the sum, so a unit of that step costs at most one unit here,
    and the budget is the one of a full-precision Horner loop: m/2 from the
    coefficients, m - 1 from the truncating products, below terms^2/120
    from the rounding of u, since the certified terms decrease, so
    |d sum/du| <= |c_2| terms^2/2 with |c_2| <= 1/30; and below 1/2 from
    the omitted terms.  That is at most terms^2 units, so the sum is
    within 2^-(prec+10).
    """
    terms = cfg.series_terms
    frac_bits = _fixed_bits(prec, terms)
    step = 2 * (cfg.shift_threshold.bit_length() - 1)
    coeffs, bounds = _series_fixed(series, terms, frac_bits, step)
    _, man, exp, _ = y
    shift, d = frac_bits - 2 * exp, man * man
    u = ((1 << shift) + (d >> 1)) // d if shift >= 0 else 0  # round(2^F / y^2)
    acc, drop = 0, frac_bits - step
    for c in coeffs[terms - _terms_needed(bounds, y) :]:
        acc = ((acc * u) >> drop) + c
    return acc, u, frac_bits


def _ln_fixed(x: tuple, frac_bits: int) -> int:
    """ln of a positive raw x in fixed point: within 1.25 units of 2^-frac_bits.

    |ln x| < 2^b with b = bitlen(|exp + bc| + 1), so mpf_log at frac_bits +
    b + 2 bits is within a quarter unit, and to_fixed floors it.
    """
    _, _, exp, bc = x
    bits = frac_bits + (abs(exp + bc) + 1).bit_length() + 2
    return libmp.to_fixed(libmp.mpf_log(x, max(bits, MIN_PRECISION_BITS), _RND), frac_bits)


# Guard bits of the fixed-point Stirling term: its few units of 2^-F are a
# small fraction of an ulp of its largest part.
_STIRLING_GUARD = 12


def _stirling_fixed(x: tuple, twice_a: int, prec: int) -> tuple[int, int]:
    """ln sqrt(2 pi) + (x + a) ln x - x for a positive raw x, a = twice_a / 2
    in {-1/2, 0, 1/2}, unrounded: (T, F), the value being T 2^-F.

    With e = exp + bc, every part of the sum is below 2^mag, mag = max(e, 0)
    + 1 + bitlen(|e| + 1), and F = prec + _STIRLING_GUARD - mag puts a unit
    at 2^-(prec+12) of that.  x + a is the exact N 2^-t, and ln x at
    F + bitlen(N) + 2 - t fraction bits (:func:`_ln_fixed`) times N, shifted
    right by bitlen(N) + 2, is within 1.5 units; -x and ln sqrt(2 pi) are
    floored, the constant taken at prec + _STIRLING_GUARD bits, so within
    2^-(prec+12), a quarter unit at most, before its floor.  So T 2^-F is
    within 3.75 units.
    """
    _, _, exp, bc = x
    e = exp + bc
    frac_bits = prec + _STIRLING_GUARD - (max(e, 0) + 1 + (abs(e) + 1).bit_length())
    m, s = _scaled_integer(x)
    num, t = (m << 1) + (twice_a << s), s + 1
    lead = num.bit_length() + 2  # |N| < 2^(lead - 2)
    total = (num * _ln_fixed(x, frac_bits + lead - t)) >> lead
    constant = ln_sqrt_two_pi(prec + _STIRLING_GUARD).raw
    total -= libmp.to_fixed(x, frac_bits) - libmp.to_fixed(constant, frac_bits)
    return total, frac_bits


def _shift_steps(x: tuple, threshold: int) -> int:
    """n, the number of k >= 0 with x + k < threshold, for a positive raw x."""
    if libmp.mpf_cmp(x, libmp.from_int(threshold)) >= 0:
        return 0
    _, man, exp, _ = x
    if exp >= 0:
        return threshold - (man << exp)
    return -((man - (threshold << -exp)) >> -exp)  # ceil(threshold - x)


def _scaled_integer(x: tuple) -> tuple[int, int]:
    """(m, s) with x = m 2^-s and s >= 0, so x + k is the integer m + k 2^s over 2^s."""
    _, man, exp, _ = x
    return (man << exp, 0) if exp >= 0 else (man, -exp)


def _rising_product(x: tuple, n: int, prec: int) -> tuple:
    """x (x+1) ... (x+n-1) for a positive raw x and n >= 1, as an unrounded raw value.

    The factors are the exact integers m + k 2^s over 2^s, paired from
    both ends: (x+k)(x+n-1-k) is W + c_k 2^(2s) over 2^(2s), with W = m^2
    + (n-1) m 2^s and c_k = k(n-1-k).  The pairs k and k+1 are multiplied
    as (W + c_k 2^(2s))(W + c_(k+1) 2^(2s)) = W^2 + ((c_k + c_(k+1)) W +
    c_k c_(k+1) 2^(2s)) 2^(2s), exactly, with W^2 formed once, so one
    product at full precision covers four factors.  An odd n starts the
    product at the middle factor m + ((n-1)/2) 2^s, and an odd number of
    pairs multiplies in W, the pair k = 0, unpaired.  Each four-factor
    product and each running product after it is truncated downward to
    wp = _fixed_bits(prec, n) bits: at most n/2 truncations, each of
    relative error below 2^(1-wp), so the product is low, by a relative
    error (and its logarithm by an absolute one) below n 2^-wp <
    2^-(prec+8).
    """
    m, s = _scaled_integer(x)
    wp, half, s2 = _fixed_bits(prec, n), n // 2, 2 * s
    w = m * m + ((n - 1) * m << s)
    square, dropped = w * w, 0
    product = m + ((n - 1) // 2 << s) if n & 1 else 1
    if half & 1:
        product *= w
    for k in range(half & 1, half, 2):
        low, high = k * (n - 1 - k), (k + 1) * (n - 2 - k)
        factor = square + (((low + high) * w + (low * high << s2)) << s2)
        excess = factor.bit_length() - wp
        if excess > 0:
            factor >>= excess
            dropped += excess
        product *= factor
        excess = product.bit_length() - wp
        if excess > 0:
            product >>= excess
            dropped += excess
    return libmp.from_man_exp(product, dropped - n * s)


# Bits beyond F that _inverse_square_sum keeps of each pair's divisor, for
# an x >= 1; an x below 1 adds two per halving.
_PAIR_GUARD = 2


def _inverse_square_sum(x: tuple, n: int, prec: int) -> tuple:
    """sum_{k<n} 1/(x+k)^2 for a positive raw x and n >= 1, as an unrounded raw value.

    Summed in fixed point with F = _fixed_bits(prec, n) fraction bits, by
    the pairs a = x+k, b = x+n-1-k of :func:`_rising_product`: 1/a^2 +
    1/b^2 = (S - 2q) / q^2 with S = (a+b)^2 = (2x+n-1)^2, shared, and q =
    ab = W + c_k 2^(2s), exact integers over 2^(2s).  q^2 = W^2 + (2 c_k W
    + c_k^2 2^(2s)) 2^(2s) is exact too, with W^2 formed once, and is
    rounded up to a multiple of 2^e, e set to leave W^2, the least, L = F
    + _PAIR_GUARD + 2 max(1 - e_x, 0) bits, x >= 2^(e_x - 1).  So a pair
    is one division of about 2L by L bits, whatever the length of x, and
    low by a relative 2^(1-L) at most; for an odd n the middle pair is
    a = b, which gives 2/a^2, halved.  A pair is below 2/x^2 <=
    2^(L-F-1), so that is under a unit of 2^-F, and the floor of the
    division one more: the ceil(n/2) pairs are low by less than (n + 1)
    2^-F < 2^-(prec+10).
    """
    m, s = _scaled_integer(x)
    frac_bits, s2 = _fixed_bits(prec, n), 2 * s
    _, _, exp, bc = x
    w = m * m + ((n - 1) * m << s)
    square_sum, square, total = (2 * m + (n - 1 << s)) ** 2, w * w, 0
    e = max(square.bit_length() - frac_bits - _PAIR_GUARD - 2 * max(1 - exp - bc, 0), 0)
    shift = frac_bits + s2 - e  # the pair is (S - 2q) 2^(2s) / q^2
    for k in range((n + 1) // 2):
        c = k * (n - 1 - k)
        num = square_sum - 2 * (w + (c << s2))
        den = -(-(square + ((2 * c * w + (c * c << s2)) << s2)) >> e)  # ceil(q^2 2^-e)
        total += _quotient(num, den, shift) >> (2 * k == n - 1)
    return libmp.from_man_exp(total, -frac_bits)


def _shifted(x: tuple, prec: int, cfg: OracleConfig, name: str) -> tuple[int, tuple]:
    """The oracles' common start on a raw working argument x, checked
    positive: the shift count n and y = x + n (raw, rounded once to prec bits)."""
    if libmp.mpf_sign(x) <= 0:
        raise DomainError(f"{name} needs x > 0")
    n = _shift_steps(x, cfg.shift_threshold)
    return n, (libmp.mpf_add(x, libmp.from_int(n), prec, _RND) if n else x)


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------


def ln_gamma_ref(x, cfg: OracleConfig = DEFAULT_CONFIG) -> PrecisionReal:
    """ln Gamma(x) to cfg.target_decimal_digits, for real x > 0.

    Shifts upward with ln Gamma(x) = ln Gamma(x+n) - ln(x (x+1) ... (x+n-1))
    so that y = x + n reaches cfg.shift_threshold, then applies
    (y-1/2) ln y - y + ln sqrt(2 pi) + sum_j B_2j / (2j(2j-1) y^(2j-1)).
    The configuration's certified term count bounds the truncation
    remainder by the first omitted term, below the target accuracy.

    The sum runs in one integer at the F fraction bits of
    :func:`_stirling_fixed` at y, with p the working bits, and is rounded
    once.  Error budget: the series truncation, below 10^-(D+5); the
    Stirling main term, 3.75 units of 2^-F; the series
    (:func:`_stirling_series`), below 2^-(p+10) before its division by y,
    and one unit from the division; the shift product
    (:func:`_rising_product`), below 2^-(p+8) in its logarithm, and 1.25
    units from that logarithm (:func:`_ln_fixed`); the one rounding of y,
    |psi(y)| ulp(y)/2; and one rounding to nearest at p bits.  The 6
    units of 2^-F are below 2^-(p+9) of 2^mag >= y ln y (see
    :func:`_stirling_fixed`), so everything but the truncation is a few
    ulps of y ln y + |ln Gamma(x)|, far below 10^-D, since p carries at
    least ten guard digits.

    At an integer x below cfg.shift_threshold it is ln (x-1)! instead, the
    factorial exact (:func:`_ln_factorial`): one logarithm at F = p + 12 -
    mag fraction bits, 2^mag > ln (x-1)!, rounded once, so within half an
    ulp plus 1.25 units of 2^-F, with no truncation, no shift product and
    no series.  Memoized (see :func:`_ln_gamma`).
    """
    return _ln_gamma(working_argument(x, cfg), cfg)


@memoized
def _ln_gamma(arg: PrecisionReal, cfg: OracleConfig) -> PrecisionReal:
    """The :func:`ln_gamma_ref` kernel on a working argument: it depends on nothing else."""
    x, prec = arg.raw, arg.prec
    n, y = _shifted(x, prec, cfg, "ln_gamma_ref")
    if n and x[2] >= 0:  # an integer below the threshold
        return _ln_factorial((x[1] << x[2]) - 1, prec)
    total, frac_bits = _stirling_fixed(y, -1, prec)
    series, _, series_bits = _stirling_series("lngamma", cfg, y, prec)
    total += _quotient(series, y[1], frac_bits - series_bits - y[2])  # series / y, y = y[1] 2^y[2]
    if n:
        total -= _ln_fixed(_rising_product(x, n, prec), frac_bits)
    return from_fixed(total, frac_bits, prec)


def _ln_factorial(n: int, prec: int) -> PrecisionReal:
    """ln n! for n >= 0, rounded once to nearest at prec bits: within half
    an ulp and 1.25 units of 2^-F.

    n! is exact, its trailing zero bits moved into the exponent so that
    libmp strips none.  ln n! < bitlen(n!) < 2^mag with mag =
    bitlen(bitlen(n!)), and :func:`_ln_fixed` takes it at F = prec +
    _STIRLING_GUARD - mag fraction bits, within 1.25 units of 2^-F, a unit
    there being 2^-(prec+12) of 2^mag.
    """
    product = math.factorial(n)
    zeros = (product & -product).bit_length() - 1
    frac_bits = prec + _STIRLING_GUARD - product.bit_length().bit_length()
    return from_fixed(_ln_fixed(libmp.from_man_exp(product >> zeros, zeros), frac_bits), frac_bits, prec)


def trigamma_ref(x, cfg: OracleConfig = DEFAULT_CONFIG) -> PrecisionReal:
    """Trigamma psi'(x) to cfg.target_decimal_digits, for real x > 0.

    Uses psi'(x) = psi'(x+n) + sum_{k<n} 1/(x+k)^2 to shift upward, then
    (1 + u sum_j B_2j u^(j-1)) / y + u/2 with u = 1/y^2, with the same
    truncation guarantee as :func:`ln_gamma_ref`.

    The three parts are summed in one integer at G = max(F, F_n) + 1
    fraction bits, F the series' and F_n the shift sum's, and rounded
    once.  Error budget, with p the working bits: the series truncation,
    below 10^-(D+5); the shift sum (:func:`_inverse_square_sum`), below
    2^-(p+10); the fixed-point series (:func:`_stirling_series`), below
    2^-(p+10), then the floor of u times it and the rounding of u, each
    below 2^-(p+10), in 1 + u sum and in u/2; the floor of the division by
    y, one unit of 2^-G; the one rounding of y, |psi''(y)| ulp(y)/2; and
    one rounding to nearest at p bits.
    """
    x = working_argument(x, cfg)
    xr, prec = x.raw, x.prec
    n, y = _shifted(xr, prec, cfg, "trigamma_ref")
    series, u, frac_bits = _stirling_series("trigamma", cfg, y, prec)
    total_bits = max(frac_bits, _fixed_bits(prec, n)) + 1
    head = (1 << frac_bits) + ((series * u) >> frac_bits)  # 1 + u sum, at frac_bits
    total = _quotient(head, y[1], total_bits - frac_bits - y[2]) + (u << (total_bits - frac_bits - 1))
    if n:
        total += libmp.to_fixed(_inverse_square_sum(xr, n, prec), total_bits)
    return from_fixed(total, total_bits, prec)
