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

libmp does the arithmetic, exp, sinh, tanh, sqrt and pi.  Every logarithm
is the package's own fixed-point kernel, :func:`_ln_fixed`, with a stated
budget, on stored constants ln 2 and ln(1 + 2^-k) (and ln sqrt(2 pi)):
libmp's log, and the caches it fills in a fresh process, are not used.

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
        (:func:`_exp_decimal`), ln|v| taken by :func:`_ln_fixed` at F =
        prec + bitlen(|mag|) + _LOG_ROUTE_GUARD fraction bits, |v| <
        2^mag: an OverflowError where its decimal exponent has more digits
        than Python prints (``sys.get_int_max_str_digits()``)."""
        if digits < 1:
            raise ValueError("need at least one significant digit")
        sign, man, exp, bc = self.raw
        if not man:
            q, e = 0, 0
        elif abs(exp + bc) <= _PRINTABLE_BITS:
            q, e, _ = _round_ratio(*self.as_integer_ratio(), digits)
        else:
            frac_bits = self.prec + abs(exp + bc).bit_length() + _LOG_ROUTE_GUARD
            q, e = _exp_decimal(_ln_fixed(self.raw, frac_bits), frac_bits, self.prec, digits)
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
    + 20 fraction bits (:func:`_log_constant`), mag = bitlen(x): r is off by
    under |n| 2^(1-wp) < 2^-(prec+18), which is also the relative error of
    exp(r) 2^n before its one rounding.
    """
    sign, man, exp, bc = x
    wp = exp + bc + prec + 20
    ln2 = _log_constant(0, wp)
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


# The logarithm kernel reduces its argument by the factors 1 + 2^-k for
# k = 1.._LN_STEPS.  Of 12, 16, 20 and 24, 16 was the fastest at 50 digits,
# where most logarithms of a command are taken, and within 5 % of the best
# at 100; 20 and 24 were 6-14 % faster at 200 digits and 17-31 % at 500,
# for 4 and 8 more stored constants (timings in the README).
_LN_STEPS = 16
# Fraction bits of the stored constants: above the working bits of every
# logarithm up to --digits 1000.  Past them, the constants come from
# _two_atanh_inverse, memoized at a multiple of _LOG_SERIES_GRANULE bits so
# that one command computes each of them about once.
_LOG_TABLE_BITS = 4096
_LOG_SERIES_GRANULE = 1024
# The kernel's working bits are rounded up to a multiple of this, so that a
# few tables of constants serve every call of one command.
_LN_WORD = 32
# The stored constants are 2 atanh(1/q) for these q: ln 2 = 2 atanh(1/3),
# then ln(1 + 2^-k) = 2 atanh(1/(2^(k+1) + 1)) for k = 1.._LN_STEPS.
_LOG_TABLE_Q = (3, *((1 << (k + 1)) + 1 for k in range(1, _LN_STEPS + 1)))


def _atanh_split(a: int, b: int, square: int) -> tuple[int, int, int]:
    """sum_{a <= j < b} square^(a-j) / (2j + 1) as (N, D, P), the sum being
    N / (D square^(b-a-1)), with D = prod (2j + 1) and P = square^(b-a):
    the halves [a, m) and [m, b) merge exactly, N = N_l D_r P_r + N_r D_l,
    and a short range takes its terms one at a time by the same rule."""
    if b - a <= 16:
        num, den, power = 0, 1, 1
        for j in range(a, b):
            num, den, power = num * (2 * j + 1) * square + den, den * (2 * j + 1), power * square
        return num, den, power
    m = (a + b) // 2
    num_l, den_l, power_l = _atanh_split(a, m, square)
    num_r, den_r, power_r = _atanh_split(m, b, square)
    return num_l * den_r * power_r + num_r * den_l, den_l * den_r, power_l * power_r


@lru_cache(maxsize=2 * len(_LOG_TABLE_Q))
def _two_atanh_inverse(q: int, bits: int) -> int:
    """2 atanh(1/q) = sum_j 2 / ((2j+1) q^(2j+1)) in fixed point at bits
    >= 0, for an integer q >= 3: low by under 1.05 units of 2^-bits.

    The first n terms, q^(2n) >= 2^(bits+24), are summed exactly by binary
    splitting (:func:`_atanh_split`) and floored once; the omitted ones sum
    below 2^-(bits+23).
    """
    terms = int((bits + 24) / (2 * math.log2(q))) + 1
    num, den, power = _atanh_split(0, terms, q * q)
    return (num << (bits + 1)) // (den * (power // q))


def _log_constant(index: int, bits: int) -> int:
    """floor(c 2^bits), c = 2 atanh(1/_LOG_TABLE_Q[index]), for bits >= 0:
    ln 2 at index 0, ln(1 + 2^-k) at index k.  Up to _LOG_TABLE_BITS, the
    stored constant shifted, exactly; past it, :func:`_two_atanh_inverse`
    at the next multiple of _LOG_SERIES_GRANULE bits, shifted: low by
    under 1.05 units."""
    if bits <= _LOG_TABLE_BITS:
        return _LOG_TABLE[index] >> (_LOG_TABLE_BITS - bits)
    top = -(-bits // _LOG_SERIES_GRANULE) * _LOG_SERIES_GRANULE
    return _two_atanh_inverse(_LOG_TABLE_Q[index], top) >> (top - bits)


@lru_cache(maxsize=64)
def _log_steps(bits: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The kernel's constants at bits fraction bits, as it reads them:
    (ln 2, ((1, ln(1 + 2^-1)), ..., (K, ln(1 + 2^-K)))), K = _LN_STEPS."""
    return _log_constant(0, bits), tuple((k, _log_constant(k, bits)) for k in range(1, _LN_STEPS + 1))


def _ln10_fixed(frac_bits: int) -> int:
    """ln 10 = 3 ln 2 + ln(1 + 2^-2) in fixed point at frac_bits >= 0, from
    :func:`_log_constant`: low by under 4.2 units."""
    return 3 * _log_constant(0, frac_bits) + _log_constant(2, frac_bits)


def _ln_fixed(x: tuple, frac_bits: int) -> int:
    """ln |x| of a nonzero raw x in fixed point: within 1.25 units of 2^-frac_bits.

    x = u 2^mag with u in (1/2, 1], u = 1 where x is a power of two.  The
    work runs at W fraction bits, W = F + m + g rounded up to a multiple of
    _LN_WORD, with F = max(frac_bits, 0), m = bitlen(|mag|) and g =
    bitlen(F + m) + 10.  U = floor(u 2^W) is multiplied, for k = 1..K
    (K = _LN_STEPS), by 1 + 2^-k, as U + floor(U 2^-k), while the product
    stays below 2^W, and ln(1 + 2^-k) is subtracted each time.  After step
    k, 1 - u < 2^-k, so step k multiplies at most twice.  Then ln u = -2
    atanh(v), v = (1 - u) / (1 + u) < 2^-(K+1) (1 + 2^-K), is summed as
    v + v^3/3 + ..., each power from the one before times v^2, whose low
    bits that cannot reach a unit are dropped first, and mag ln 2 is added.
    A power of two takes no step and no term: ln x is mag ln 2 from the
    constant alone, and ln 1 is 0.

    Error budget, in units of 2^-W: U, under 2 (U >= 2^(W-1)); the at most
    2K products, each floored once, under 2 each; the as many constants
    (:func:`_log_constant`), under 1.05 each; mag ln 2, under 1.05 |mag| <
    1.05 2^m; the series, v floored and n <= W / (2K + 2) + 2 terms, each
    power within 2 units and its quotient within 3, under 2 (3n + 2).
    With K = 16 that is below 116 + 1.05 2^m + 0.18 W, under 2^(m+g-2), a
    quarter unit of 2^-F, and the shift to frac_bits floors it.
    """
    _, man, exp, bc = x
    top = bc - (not man & (man - 1))  # u = man 2^-top
    mag = exp + top
    base = max(frac_bits, 0) + abs(mag).bit_length()  # F + m
    wp = -(-(base + base.bit_length() + 10) // _LN_WORD) * _LN_WORD
    ln2, steps = _log_steps(wp)
    u = man << (wp - top) if wp >= top else man >> (top - wp)
    d = (1 << wp) - u  # (1 - u) 2^W
    total = mag * ln2
    for k, step in steps:
        s = u >> k
        while s < d:
            u, d, total = u + s, d - s, total - step
            s = u >> k
    if d:
        v = (d << wp) // ((2 << wp) - d)
        square = (v * v) >> wp
        power, series, j = v, v, 1
        while power:
            drop = wp - power.bit_length()
            power = (power * (square >> drop)) >> (wp - drop)
            j += 2
            series += power // j
        total -= series << 1
    return total >> (wp - frac_bits)


# log1p sums its series while its term count, about wp / (1 - 2 mag), is at
# most this; past it, the kernel's log of 1 + u costs less (from 220 to
# 1100 bits the two tie between about 40 and 65 terms).
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


# Fraction bits ln carries beyond those of an ulp of its result, a bound
# below |ln x| setting that ulp: 1.26 units of the last are 2^-8 of an ulp.
_LN_GUARD = 8


def ln(x: PrecisionReal) -> PrecisionReal:
    """ln x at the precision p of x, rounded once: within half an ulp and
    2^-8 of one.

    |ln x| >= 2^lo, so an ulp of it is at least 2^(lo+1-p), and ln x is
    taken in fixed point at F = p - lo + _LN_GUARD fraction bits, within
    1.26 units of 2^-F, 1.26 2^-(_LN_GUARD+1) < 2^-8 of an ulp.  Outside
    [1/2, 2), |ln x| > ln 2, so lo = -1, and :func:`_ln_fixed` takes it.
    Inside, ln x = ln(1 + d) with the exact d = x - 1, 2^e <= |d| <
    2^(e+1), and |ln(1 + d)| >= |d| / 2, so lo = e - 1: the absolute error
    of the kernel would cancel there, and :func:`log1p` takes the exact d
    instead.  ln 1 is 0.
    """
    sign, man, exp, bc = x.raw
    if sign or not man:
        raise DomainError("ln needs a positive argument")
    prec = x.prec
    if exp + bc not in (0, 1):
        frac_bits = prec + 1 + _LN_GUARD
        return from_fixed(_ln_fixed(x.raw, frac_bits), frac_bits, prec)
    if exp >= 0:  # the one integer in [1/2, 2)
        return _wrap(libmp.fzero, prec)
    num, den = man - (1 << -exp), 1 << -exp
    frac_bits = prec + 1 - (abs(num).bit_length() - den.bit_length()) + _LN_GUARD
    return from_fixed(log1p(num, den, frac_bits), frac_bits, prec)


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
    """ln sqrt(2 pi) rounded once to nearest at prec bits (cached).

    Below _LOG_TABLE_BITS bits it is correctly rounded: the stored T =
    floor(c 2^B) is rounded with a sticky bit, as T + 1/2, which lies
    strictly between T and T + 1 as the irrational c 2^B does, so no
    rounding boundary, an integer there, falls between the two.  Above,
    ln(2 pi) / 2 comes from :func:`_ln_fixed` at F = prec + 12 fraction
    bits, pi rounded to F + 8 bits: within 2^-(prec+12), a 2^-12 part of an
    ulp, before the one rounding.
    """
    _check_prec(prec)
    if prec < _LOG_TABLE_BITS:
        return from_fixed(2 * _LN_SQRT_TWO_PI + 1, _LOG_TABLE_BITS + 1, prec)
    frac_bits = prec + 12
    two_pi = libmp.mpf_shift(libmp.mpf_pi(frac_bits + 8, _RND), 1)
    return from_fixed(_ln_fixed(two_pi, frac_bits), frac_bits + 1, prec)


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


def _exp_decimal(rest: int, frac_bits: int, prec: int, digits: int) -> tuple[int, int]:
    """exp(L) for L = rest 2^-frac_bits, |L| < 2^b with F = frac_bits = prec
    + b + _LOG_ROUTE_GUARD and rest within 1.25 units of 2^-F, rounded
    half-even to ``digits`` significant digits: (q, e) as from
    :func:`_round_ratio`, in time that does not grow with the decimal
    exponent.

    L = E ln 10 + r with E = round(L / ln 10) and |r| <= ln(10)/2, so
    exp(L) = exp(r) 10^E, and exp(r) comes from :func:`_decimal_mantissa`.
    L is taken to F + 2 fraction bits, exactly, and ln 10 there too
    (:func:`_ln10_fixed`), low by under 4.2 units of 2^-(F+2), about one of
    2^-F.  E is nonzero only where b >= 1, and then |E| <= |L| / ln 10 +
    1/2 < 0.69 2^b, so r is within (1.25 + 1.05 |E|) 2^-F < (0.63 + 0.73)
    2^-(prec+10) < 2^-(prec+9).  Where |L| < 1, E is 0 and no ln 10 is
    taken.  An OverflowError where the exponent printed, E or E - 1 as
    exp(r) rounds to 1 or more or to less, has more digits than Python
    prints (``sys.get_int_max_str_digits()``, if nonzero); where |E| >
    10^limit both have, and no digit is computed.
    """
    decimal_exponent = 0
    if abs(rest) >> frac_bits:
        rest, frac_bits = rest << 2, frac_bits + 2
        ln10 = _ln10_fixed(frac_bits)
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
    _, _, exp, bc = log_value.raw
    prec = log_value.prec
    frac_bits = prec + max(exp + bc, 0) + _LOG_ROUTE_GUARD
    rest = libmp.to_fixed(log_value.raw, frac_bits)  # floored, within one unit
    return _decimal_layout(0, *_exp_decimal(rest, frac_bits, prec, digits), digits)


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


# ---------------------------------------------------------------------------
# Stored constants of the logarithm kernel
# ---------------------------------------------------------------------------

# floor(c 2^_LOG_TABLE_BITS) in hexadecimal, one paragraph each: c = ln 2,
# then ln(1 + 2^-k) for k = 1.._LN_STEPS (the constants of _LOG_TABLE_Q, in
# its order), then ln sqrt(2 pi).  tests/test_precision.py checks each
# against mpmath and the first 17 against _two_atanh_inverse.
*_LOG_TABLE, _LN_SQRT_TWO_PI = (
    int("".join(paragraph.split()), 16)
    for paragraph in """
b17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c1382144
27573b291169b8253e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b72ce87b19d6548caf5dfa6bd38303248
655fa1872f20e3a2da2d97c50f3fd5c607f4ca11fb5bfb90610d30f88fe551a2ee569d6dfc1efa157d2e23de1400b39617460775db8990e5
c943e732b479cd33cccc4e659393514c4c1a1e0bd1d6095d25669b333564a3376a9c7f8a5e148e82074db6015cfe7aa30c480a5417350d2c
955d5179b1e17b9dae313cdb6c606cb1078f735d1b2db31b5f50b5185064c18b4d162db3b365853d7598a1951ae273ee5570b6c68f969834
96d4e6d330af889b44a02554731cdc8ea17293d1228a4ef98d6f5177fbcf0755268a5c1f9538b98261affd446b1ca3cf5e9222b88c66d3c5
422183edc99421090bbb16faf3d949f236e02b20cee886b905c128d53d0bd2f9621363196af503020060e49908391a0c57339ba2beba7d05
2ac5b61cc4e9207cef2f0ce2d7373958d7622658901e646a95184460dc4e7487156e0c292413d5e361c1696dd24aaebd473826fda0c238b9
0ab111bbbd67c724972cd18bfbbd9d426c472096e76115c05f6f7cebac9f45aececb72f19c38339d8f6826250dea891ef07afff3a892374e
175eb4afc8daadd8

67cc8fb2fe612fcada35d9bd014886067d20ffb34547d7c2b38ad78ec59e3b60c2df0cb19edaebb7fadca437b8a073c4752d66d15d6f9b5d
a7e09dc7febb0e3f4839cacbfc29e7e02d139480cb153ccc65209360074ba0ac0411cd963de66d195dc9b912dc8b1c82ef7d19914073acd0
8f0c598bd4efb504ef96d5c32c999bdcf6afcfa98591e5cdcc34a61b315c88ffbb8290bfcc948b5d2febf7fbc77295347ebd6e9d47918598
4f3f354a7e1f05d4fc602887b011b9857dea97517cbb3aed3e63e7907b24a1a22af51a01034e4eb426bb2f4901d97ddad67c644efd52f66f
c4e04ed3c0439f2818a778d2b46fef382056e09bb75a4abbbad119259ad50e9af3301a5655c334f389d92a660626bca2bc9d5dfbbe049c01
d830646254835dd179105b412f06a19b0b90e80c623dda9c7655d68e079995e7ed551b429f0221ac56fae94586f15872b6deea2d521499df
b76a6495ccfa80504819118752fc9a040d64801ba9143d0b7660054ef81089eeb570c01bfbde42cae2538ebe020b6ebb6d755fa3720d6dd0
9093fd4cec69c97fa9ab7ff9fc494b74cdb51beeff729161ffde421088c8286cf13815b363af3267a610c6ac67c7924f8d2db23cfb0b45cf
bba9977b586bb44a4c624cff77dae34b80f7c1d5b93e886733b7213bb3e3b0fe3fc6443cc0bd6044bb3320e9c972cf35c9d06f05421d107a
3d97736f874c7595

391fef8f353443584bb03de5ff734495c765ea7411adc1b170f133f564bfc746a192a8fd7cdd3baa3103360ed08de46de9fc85bfc087279f
78383094d75732ea24ef8447c3518a2a89070cdb2eec1e738fdb6776172bfb37d5380a61e55f390cd1333657b55167b558ade5fd6951da64
3c03dcc9ca54dd548bf1ceeb1e5824b5713fe0f4c2d7c7b1502f3dcff8ec637dc6f7545069d486fef4ea380f2351dc414a5db8cee5b396f7
ba0dbde07c9f7fd46b99ba86f1e24d9dd9d2c797315ae46187c11fac320bcc12a14da4aa647ec3a58c17fdc1d53afd59804f8baf38087b12
1de0e91424ac72aa8395a571ba5770b39f0195e80efdced714cefa6c95bb4d99d7249a7cc02cad208540b97340d0235524b7618cb586211b
29453eef23be1b4d09b25725aa3fee7ec5405721619c22864945b599c4f8ff9908d5c551c1eeb44a106a192f403ac2ee0dd4de0f79097406
78cf94ffcd30678058b02326d1cceb1263db56205356ae5772238f022e06e4d3b5c2afaa7f4ea3c9cf8eb5b0c9e3c692b00bf20eca5165b3
58f814afe19e98a399ce219205d648a4b9f56fc947f63b6bbdaa61a9cd8b34e1afff62a76357e90b8396fee95476ad3651555fc5f5382324
dcae61dcfbbc65b2aa103201acbe9997ce0b6a3f4b8c80480eb53f26553d662a1ef9a1700d91de20746c8b0e4f2e1f760f002992559bd4af
f37e0d9b8f7f165a

1e27076e2af2e5e9ea87ffe1fe9e155db94ebc4017f6f957dd0897c1ff917c959e05a342cfca2ad7a023f5742646cc77fd2c1f6cf9a71577
286a0066ec0c645951dccb81d608e6fb3f5b4ef064ae411a10568afc5d60e11ce2b3fa400574e2e748c4ea741bb0f03ae91a8c6548b72758
b8b911907abe8667050013c149f361f3e56ad5410fc7d00b375c1b3dd2d3c05c88ae84119d0a1ca4e2a9cc197ae476d2e634d5c4b3997a4a
d53a836247c43e762bf402a9cc9021beafbb109727a06c7d576133edc0e4a00ceb4db477a8880ee64628a890a6b48112a0b0be49e370dfb2
f4634c2dcea5c2b2831db4c9fc7f71bf391e4dda5386e25c16517d32e5455baa994a06f8f820e4a99e19b336f16b055723ca0530ec729fcf
198be1f178573307ad80912deaf066a775af3c47a1f1663f5f3c5ba41364247ab41fda65a8cb89d64c45d546a2c60d160f2bb1a217c25ffa
2cb3453dd060df9784770c13b21fea15e3e8d516833ff35de6fee1c8b31540e408ce1d1e8cc78293c44638e2fbddc36a83b723a425605e9b
f662447d13ea72826427f311215b5d90c40811856ec6be596aa43fc03541dc52cd021f3da34a8eebea6023eafd4475e1d3233d7c555452e6
6ca21d3af36fa1700197c872f3f8295495a863148b1bfb0e07fec58bbb281c4db0c11587e5428cebe6fe1bae84fb154ca325de16dba7e9a6
63d0322f45be3d52

0f85186008b15330be64b8b775997898d3474d3375b5259671851f0a96f698496172da6bde861006908722d985badcca99f0cc1de7a9459e
9bc3578977e6bc1668fdf95d5f36b22ce0f5584423c4de58cce585dd73d21d72d2692bbceee9d3588f93e053980ce36e3c5c1d2c99f1c7fc
0fea5d7bb857a365f85fcf25a5d9c7d86596620c9362f430c3f710acbfd7f245c27b07cf06e51059c14e8a7589ac698c8963312bc2d0065c
9da47afc9fb7dd8e86d0d6f318a07a322f14b1da6e339208f2a711e3fc43d0cbc2ec2f618e6239d2f139c8bb734ec246b48eb540eb97c7c8
67cd3330e47e74d9d27eea99550b5ddd2ebe437ed5f32769cea9eb885c3586c6befda077faa48510d39a56e3321515af866603a5e3704572
4df3bf3936fa4365bfcb22227753257d4883f3336a6eec212a134f901eda05b7d61a990872b38100355f3293b126e954ce6586e6d12f0e36
354223c2852d38532745d1a4786ab61951b0ed535ddaadecbdbe51e42297a345ebfc64cbf6324a763e7e4715b94a7a5f8ae27c16a9362560
83cab0ecc81476a3df8712b52b44d39de842912b929c44fb84016a528c65bd71e4d50c14a70ecef110b84ee53312631c3312496e64e6504b
955d39e73f704e8a61b2f223f811504b119ec4345b61b49e33af26dbb0dc11c77575a44bfec4a7d6d6d53036a61d5746d53c774d3209b121
db83a653136d75e3

07e0a6c39e0cc0133e3f04f1ef229faeaefae14cddf35ad1df6c758fe3673dcd8a38a3ffec979e9d55d9a7bae0a5d2e39ce344310f6e3a39
02127ef47cb29271ff7bd74c38eed29cf6cf97038d212c6bc6ee8bcfc1bb60f648625f868fd1d5f65faea913532b6b9b750b08638bd310a6
93e18189403dd5821cc99aa5ea801ae8ce9214671bc4d08a626c2ef22ee8293ec035aad56bd6a362f6b2b0364785a2211c0e08220a4e2e28
e8b45e05e1a5772e7fa5d3aa3dbea7a3415cd4cc6c5511c129bdf766e853cd509c07347d278b39ed4eda72ef0182f7f28400cdeb2ad6ab1a
0afd3039660c9f0c1740d6c66721f58a775b65755911a433034e5ceb638db1654bcc2822b4bee981cac1d2bbbdc530c564b3d0538dd25814
c7b39aa977077723ecdd781cd70f97be00872128422a728a6bbdb38c56901629e3d444d4d564ebbbd573845b0c5fc975948d50d9ccdd8781
a8d061ffc7661262f0bfd950caee69038540a3f4de1bef770f14f3353af1b218463788a7b906f4ed8b72920a67c3706b6483bfe19495b1ac
ed109f870c975e1e410d860d3d4c10e15d01cc32323af80cc2141a5fd27618a917e1d8b33edc635179ca222079cac542e1f836bdf6b13852
c88799c9eecd99691678ec26486fc6bd1eec2e2f57f7b5194f53d356ab77734dc6888f9c2b52267a28872ee945cb0fe73a4a3445ed644c21
1947ba58c7c58559

03f815161f807c79f3db4e9a6f57aadbeb03be903ddc5335d140fe0577122f837a59b490758dcd0b7841aece8f9f71ccba7510a93b4ede62
e808e1531ef3a14015567658a1fc017a750162515d2a0984567d103c79a8ae2c0755b0eb65dc2153d117bb22bcfff7d9923da68a68d7d37e
0e897eadd8363ccedbde9f7cfe905d5743f674e803f8f465368ab0d8150060ff5e523a535c10eaa988a204b3888921331998272fc817b859
12d28d79ea75a3f7d2670a40d49db045cf609b96760bc66b8afb2ee2b98347e0e4ef4a871950bd231114aec3164d9eee1f5a322de21176d8
18d103429466d9621a4e9c5ec99383109fc0870307e450d06919a793bec9630e749b49a1b7a9efa8dbf2810d56c09b7dcc940b0d3b040bbc
6db5b10cf43da505d105e0b64f5e26ed8f80495605f75773e8df1afa750ca86b290151e7ab01c83693b39a8461de378ebb4425816473b5ee
f4a4c506a2d0c58868de1a34dc7275c29ed8b5223d5d1f3ef8ab5e90a6564d3c39cec4c853e5fcd4f1d000cb27829d93cd84729cdbfc44f8
be1a3085dbe9b1cfe4649dfd0bdf027304e007a8fbf7e39d8ae45482303cf958ed7a9c2f832ab1c6184ed02936bba480709d999ffbfe4527
d40a6942cf43d77cebddf88545757ccff55f468dd5042dffa4032e9bbd20e950ace93e2bc034c07044d4e77eeac773ddbf932becf67ac305
e810f865cb1faa09

01fe02a6b106788fc37690391dc282d2b3db2c3ef9a073a8767027886b5788c3d122f7ff51bc9855e4c4a44afacf68d7d99e1b469bb0f82e
d4520ee290d465bf52d919eca4a5b7cf31cd81611857063bc200063f6433c9e06c15655aaf58fd5ce70bbce72bbd5a8b5122ffd096fb141a
d0b1dcd4a092519ad47d420373ae55713fe0603ba5ff317c0a8eb3d0079a8dca3f88e699b8c4273ac52884637c5b9ec73d7cadc54786d57b
4bb47df73ec223633eb721d2e6f0342a0134ca4821621628d3dd60ae58e7c9ad7db743727cb9a5a1fa6aca84e5429e80feb4db6730184b76
610920a7d6bfcf442b02808072b836e39e7de4fefd70598fcb814bc3d0e8e0ffdcc285e564e5e121d599d7f3a8d1a3d60619d3b4185750d9
90ab1fd9efca2425e4e032a383aa212c30387ce6672ed541b07191650e6673171c7f56c7b1665ce04cde11f95fe8a7a043c9fa43d28a606b
c6bb929d5eeaf63deeab66b88c339dd0de972cd4c027fb9b39400a4c505c35556a3f6dee03184a9ff118be7099333ac1bf1587fbdd6832e9
6babc997b7a8fdbe056e88b44b015ade581407ef1d54d31d5180e1ca2f3a9881f68b76548a2ebab7c6ae07f363caefe5ba32b75a0a3bc158
aee5359ca6ffb2b66d86100734757b01ffd42e0b88634ae79ed3ae25cf6229c6aa80fe9cf79b969d9a2cbb2c63c3bf324561f01b2bef581b
3c266550e2ed1e8c

00ff805515885e0250435ab4da6a5bb48ccd29dd6d72582491ba6e335a1a33227ed64a064192b38fd137bfbccc95af15699b47493a53ec28
b4baf715f0697e3889db3dfeac79813d82b09d3b430ecb69d438bb960f63291607b4996dedf7e201301208132c5278bd7813a608da1a5e4c
55a3a8c20282b5cdff71220b789832893f8c266541112acfb2855ff890122dc4afb8deac99eb61d10094d42098e0e51b7356e4f5db020f7d
ff02871b00bc47c35d0932d455dd750ba15829285261af84e85275f152423ede2165e381b18e035dea7f2a23e395110e4b86566c2233dba2
fb85b2fa39d54a86a96edf950fb28fab7da66afffbbb0296fa29f816e1d514a071644fac439058279751eb895195f48f4453ea2d287ab29e
c8c909b309c7e22445689adf64252869349e37cfa19551ba591b205e7809567f8248dab865e81ed627ce96456713f11270dd7510b54a3b53
e397895ae867994f23a2797dcf8e12aad15cb138f1865ed8359c3a237e216a4a62b9516c1028b9f1519232b1cf33ca5b563f7da4fa42f81c
effc119a11d343b9f8ba7565aedb3496b20fb3e9dd303505d7c03a18b241a9c48b74c1be3509370a977a092bc14426a61edaa6e521deeaec
2f803695a35ff6b7eec45274bcac49cc2dc222913621c5f7c92da4df2e993e918af4141e58aea3609c96bea8fa3e66b33373848fcd6de643
9280afe47aee5a5f

007fe00aa6ac4399e29e3a153e3b1ab1cad8ec22e89a011ec73356cc12ace6e866e737d102ec7bf0dd3f9376492e4bbad0d98ea24e690306
566babedd4bb4228afa9c34bd534ba9b84a8727dc559200740cec96c5d80eb3ad932764447a4461c495a2bac27d5b7aa70f430d8a57f428b
b6908ce750a4a8e4ffa8b50cd718b11cbc58191ff125f292c43b29023b7796f8466c9b4257c7a3d34e7f263d0cb55bce3ebc5c529057134a
5a707dab83a15d377c137902da7f38c0aab2bf439f372aaa646687a2b7e7100b7bb06abdbc7498e3868246504b98cec5e5a8d090a171693c
c2652db35c0234b97436f3a45254e8914aef3e49fe19736ce245eb3c98456d70d552bcc9d033bf48920f1c5b7d546db8623a73fcd50a22e1
0c29fe689920a33b3cf9ce0f067c135eda8d25f4f154207ca86222f617a38fc9524d4c4de23507a2039b254332efe299b633247c27081c5a
d1329eb4d5c48b5abb9acee2239e80094be607f2603478665193488e3a34c49583341d0603365b1b38863499d342c332fdafbdbb4da0fcd5
27b211e0da7edb912f749a8503c9c381aa6be419967ff841c0f9fc7d4c2528581f4bcf35048c0ec607a6cde1c475f0ee09c467db7074326f
4b093da16e377198063c65f4460a77ce133ac712d169984ddd738efb260ce86d16958281e951b6daf8d8ae4c883b8e6a8046e6f96543f7b8
36d9e7df570c696c

003ff8015515621f7809a0a32499268e8e30d61762ef4eb06e34c564a6eb720c453519e9f158acddd3878b775f35b760ac4e6045033072c1
2cbec25488455ab2a77480cffcd596445634cb94d1f3a9888a85d6da739145b41685f93038603bf80e08c996909380ffe44f4657d8c15808
5ae185a443affb63e679856486a9a13265cfc75e7a6aae61a29a7413460b00ea49b8e56404d8021a3ef4aab12204232046519661f1da3961
03b09d89d2d4e3c5a60c002ca8bd48905aed89a3b4be72fe2e8d392cf80ee38a2144dce2349cfc812545acb39a0cdfba6030da8bb73e7e2c
733b38d9bf840fbd542276061a1ccbb9223b7241da57c458f2e4d6ea6bde9b312f6457da0b57d454f5bf18b792c7b4c42f38e5cedee67101
9d07dda16c410527f815825fd0cfec3c80e78b52ee056799d317e9d2af4c12e366a1eeb24c404a85bfd9acdcc39edfc830824fe9aa6e8e71
a2e52c2ae9f6f560a122639e93410acbb13942a01301a31fecb5474d5a441e62b5e01fa9d23bd97523dc77901d1484409a7f805e30fd2a8c
2c369b635be57b4bd43ff73bf84d4875d5da9d6dcae3482a4c534451a8e1d4204ce6ebd41ba538bc1539e8aa6e1f2190db9327473fe22798
4012330137d88a1b309a02e23c664ac4e53a8b19b0cf3c1dbb52b604e2baecec9043605ea7f3cddab6953722bbdb40ab7d998d9c339710c3
1c93c13a15184612

001ffe002aa6ab1106678ad8b318cb38545eb8e9e5e0fc9e4e588a365c09d7ac7dcd939ca5e80ec22369cbdd10a5afdad4954a65648d0b5c
2e395e6a715642070b4a14bda5845964c36a7cb9fb8750ca2ba4b19bcf194574b8b7b869194f854bd620d7db0e10db8d219cd7dec4f6bb8b
26f8578034e4670eda0970dcb16c84c003eb79f7c2550484582dbce9ce172bafa79d9e8c21ff5baad5c7f918388115413baed942e91e3045
90d6e901efb663b01e0db06d6baa5d12c40003a49c0020fd90a1748a2e5403fe65ddd61fee875914f28e910af00d16f43fd654d2e89a51b9
500f4e6d94c63e431dd3ad9ced3b8f50192b31ad813abb6982378d4327b2bc38afd39b624c47b79d1fbd2bde8d0e0f1baddc6e581e3d04ae
be00caa0a74d8d46bf5a37a889a6f8baed4af4d2f1e73448238cba1e2256086fa64341d4291abac10229d038d180e7c984a7d2090f6f18a5
750375d1e51b0eed51379572dda7a81d0e5eea4f88eaf356ef32b61a06685453d56d38775bc2e3faf56bdda1160935b885973d2a62c183ca
c7d8775241524ca232c1cc0faffb1b10a3d875883bb12a8bcd79a82ed47486b031906cd49e676fa52d252cdcfd2c8a6b9970ceb016e2ce31
6f984e46364941e79632c9a80814c777b7234794e66fbed09e6d6f4155d32851092221034eb75848772cea912beeae0ca87e7cb5cf5e9b4e
e7fbd86f9f486eac

000fff8005551558885de026e271ee0549c8cd0b8002d083c9b2e9198222f25f83c3767ce5b794e8add50321de7bf63af6577335116cb84f
bd5c2e9ee976cdd156f744f1f9161bdf3e861046dcd6c142b22f5b3ca5d65d6f127c75f7e3bbbd943829c570a4d80af5ff030cd9e961c05f
c72f555f74b0d7b0c710ea9173597c40628a0cf57cbb9917faea42a3750fe229a2fad4c1ba9a504978276908094aaa8a4a2be632882b1ea2
640d36560c24b1aae2d55776feee10a3e4829c94af6f3e4e5278ad48f9eab90181be957e4db5b80300e4a3bb1448b02d004bc0a4790c18ef
860d68dbc34ecb68989c84682dbeee213a06ad36727ad553910dd587e8bb0bdb32f260319db12272933c3f3e350fda32b5b8814afa4eaf22
b2fd574f9bedcaab2ea9e4979cd9df763636ada6add14d2826682e489939082cec8c8d906b9138dc69479d032474b526ad3cb53d99aa4791
a3ebe7fae0cdfc555f8d4ca9ddaf7de4e9ceb74b600c95d24082df6ab4c107b711d55f7eea4eeec4024fbd7316dbe7ad254835364023c514
496313267a6d33b4552dfc79fb6358ad74c1a3df73d52fe0e62c56ee108ea8554fa75ddeeb41487bab1efda0a74e61b6c40ad56257796e81
5776cff2dd4a7dbf7b3ace6e95ecfa174743ea5097b549597dda47c23ff901ab8f49fcb025b411bcb4f55d5ef5a1f70cf0d70b8cc8c3b324
93c1c2988f221b75

0007ffe000aaa6aac443999e2bc2bf0f6a90d794de4647be46c08a95c4b26860f2added6c36eede8f576ffd9795b75ca2f9fd6b95bc2ca6a
eb8cb58a5d3950db02c4c3f9d70685de2ab3a2b3db99a46dbb6e70bbd080c91a577a7e8ed86d76e4e674a22911e141082660026fb25589e2
d2b2e31dee42fda2aecb01ceebabe03a582d5e130ebe9db4fa58ea83ab4fc68edd410c87d858fa45a97a18099a8f134cda6f38b9e46cd8a1
22ba259a9fc12ee55a37885586d242724945f236a5a436d02fb50af9c1142e332010fd5fb72845c3d420bedd30a7a3b618bdf31212748224
e06bb17257e2ab48ce7ad65b6e0a925e66436b7603dd7b1f493a783eec36dfb010afc1f4cfae11e2061594aaebae2503c16e34834a7ecd48
54306caaa91b7e95ccbba0c75da12216e483e3083fd350bddfa3c8ae7666756951b57b9ac9663ee198e458e94bde919fe752ee7b2ce8c3cc
145e358278f5f4410fb66585182bb0bd2a37b38f47b972bc07e719e273ecec2a12cc7e3a9d822b9508c7cbf52100323936f038198088bb0a
e54cdf96074254e437ee7664762b5ec21b6888ded159eaa390b7c1e8080fa8ed5d74f7a8b24b64a2154196a2e0519bcf6be33f1df09b268e
94846795566278a3c68ea2a1a35bd7e4846d6d482791c58fc3be78b0124098fb9949e7c4ad9bcf198dabce7fdf833c8a58185269534bc6f9
5aa1ddfdbe4fbed1

0003fff80015551556221f77809be9c10dcf437a08a27c47f7b8170b3228bbda9876d250db837e0c455be77fadc4b6047785988ee5e46287
4b04b13f0c7e47edb8675c4e37d6789a07d09372a5278fd73e62f73781c9fcb27e72e5c8d11e6fffcb8e4e1902935f38a32988ff7b2ce573
ea7a55c01bfd3ec7695d44c640b35db10f5abd2372adbde0d2eaa45293d90101b4266a41025d4d1d8db018a7311f2425b67c60308e8d93ae
382296aa9a1e8b92be8134f0c926572eeb99640dd83824dcdd7e897cb0b69be20dda9a66453678e4cc031e078db0b4fc309d64244f6929a8
c609bd2905999c454d1815f7baced9e0a1ce921188e2aa7ad69ab3bc99f23d5c5ecba7d75c08f12efca796490761a732a4b2467957668664
54f93cf94b70ee94f6ba890c89a618870b6f6bdd33eeaae236102b85f108b491d1ab909da9b19e74d783f5ff992fb92cc2e606d8ab672962
3fa47f6c27b54a66e80f0caba9ae1d00390c39a6147867074cf0051de1c76b30054ffdb13306e2ac9fc513d26b468814bf37ebed708c1fd0
16a57d896c297ff13ec92502527afeb70556b7cc7617f3ce44fbcbade3a7c8065b19a6cc86dff48f1a4ad0a3641ea5c5bc01bbe2ce2a7bbc
aece52e29c008c121358648ad7ce319e17dd5c987aaa24d3580a3afb126fd8c3585656751a817af85183477dec76bf0a81f71ec7c29aab45
c358cd1423498bbc

0001fffe0002aaa6aab111066678af6af8e86e2082c24db8582a09b18c5ae43b04b508dbc15dcc658eb217a56ba06c4b8c829de3945304c7
683e618849036e3a5173d207859c9f6b0c3cccfa69c6a85e6e8201e8233d682d782acf581769a71e53cdf2718e9e3df4163ac55adaee965e
f5a1d5def2fde02f18392457004391bcd19d72798695b04fab7f53497244634342ba11d1a5f51a5bc4f93772ce3082bfc92d97edd34d8f45
ad6c994c5a73c81a88fd64daa2ee26778740f19ab44de3af15080ba9cf43b6cc52909910ddecb5dbbd40350ed7fe2a07c11f9d4ffc1893f6
2d098626201f3f2b739cdf8b81239e5d3588395c61ecda3da71a332444c9423ff09f5516309a588b0d47c44b87f07b987d0a56b28a81975e
b871e281316f1f3bdbf3a55dee0f7ca118d6c7ec7d3ea2b0140ace832f3a8df7bef44059cd8e587d698a66e6dc48a7744a601275826c389b
5a9ace1460705bd15818d9e8ab968c2b205d1300e3952793d744b5c60dc73286b0e6706af1060b3ec2a6e612714f47537e9ae942a998b73b
ebce742c82052af0a9bfda2237153a5cd1dc03cef27c70b2f6cd14b026a4bbf5265b91255b2c919f8e7de542bbae3f1ef26714a42a2c14da
8d169acc117abf8baddea77031c9c847a14f3d76fba2f58beac0329abfa72d8aab8482ccf86f8fb3eb21f62d64391c8ec2be2868bea27ba8
9e3680aa8989ed29

0000ffff80005555155588885dde027007028c98aff31675af1e4b661876afc0bd81443999513506e4d063bb32030263e5a8ece440ba526d
a63fd0567033f832b57e55301adbec9f52646935a7f6d8bcbda040577feee08363aa6a623fae28a491a7c6fa4564d8cfc64e0088057c3664
e21f283cb564211ef9779b5efa075cd82e833d5d2335dd70872f380e149ad3c9328bf672a78880c3e899653571900bd14ca1cdd3f3211d08
2ee20287ec3189f5e34d40df8dbdd47ea1b2a86162e3bc64b2020b9c101878ef83fac7325da8c11e1778be6116ab79f058d8fc3dd91826b6
077dbc0b61ca82a95e3748fe46f669057521179cc6844ac8d9bf7a18b19a798bd10e44d5c4e57106460f3451d14d9744a076802c5fcb906d
8fab320657851e7f5f12b2769c8a975e4439912a2e556bd556c4e887dfe0e871654fec2c18c8c3e823c026346f0ff024f9da2aefebfd5971
4f841cbd25b656cfe7b0315036aa946467cd44ff5f435ee98c7c30a6f779d1f506d5a5ce726c113b522c06665050f8a5eb0fe4ce08b99928
8ba47c58f5458fb32bf31623f7df08ba139522d8693e3d2f2707962cd322efb49c328651cb6f4149a4978174a8beb590f836aca23c531136
36ceddead033344c643cc8b3fbd11d2483371ee3c3dec8ce8e1d14b500c0b123c7ac0c38215a9e9c7cb85b7311263970b10ba3bd2ccaabfa
384ea35f1d15b1c9

eb3f8e4325f5a53494bc900144192023cfb08f8d13458b4ddec6a3133daa155d212f9d7fe00e86bf93eabf905c5569bbb05cab571b4cda5b
cf66ece1772badf2926770eca54487a7307d867635c116969254d1304a59fb7e27086c366978e17eded77fbec954a0afc525605f70bb125e
54b6d36bee63e04a3bd6e6fba48aa1943e2d864390f077335a3b82a910bda1cb4b3f632dc1f94d7f59f95cc81b9c2c552436f3f794779c27
51002101eaff81bf7fc4ae1df2a457b56d14a520d4a5e7ab8ae068d0e59e35f28879ea5f7ed67b66b545f48e61ee8ed7a76feed9493547d2
10bc7cdc7b58411d494fa2f76ec7c9c30093d478f15756967f43946170ff46424ce893c3b379d790cc752cd85a135a280420b9b8895ffbaa
59b1b38b46b8804396d853bb876e212a8488a8b47740111c596d1896a1e9c8843d71c38e366e1cfab82d1eb082801b1a0431c2143bc4687f
bd08499e8f76b795d342b3979542069683f93c78c00f9f47de85efbcefe415a9927d151c1511076041aa1674fac63d2ebd40ad4ddb8ae0c6
50d104f81147f9ed8174b3222ddc6ab4fd995c25c96af557cd3e3fa93299f02113c336aa518b330ba3cc2a4f6bd790ceaa8cd4d6749005fb
c819a8056273028d3d26c22ef46b7b9140ee0d2e405e9f6ce5c6270893a74bcc72da90fb4c2cacd0c7ffe93c2bd04b4a9b7905fac58147de
89ba5d10ab741a95
""".split("\n\n")
)
_LOG_TABLE = tuple(_LOG_TABLE)
