"""Exact big-integer, rational, and polynomial arithmetic.

Everything in this module is exact: scalars are ``fractions.Fraction``
(always canonical: positive denominator, gcd 1), a polynomial is integer
numerators over one common denominator in lowest terms, and no operation
ever rounds.  This is the substrate used to certify coefficient tables,
rational-function identities, and polynomial sign claims; approximate
arithmetic lives in :mod:`windschitl.precision`.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

__all__ = [
    "bernoulli",
    "tangent_numbers",
    "Polynomial",
    "RationalFunction",
    "ShapeError",
    "SignKind",
    "sign_criterion",
]


def _rat(value) -> Fraction:
    """Coerce to Fraction, rejecting floats (which would smuggle in rounding)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact arithmetic needs int or Fraction, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_tangent_lock = threading.Lock()
_tangent_cache: list[int] = [0]  # T_0 = 0 pads the list, so T_k sits at index k


def _tangent_table(m: int) -> list[int]:
    """T_0 .. T_m (at least T_1), from Brent and Harvey, "Fast computation
    of Bernoulli, tangent and secant numbers" (2011): an O(m^2) recurrence
    on integers only."""
    t = [0, 1] + [0] * (m - 1)  # t[k] = T_k
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def tangent_numbers(m: int) -> list[int]:
    """A copy of [T_0, ..., T_m]: T_0 = 0 and the tangent numbers 1, 2, 16,
    272, ... of tan x = sum_k T_k x^(2k-1) / (2k-1)!.

    One pass yields every index up to its limit and cannot be extended, so
    a cache miss at least doubles the cached range; a caller that needs
    many indices should ask for the largest first.  The cache is guarded
    so concurrent callers always observe the same values.
    """
    if m >= len(_tangent_cache):
        with _tangent_lock:
            size = len(_tangent_cache)
            if m >= size:
                _tangent_cache.extend(_tangent_table(max(m, 2 * size))[size:])
    return _tangent_cache[: m + 1]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, convention B_1 = -1/2.

    Exact: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the cached
    tangent numbers (:func:`tangent_numbers`), and 0 at odd n > 1.  The
    ``Fraction`` (one gcd) is built on each call; the tangent numbers are
    the only cache.
    """
    if n < 2 or n & 1:
        if n < 0:
            raise ValueError("Bernoulli index must be >= 0")
        return Fraction(1) if n == 0 else Fraction(-1, 2) if n == 1 else Fraction(0)
    k, four_k = n // 2, 1 << n
    b = Fraction(n * tangent_numbers(k)[k], four_k * (four_k - 1))
    return b if k & 1 else -b


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer numerators over one common denominator: coefficient
    k is ``_nums[k] / _den``.  The form is canonical: ``_den > 0``,
    ``gcd(_den, *_nums) == 1`` and trailing zeros are stripped, so the
    leading numerator is nonzero unless the polynomial is identically zero,
    which is ``((), 1)``.  Equal polynomials therefore have equal pairs.
    Every ring operation and every evaluation runs on the integers and
    reduces once, with one gcd, at the end (a rational polynomial as an
    integer one over a common denominator, as in von zur Gathen and
    Gerhard, *Modern Computer Algebra*, section 6.2).
    ``coeffs`` rebuilds the canonical ``Fraction`` coefficients, degree 0
    upward.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("_nums", "_den")

    _nums: tuple[int, ...]
    _den: int

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        cs = [_rat(c) for c in coeffs]
        # over the lcm of canonical denominators the pair is already reduced:
        # a prime power dividing it exactly divides some denominator, whose
        # scaled numerator that prime does not divide
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        _set_nums(self, tuple(nums))
        _set_den(self, den if nums else 1)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> Polynomial:
        return cls(())

    @classmethod
    def constant(cls, c: Fraction | int) -> Polynomial:
        c = _rat(c)  # a canonical Fraction is a canonical pair, 0 stripped
        return _canonical((c.numerator,), c.denominator)

    @classmethod
    def identity(cls) -> Polynomial:
        """The polynomial t."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff: Fraction | int = 1) -> Polynomial:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls((0,) * degree + (coeff,))

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction | int]) -> Polynomial:
        """Build from a {degree: coefficient} mapping; absent degrees are 0."""
        if not terms:
            return cls.zero()
        cs = [Fraction(0)] * (max(terms) + 1)
        for k, c in terms.items():
            if k < 0:
                raise ValueError("degree must be >= 0")
            cs[k] = _rat(c)
        return cls(cs)

    # -- structure -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The canonical Fraction coefficients, degree 0 upward."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._nums):
            return Fraction(self._nums[k], self._den)
        return Fraction(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, den = self._nums, other._nums, self._den
        if den != other._den:
            g = gcd(den, other._den)
            a = [n * (other._den // g) for n in a]
            b = [n * (den // g) for n in b]
            den = den // g * other._den
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, n in enumerate(b):
            cs[i] += n
        return _reduced(cs, den)

    __radd__ = __add__

    def __sub__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> Polynomial:
        return _canonical(tuple(-n for n in self._nums), self._den)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            s = _rat(other)
            return _reduced([n * s.numerator for n in self._nums], self._den * s.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return _ZERO
        return _reduced(_convolve(self._nums, other._nums), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RationalFunction:
        return RationalFunction(self, other) if isinstance(other, (Polynomial, int, Fraction)) else NotImplemented

    def __rtruediv__(self, other) -> RationalFunction:
        return RationalFunction(other, self) if isinstance(other, (int, Fraction)) else NotImplemented

    def __pow__(self, n: int) -> Polynomial:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        # square-and-multiply with no product by the initial 1 and no
        # squaring after the last bit: x**2 is one product
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.constant(1) if result is None else result

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return NotImplemented

    # -- evaluation and transforms --------------------------------------

    def __call__(self, x: Fraction | int) -> Fraction:
        """The exact value at an ``int`` or a ``Fraction`` p/q, in integers:
        homogeneous Horner, sum_k n_k p^k q^(d-k), over den q^d, with one
        reduction.  Any other argument raises TypeError, as a float
        coefficient does."""
        x = _rat(x)
        p, q = x.numerator, x.denominator
        nums = reversed(self._nums)
        acc, q_power = next(nums, 0), 1
        for c in nums:
            q_power *= q
            acc = acc * p + c * q_power
        return Fraction(acc, self._den * q_power)

    def derivative(self) -> Polynomial:
        return _reduced([i * n for i, n in enumerate(self._nums) if i], self._den)

    def compose(self, inner: Polynomial) -> Polynomial:
        """self(inner(t)), exact: with self = sum_k c_k t^k / D and inner =
        m(t)/e, sum_k c_k m^k e^(d-k) over D e^d, by homogeneous Horner on
        the integer coefficient lists (:func:`_convolve`), reduced once."""
        nums, m = self._nums, inner._nums
        if not m:
            return Polynomial.constant(self.coefficient(0))
        acc, e_power = list(nums[-1:]), 1
        for c in reversed(nums[:-1]):
            e_power *= inner._den
            acc = _convolve(acc, m)
            acc[0] += c * e_power
        return _reduced(acc, self._den * e_power)

    def reciprocal_substitution(self, degree: int | None = None) -> Polynomial:
        """The polynomial t^d * self(1/t), with d >= deg(self) (default deg)."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("substitution degree must be >= polynomial degree")
        return _canonical((0,) * (d - self.degree) + self._nums[::-1], self._den)

    def divided_by_power(self, k: int) -> Polynomial:
        """Exact division by t^k; raises if any coefficient below degree k is nonzero."""
        if k < 0:
            raise ValueError("power must be >= 0")
        if any(self._nums[:k]):
            raise ValueError(f"polynomial is not divisible by t^{k}")
        return _canonical(self._nums[k:], self._den)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        # polynomial-to-polynomial only, keeping __hash__ consistent
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*t^{i}" if i else str(c))
        return "Polynomial(" + " + ".join(parts) + ")"


_set_nums = Polynomial._nums.__set__
_set_den = Polynomial._den.__set__


def _canonical(nums: tuple[int, ...], den: int) -> Polynomial:
    """A Polynomial from numerators over ``den`` whose gcd with ``den`` is
    already 1; only trailing zeros are stripped."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    p = object.__new__(Polynomial)
    _set_nums(p, nums[:end])
    _set_den(p, den if end else 1)
    return p


def _reduced(nums: list[int], den: int) -> Polynomial:
    """A Polynomial from numerators over a positive ``den``, in lowest terms."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _ZERO
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return _canonical(tuple(nums), den)


def _dyadic_part(p: Polynomial, scale: int, degree: int):
    """scale p(x) den 2^(t degree), an integer for degree >= deg p, as a
    function of (n, t) at x = n 2^-t: p = x^low S(x^step) / den, where step 2
    skips the zeros of an even or odd p, and S by homogeneous Horner, its
    powers of 2^(step t) as shifts.  Laid out once: the function skips the
    Horner loop for a single term, the factor n^low where low is 0 and the
    shift by (degree - deg p) t where that is 0."""
    nums = p._nums or (0,)
    low = next((k for k, n in enumerate(nums) if n), 0)
    step = 1 if any(nums[low + 1 :: 2]) else 2
    top, *rest = (scale * n for n in reversed(nums[low::step]))
    lift = degree - p.degree
    if not (rest or low or lift):
        return lambda n, t: top

    def at(n, t):
        acc = top
        if rest:
            power, shift, bits = n * n if step == 2 else n, 0, step * t
            for c in rest:
                shift += bits
                acc = acc * power + (c << shift)
        if low:
            acc *= n**low
        return acc << lift * t if lift else acc

    return at


def _convolve(a, b) -> list[int]:
    """The coefficients of the product of two nonzero integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


_ZERO = Polynomial()


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Exact quotient of two polynomials.

    The stored pair is not reduced (no polynomial gcd is ever computed);
    equality is decided by exact cross-multiplication, which is invariant
    under common polynomial factors.
    """

    __slots__ = ("num", "den", "_dyadic")

    num: Polynomial
    den: Polynomial

    def __init__(self, num: Polynomial | Fraction | int, den: Polynomial | Fraction | int = 1) -> None:
        num = num if isinstance(num, Polynomial) else Polynomial.constant(num)
        den = den if isinstance(den, Polynomial) else Polynomial.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (Polynomial, Fraction, int)):
            return RationalFunction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def compose(self, inner: Polynomial) -> RationalFunction:
        return RationalFunction(self.num.compose(inner), self.den.compose(inner))

    def reciprocal_substitution(self) -> RationalFunction:
        """The rational function equal to self(1/t), with powers cleared."""
        d = max(self.num.degree, self.den.degree)
        return RationalFunction(
            self.num.reciprocal_substitution(d), self.den.reciprocal_substitution(d)
        )

    def derivative(self) -> RationalFunction:
        """Quotient-rule derivative (numerator and denominator not reduced)."""
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x: Fraction | int) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num(x) / d

    def at_dyadic(self, n: int, t: int) -> tuple[int, int]:
        """self(n 2^-t) for ints n and t >= 0 as an integer pair (a, b), not
        reduced, a / b the exact value (b = 0 where den vanishes): num and den
        by :func:`_dyadic_part`, which the first call lays out for later ones."""
        try:
            p_at, q_at = self._dyadic
        except AttributeError:
            d = max(self.num.degree, self.den.degree)
            p_at, q_at = _dyadic_part(self.num, self.den._den, d), _dyadic_part(self.den, self.num._den, d)
            object.__setattr__(self, "_dyadic", (p_at, q_at))
        return p_at(n, t), q_at(n, t)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    __hash__ = None  # cross-multiplied equality is not hash-compatible

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# Single-probe polynomial sign criterion
# ---------------------------------------------------------------------------


class ShapeError(ValueError):
    """The coefficient sign pattern does not admit the single-probe criterion."""


class SignKind(Enum):
    """What a single probe evaluation established."""

    ALL_POSITIVE_ON_INTERVAL = "all-positive-on-interval"  # p > 0 on (probe, oo)
    ALL_NEGATIVE_ON_INTERVAL = "all-negative-on-interval"  # p < 0 on (0, probe)
    SINGLE_CROSSING = "single-crossing"  # the probe is exactly the crossing


def _check_shape(p: Polynomial, m: int) -> None:
    # the denominator is positive, so each coefficient has its numerator's sign
    nums, n = p._nums, p.degree
    if m < 0:
        raise ShapeError("pivot index must be >= 0")
    if n <= m:
        raise ShapeError(f"degree {n} must exceed the pivot index {m}")
    if nums[n] <= 0:
        raise ShapeError("leading coefficient must be positive")
    if nums[m] >= 0:
        raise ShapeError(f"coefficient of degree {m} must be strictly negative")
    for i in range(m):
        if nums[i] > 0:
            raise ShapeError(f"coefficient of degree {i} must be <= 0")
    for i in range(m + 1, n):
        if nums[i] < 0:
            raise ShapeError(f"coefficient of degree {i} must be >= 0")


def sign_criterion(p: Polynomial, m: int, probe: Fraction | int) -> SignKind:
    """Classify the sign of ``p`` on (0, probe) / (probe, oo) from one evaluation.

    ``p`` must have one nonpositive coefficient block at degrees 0..m (with
    the degree-m coefficient strictly negative), nonnegative coefficients at
    degrees m+1..n-1, and positive leading coefficient.  Such a polynomial is
    negative near 0, has exactly one positive root, and is positive beyond
    it, so p(probe) > 0 proves p > 0 on (probe, oo), p(probe) < 0 proves
    p < 0 on (0, probe), and p(probe) == 0 makes the probe the crossing.
    """
    probe = _rat(probe)
    if probe <= 0:
        raise ValueError("probe must be positive")
    _check_shape(p, m)

    value = p(probe)
    if value > 0:
        return SignKind.ALL_POSITIVE_ON_INTERVAL
    if value < 0:
        return SignKind.ALL_NEGATIVE_ON_INTERVAL
    return SignKind.SINGLE_CROSSING
