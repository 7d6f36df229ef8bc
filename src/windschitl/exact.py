"""Exact big-integer, rational, and polynomial arithmetic.

Everything in this module is exact: scalars are ``fractions.Fraction``
(always canonical: positive denominator, gcd 1) and no operation ever
rounds.  This is the substrate used to certify coefficient tables,
rational-function identities, and polynomial sign claims; approximate
arithmetic lives in :mod:`windschitl.precision`.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "bernoulli",
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

_bernoulli_lock = threading.Lock()
_bernoulli_cache: list[Fraction] = []


def _bernoulli_table(m: int) -> list[Fraction]:
    """B_0 .. B_(2m+1), the even indices from the tangent numbers T_1 .. T_m.

    Brent and Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers" (2011): integer recurrences give T_k, and
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) exactly.
    """
    t = [0, 1] + [0] * (m - 1)  # t[k] = T_k
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    table = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, m + 1):
        four_k = 1 << (2 * k)
        b = Fraction(2 * k * t[k], four_k * (four_k - 1))
        table += (b if k % 2 else -b, Fraction(0))
    return table


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, convention B_1 = -1/2.

    Computed exactly from integer tangent numbers.  One pass yields every
    index up to its limit and cannot be extended, so a cache miss at least
    doubles the cached range; a caller that needs many indices should ask
    for the largest first.  The cache is guarded so concurrent callers
    always observe the same values.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n >= len(_bernoulli_cache):
        with _bernoulli_lock:
            size = len(_bernoulli_cache)
            if n >= size:
                _bernoulli_cache.extend(_bernoulli_table(max(n, 2 * size) // 2)[size:])
    return _bernoulli_cache[n]


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients run from degree 0 upward; trailing zeros are stripped on
    construction, so the leading coefficient is nonzero unless the
    polynomial is identically zero (stored as the empty tuple).
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> Polynomial:
        return cls(())

    @classmethod
    def constant(cls, c: Fraction | int) -> Polynomial:
        return cls((c,))

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
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return Polynomial(cs)

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
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            s = _rat(other)
            return Polynomial(tuple(c * s for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        cs = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    cs[i + j] += a * b
        return Polynomial(cs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return NotImplemented

    # -- evaluation and transforms --------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int arguments and generic
        for any value supporting ``+`` and ``*`` with Fractions."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> Polynomial:
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def compose(self, inner: Polynomial) -> Polynomial:
        """self(inner(t)), exact."""
        acc = Polynomial.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(c)
        return acc

    def reciprocal_substitution(self, degree: int | None = None) -> Polynomial:
        """The polynomial t^d * self(1/t), with d >= deg(self) (default deg)."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("substitution degree must be >= polynomial degree")
        padded = self.coeffs + (Fraction(0),) * (d + 1 - len(self.coeffs))
        return Polynomial(padded[::-1])

    def divided_by_power(self, k: int) -> Polynomial:
        """Exact division by t^k; raises if any coefficient below degree k is nonzero."""
        if k < 0:
            raise ValueError("power must be >= 0")
        low = self.coeffs[:k]
        if any(low):
            raise ValueError(f"polynomial is not divisible by t^{k}")
        return Polynomial(self.coeffs[k:])

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        # polynomial-to-polynomial only, keeping __hash__ consistent
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*t^{i}" if i else str(c))
        return "Polynomial(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Exact quotient of two polynomials.

    The stored pair is not reduced (no polynomial gcd is ever computed);
    equality is decided by exact cross-multiplication, which is invariant
    under common polynomial factors.
    """

    __slots__ = ("num", "den")

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
    n = p.degree
    if m < 0:
        raise ShapeError("pivot index must be >= 0")
    if n <= m:
        raise ShapeError(f"degree {n} must exceed the pivot index {m}")
    if p.leading <= 0:
        raise ShapeError("leading coefficient must be positive")
    if p.coefficient(m) >= 0:
        raise ShapeError(f"coefficient of degree {m} must be strictly negative")
    for i in range(m):
        if p.coefficient(i) > 0:
            raise ShapeError(f"coefficient of degree {i} must be <= 0")
    for i in range(m + 1, n):
        if p.coefficient(i) < 0:
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
