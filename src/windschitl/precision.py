"""Configurable-precision real arithmetic and reference special functions.

``PrecisionReal`` wraps mpmath's low-level ``libmp`` layer: every value
carries its working precision in bits and every operation rounds to
nearest at that precision.  No global precision state exists, values are
immutable, and all functions here are pure, so concurrent use is safe.

The module also provides the ground-truth oracles ``ln_gamma_ref`` and
``trigamma_ref``: upward argument shifting followed by the divergent
asymptotic series truncated where its terms still decrease, so the
remainder is bounded in magnitude by the first omitted term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from mpmath import libmp

from .exact import bernoulli

__all__ = [
    "MIN_PRECISION_BITS",
    "DomainError",
    "PrecisionError",
    "PrecisionReal",
    "OracleConfig",
    "working_argument",
    "exp",
    "ln",
    "sqrt",
    "sinh",
    "tanh",
    "pi",
    "ln_gamma_ref",
    "trigamma_ref",
    "format_sci",
    "round_decimal",
]

MIN_PRECISION_BITS = 64
_RND = "n"  # round to nearest even, everywhere
_LOG2_10 = 3.321928094887362


class DomainError(ValueError):
    """Argument outside a function's real domain (never a silent NaN)."""


class PrecisionError(ArithmeticError):
    """The requested accuracy cannot be delivered with the given configuration."""


def bits_for_digits(digits: int) -> int:
    """Bits needed to carry ``digits`` significant decimal digits, with headroom."""
    return int(digits * _LOG2_10) + 8


class PrecisionReal:
    """Immutable real number with an explicit precision in bits (>= 64).

    Arithmetic between two values rounds to nearest at the larger of the
    two precisions; int and Fraction operands are absorbed at the other
    operand's precision.  Comparisons are exact (no rounding), including
    against int and Fraction.
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
                raw = libmp.from_rational(value.numerator, value.denominator, prec, _RND)
            elif isinstance(value, str):
                raw = libmp.from_str(value, prec, _RND)
            elif isinstance(value, float):
                raw = libmp.mpf_pos(libmp.from_float(value), prec, _RND)
            else:
                raise TypeError(f"cannot build PrecisionReal from {type(value).__name__}")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PrecisionReal is immutable")

    @classmethod
    def _wrap(cls, raw: tuple, prec: int) -> PrecisionReal:
        obj = object.__new__(cls)
        object.__setattr__(obj, "raw", raw)
        object.__setattr__(obj, "prec", prec)
        return obj

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> PrecisionReal | None:
        if isinstance(other, PrecisionReal):
            return other
        if isinstance(other, (int, Fraction)):
            return PrecisionReal(Fraction(other), self.prec)
        return None

    def _binary(self, other, fn):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        prec = max(self.prec, rhs.prec)
        return PrecisionReal._wrap(fn(self.raw, rhs.raw, prec, _RND), prec)

    def __add__(self, other):
        return self._binary(other, libmp.mpf_add)

    def __radd__(self, other):
        return self._binary(other, lambda a, b, p, r: libmp.mpf_add(b, a, p, r))

    def __sub__(self, other):
        return self._binary(other, libmp.mpf_sub)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b, p, r: libmp.mpf_sub(b, a, p, r))

    def __mul__(self, other):
        return self._binary(other, libmp.mpf_mul)

    def __rmul__(self, other):
        return self._binary(other, lambda a, b, p, r: libmp.mpf_mul(b, a, p, r))

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if libmp.mpf_sign(rhs.raw) == 0:
            raise ZeroDivisionError("division by zero")
        prec = max(self.prec, rhs.prec)
        return PrecisionReal._wrap(libmp.mpf_div(self.raw, rhs.raw, prec, _RND), prec)

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs / self

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            if exponent < 0 and libmp.mpf_sign(self.raw) == 0:
                raise ZeroDivisionError("zero to a negative power")
            return PrecisionReal._wrap(
                libmp.mpf_pow_int(self.raw, exponent, self.prec, _RND), self.prec
            )
        rhs = self._coerce(exponent)
        if rhs is None:
            return NotImplemented
        if libmp.mpf_sign(self.raw) <= 0:
            raise DomainError("real power needs a positive base")
        prec = max(self.prec, rhs.prec)
        return PrecisionReal._wrap(libmp.mpf_pow(self.raw, rhs.raw, prec, _RND), prec)

    def __neg__(self):
        return PrecisionReal._wrap(libmp.mpf_neg(self.raw), self.prec)

    def __abs__(self):
        return PrecisionReal._wrap(libmp.mpf_abs(self.raw), self.prec)

    def __bool__(self) -> bool:
        return libmp.mpf_sign(self.raw) != 0

    # -- exact comparisons ----------------------------------------------

    def _cmp(self, other) -> int | None:
        if isinstance(other, PrecisionReal):
            return libmp.mpf_cmp(self.raw, other.raw)
        if isinstance(other, (int, Fraction)):
            diff = self.to_fraction() - other
            return (diff > 0) - (diff < 0)
        return None

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    __hash__ = None  # mixed-precision equality is value-based; hashing is a trap

    @property
    def sign(self) -> int:
        return libmp.mpf_sign(self.raw)

    # -- conversions -----------------------------------------------------

    def to_fraction(self) -> Fraction:
        """Exact rational value of this binary float."""
        p, q = libmp.to_rational(self.raw)
        return Fraction(int(p), int(q))

    def to_float(self) -> float:
        return libmp.to_float(self.raw)

    __float__ = to_float

    def to_decimal_string(self, digits: int) -> str:
        """Decimal string with ``digits`` significant digits."""
        return libmp.to_str(self.raw, digits)

    def __repr__(self) -> str:
        digits = max(1, int(self.prec / _LOG2_10) - 2)
        return f"PrecisionReal('{self.to_decimal_string(digits)}', prec={self.prec})"

    def __str__(self) -> str:
        return self.to_decimal_string(max(1, int(self.prec / _LOG2_10) - 2))


def _check_prec(prec) -> None:
    if not isinstance(prec, int) or prec < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be an int >= {MIN_PRECISION_BITS} bits, got {prec}")


# ---------------------------------------------------------------------------
# Elementary functions (2 ulp at the argument's stated precision)
# ---------------------------------------------------------------------------


def exp(x: PrecisionReal) -> PrecisionReal:
    return PrecisionReal._wrap(libmp.mpf_exp(x.raw, x.prec, _RND), x.prec)


def ln(x: PrecisionReal) -> PrecisionReal:
    if x.sign <= 0:
        raise DomainError("ln needs a positive argument")
    return PrecisionReal._wrap(libmp.mpf_log(x.raw, x.prec, _RND), x.prec)


def sqrt(x: PrecisionReal) -> PrecisionReal:
    if x.sign < 0:
        raise DomainError("sqrt needs a nonnegative argument")
    return PrecisionReal._wrap(libmp.mpf_sqrt(x.raw, x.prec, _RND), x.prec)


def sinh(x: PrecisionReal) -> PrecisionReal:
    return PrecisionReal._wrap(libmp.mpf_sinh(x.raw, x.prec, _RND), x.prec)


def tanh(x: PrecisionReal) -> PrecisionReal:
    return PrecisionReal._wrap(libmp.mpf_tanh(x.raw, x.prec, _RND), x.prec)


def pi(prec: int) -> PrecisionReal:
    _check_prec(prec)
    return PrecisionReal._wrap(libmp.mpf_pi(prec, _RND), prec)


@lru_cache(maxsize=None)
def _ln_sqrt_two_pi_raw(prec: int) -> tuple:
    two_pi = libmp.mpf_mul_int(libmp.mpf_pi(prec + 8, _RND), 2, prec + 8, _RND)
    return libmp.mpf_shift(libmp.mpf_log(two_pi, prec, _RND), -1)


def ln_sqrt_two_pi(prec: int) -> PrecisionReal:
    """ln sqrt(2*pi) at the given precision (cached)."""
    _check_prec(prec)
    return PrecisionReal._wrap(_ln_sqrt_two_pi_raw(prec), prec)


# ---------------------------------------------------------------------------
# Deterministic decimal rendering
# ---------------------------------------------------------------------------


def _to_exact_fraction(value) -> Fraction:
    if isinstance(value, PrecisionReal):
        return value.to_fraction()
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot render {type(value).__name__}")


def format_sci(value, sig_digits: int) -> str:
    """Scientific notation rounded to ``sig_digits`` significant digits.

    The one canonical form used everywhere: mantissa ``d.dd...``, ``E``,
    signed unpadded exponent (e.g. ``2.40663E-5``; values representable
    in fewer digits print without trailing zeros).  Rendering goes
    through exact rationals, so equal values always print identically.
    """
    if sig_digits < 1:
        raise ValueError("need at least one significant digit")
    fr = _to_exact_fraction(value)
    if fr == 0:
        return "0E+0"
    with localcontext() as ctx:
        ctx.prec = sig_digits
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return f"{d:E}"


def round_decimal(value, places: int) -> Decimal:
    """Exact half-even rounding to a fixed number of decimal places."""
    fr = _to_exact_fraction(value)
    with localcontext() as ctx:
        ctx.prec = places + 30
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
        return d.quantize(Decimal(1).scaleb(-places))


# ---------------------------------------------------------------------------
# Oracle configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleConfig:
    """Accuracy contract for the reference oracles: one number, the digits.

    Arithmetic runs with ``guard_digits`` extra digits.  Arguments below
    ``shift_threshold`` are shifted upward by the functional equation
    before the ``series_terms``-term asymptotic series is applied.
    """

    target_decimal_digits: int

    def __post_init__(self):
        if self.target_decimal_digits <= 0:
            raise ValueError("target_decimal_digits must be positive")

    @classmethod
    def for_digits(cls, digits: int) -> OracleConfig:
        """The oracle configuration for a target accuracy."""
        return cls(digits)

    @property
    def series_digits(self) -> int:
        """D, the accuracy the series is sized for: at least what 64 bits carry."""
        return max(self.target_decimal_digits, int(MIN_PRECISION_BITS / _LOG2_10))

    @property
    def shift_threshold(self) -> int:
        return (2 * self.series_digits + 29) // 5  # ceil(0.4 D + 5)

    @property
    def series_terms(self) -> int:
        return _series_terms(self.shift_threshold, self.series_digits)

    @property
    def guard_digits(self) -> int:
        return max(10, self.target_decimal_digits // 10)

    @property
    def precision_bits(self) -> int:
        return max(
            MIN_PRECISION_BITS,
            bits_for_digits(self.target_decimal_digits + self.guard_digits),
        )

    @property
    def tolerance(self) -> Fraction:
        """10^-target, the delivered absolute accuracy scale."""
        return Fraction(1, 10**self.target_decimal_digits)


DEFAULT_DIGITS = 50


def default_config() -> OracleConfig:
    return OracleConfig.for_digits(DEFAULT_DIGITS)


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


@lru_cache(maxsize=None)
def _validate_series(threshold: int, terms: int, target_digits: int) -> None:
    """Exact guard for the truncated asymptotic series.

    Checks, once per configuration, that (a) term magnitudes decrease
    through the truncation index for every argument >= threshold, and
    (b) the first omitted term at the threshold is below 10^-(target+5),
    for both the log-gamma series (terms B_2j / (2j(2j-1) y^(2j-1))) and
    the trigamma series (terms B_2j / y^(2j+1)).
    """
    t_sq = threshold * threshold
    budget = Fraction(1, 10 ** (target_digits + 5))
    n1 = terms + 1
    # the largest index first, so one Bernoulli pass fills the cache
    b_next = abs(bernoulli(2 * n1))
    for j in range(1, terms + 1):
        # the raw Bernoulli ratio dominates the log-gamma term ratio, so one
        # decrease check covers both series
        if abs(bernoulli(2 * j + 2)) > abs(bernoulli(2 * j)) * t_sq:
            raise PrecisionError(
                f"asymptotic terms stop decreasing at index {j + 1} for "
                f"threshold {threshold}; raise the threshold or lower series_terms"
            )
    lngamma_omitted = Fraction(b_next, (2 * n1) * (2 * n1 - 1)) / threshold ** (2 * n1 - 1)
    trigamma_omitted = Fraction(b_next) / threshold ** (2 * n1 + 1)
    if lngamma_omitted >= budget or trigamma_omitted >= budget:
        raise PrecisionError(
            f"first omitted series term at threshold {threshold} exceeds the "
            f"{target_digits}-digit accuracy target; raise series_terms or the threshold"
        )


@lru_cache(maxsize=None)
def _series_terms(threshold: int, target_digits: int) -> int:
    """Fewest terms whose first omitted term at the threshold is below
    10^-(target+5) in both series, estimated in floats with |B_2j| <=
    2 zeta(2) (2j)! / (2 pi)^(2j) (so never too few), then certified exactly."""
    ln_budget, ln_t = -(target_digits + 5) * math.log(10), math.log(threshold)
    terms = 1
    while True:
        m = 2 * (terms + 1)  # index of the first omitted Bernoulli number
        ln_b = math.log(math.pi**2 / 3) + math.lgamma(m + 1) - m * math.log(2 * math.pi)
        divisors = (math.log(m * (m - 1)) + (m - 1) * ln_t, (m + 1) * ln_t)  # lngamma, trigamma
        if ln_b - min(divisors) < ln_budget:
            break
        terms += 1
    _validate_series(threshold, terms, target_digits)
    return terms


@lru_cache(maxsize=None)
def _lngamma_series_coeffs(terms: int, prec: int) -> tuple[tuple, ...]:
    """B_2j / (2j(2j-1)) for j = terms..1, rounded once to ``prec`` bits."""
    coeffs = (bernoulli(2 * j) / (2 * j * (2 * j - 1)) for j in range(terms, 0, -1))
    return tuple(libmp.from_rational(c.numerator, c.denominator, prec, _RND) for c in coeffs)


@lru_cache(maxsize=None)
def _trigamma_series_coeffs(terms: int, prec: int) -> tuple[tuple, ...]:
    """B_2j for j = terms..1, rounded once to ``prec`` bits."""
    coeffs = (bernoulli(2 * j) for j in range(terms, 0, -1))
    return tuple(libmp.from_rational(c.numerator, c.denominator, prec, _RND) for c in coeffs)


def _horner(coeffs: tuple[tuple, ...], u: PrecisionReal, prec: int) -> PrecisionReal:
    """sum_j c_j u^(j-1) from raw coefficients given highest index first."""
    mpf_add, mpf_mul, ur = libmp.mpf_add, libmp.mpf_mul, u.raw
    acc = libmp.fzero
    for c in coeffs:
        acc = mpf_add(mpf_mul(acc, ur, prec, _RND), c, prec, _RND)
    return PrecisionReal._wrap(acc, prec)


def _shift(x: PrecisionReal, threshold: int, term) -> tuple[PrecisionReal, PrecisionReal]:
    """The oracles' upward shift: while y < threshold, add term(y) and step y + 1.

    Runs on raw values with every step rounded to nearest at ``x.prec``,
    as PrecisionReal arithmetic would; returns (y, the sum of the terms).
    """
    prec, mpf_add, fone = x.prec, libmp.mpf_add, libmp.fone
    stop = libmp.from_int(threshold)
    y, total = x.raw, libmp.fzero
    while libmp.mpf_cmp(y, stop) < 0:
        total = mpf_add(total, term(y), prec, _RND)
        y = mpf_add(y, fone, prec, _RND)
    return PrecisionReal._wrap(y, prec), PrecisionReal._wrap(total, prec)


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------


def ln_gamma_ref(x, cfg: OracleConfig | None = None) -> PrecisionReal:
    """ln Gamma(x) to cfg.target_decimal_digits, for real x > 0.

    Shifts upward with ln Gamma(x+1) = ln Gamma(x) + ln x until the
    argument reaches cfg.shift_threshold, then applies
    (y-1/2) ln y - y + ln sqrt(2 pi) + sum_j B_2j / (2j(2j-1) y^(2j-1)).
    The configuration's certified term count bounds the truncation
    remainder by the first omitted term, below the target accuracy.
    """
    cfg = cfg or default_config()
    x = working_argument(x, cfg)
    prec = x.prec
    if x.sign <= 0:
        raise DomainError("ln_gamma_ref needs x > 0")

    y, shifted_ln = _shift(x, cfg.shift_threshold, lambda v: libmp.mpf_log(v, prec, _RND))
    lny = ln(y)
    stirling = (y - Fraction(1, 2)) * lny - y + ln_sqrt_two_pi(prec)
    u = 1 / (y * y)
    stirling = stirling + _horner(_lngamma_series_coeffs(cfg.series_terms, prec), u, prec) / y
    return stirling - shifted_ln


def trigamma_ref(x, cfg: OracleConfig | None = None) -> PrecisionReal:
    """Trigamma psi'(x) to cfg.target_decimal_digits, for real x > 0.

    Uses the recurrence psi'(x) = psi'(x+1) + 1/x^2 to shift upward, then
    1/y + 1/(2 y^2) + sum_j B_2j / y^(2j+1) with the same truncation
    guarantee as :func:`ln_gamma_ref`.
    """
    cfg = cfg or default_config()
    x = working_argument(x, cfg)
    prec = x.prec
    if x.sign <= 0:
        raise DomainError("trigamma_ref needs x > 0")

    y, shifted = _shift(
        x,
        cfg.shift_threshold,
        lambda v: libmp.mpf_div(libmp.fone, libmp.mpf_mul(v, v, prec, _RND), prec, _RND),
    )
    u = 1 / (y * y)
    tail = _horner(_trigamma_series_coeffs(cfg.series_terms, prec), u, prec) * u / y
    return 1 / y + u / 2 + tail + shifted
