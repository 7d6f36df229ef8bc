"""Shared test helpers: independent oracles and generators.

The brute-force sign profile here deliberately avoids the logic of
``sign_criterion``: it scans a dense grid of exact rational points below
a root bound, demands a single minus-to-plus transition, and bisects
only the grid cell where the flip happened.  ``bernoulli_recursion`` is
the classical recursion, an oracle independent of the tangent numbers
behind ``bernoulli``.  ``FractionPolynomial`` is the polynomial
arithmetic with one ``Fraction`` per coefficient that ``Polynomial``
replaced with integer numerators over a common denominator; every
operation of the two must agree coefficient for coefficient.
``ln_gamma_per_step`` and ``trigamma_per_step`` are
the reference oracles written in ``PrecisionReal`` arithmetic, one rounded
operation per step with every ``Fraction`` coefficient absorbed where it
is used; the integer kernels of ``precision`` must stay within the two
computations' stated rounding budgets of them.  ``exact_series_sum`` is
the Stirling series summed exactly in integers, the reference for the
fixed-point series kernel.  ``floor_log2``, ``series_fixed_fractions``
and ``validate_series_fractions`` are the Stirling-series set-up on
reduced ``Fraction`` Bernoulli numbers, with the truncation bounds
stated from the value; the integer set-up from tangent numbers must give
the same tables and the same verdicts.  ``tangent_from_recursion`` is T_k recovered from
``bernoulli_recursion``.  ``expm1_reference`` is
``mpmath.expm1`` at twice the precision, and ``ulps_off`` measures a
value against a reference in ulps.  ``format_sci_decimal``
is ``format_sci`` as ``Decimal`` division at ``sig_digits`` of context
precision, the reference for its integer rounding.  ``exact_fraction`` and
``format_sci_fraction`` are the renderer as it was written on exact
``Fraction``s, and ``decimal_string_reference`` rounds a ``Fraction`` the
same way and lets mpmath's ``to_str`` lay the rounded decimal out: the
one integer rounding routine behind every printed number must give their
strings.  The ``fresh_memos``
fixture empties the kernel memos around a test that counts or patches
what lies below them.  ``reference_operator`` is ``PrecisionReal``
arithmetic by the rule its operators first had: turn the operand into a
``PrecisionReal``, take the larger precision, make the ``libmp`` call
(comparisons are exact); the operators must give its bits, exceptions and
``NotImplemented``.
"""

from __future__ import annotations

import functools
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import comb, floor, log10

import mpmath
import pytest
from mpmath import libmp

from windschitl import (
    OracleConfig,
    Polynomial,
    PrecisionReal,
    SignKind,
    bernoulli,
    ln,
    sign_criterion,
)
from windschitl import formulas, precision
from windschitl.precision import _wrap, ln_sqrt_two_pi, working_argument

BRACKET_WIDTH = Fraction(1, 2**32)

# the memos of the ln Gamma kernel and the Windschitl core
MEMOS = (precision._ln_gamma, formulas._windschitl_core)


@pytest.fixture
def fresh_memos():
    """Empty the kernel memos before and after the test: a test that counts
    or patches what lies below them then sees every evaluation, and leaves
    no value computed under a patch behind for later tests."""
    for memo in MEMOS:
        memo.cache_clear()
    yield MEMOS
    for memo in MEMOS:
        memo.cache_clear()


def bits(v):
    """A value's exact identity: its raw libmp tuple and its precision, or a
    fixed-point kernel's integer itself."""
    return (v.raw, v.prec) if isinstance(v, PrecisionReal) else v


def ulps_off(got: PrecisionReal, want: Fraction) -> Fraction:
    """|got - want| in units of the last place of want at got's precision."""
    if not want:
        return Fraction(0 if not got else 1)
    exponent = abs(want).numerator.bit_length() - abs(want).denominator.bit_length()
    if abs(want) < Fraction(2) ** exponent:
        exponent -= 1  # now 2^exponent <= |want| < 2^(exponent+1)
    return abs(got.to_fraction() - want) / Fraction(2) ** (exponent + 1 - got.prec)


def expm1_reference(x: PrecisionReal) -> Fraction:
    """exp(x) - 1 from mpmath at twice the precision of x, exactly as a Fraction."""
    with mpmath.workprec(2 * x.prec):
        return Fraction(*(int(v) for v in libmp.to_rational(mpmath.expm1(mpmath.mpf(x.raw))._mpf_)))


# name: (libmp function, whether the operands are swapped)
_REFERENCE_BINARY = {
    "__add__": (libmp.mpf_add, False),
    "__radd__": (libmp.mpf_add, True),
    "__sub__": (libmp.mpf_sub, False),
    "__rsub__": (libmp.mpf_sub, True),
    "__mul__": (libmp.mpf_mul, False),
    "__rmul__": (libmp.mpf_mul, True),
    "__truediv__": (libmp.mpf_div, False),
    "__rtruediv__": (libmp.mpf_div, True),
}
_REFERENCE_COMPARISONS = {
    "__eq__": lambda c: c == 0,
    "__lt__": lambda c: c < 0,
    "__le__": lambda c: c <= 0,
    "__gt__": lambda c: c > 0,
    "__ge__": lambda c: c >= 0,
}
REFERENCE_OPERATORS = (*_REFERENCE_BINARY, "__pow__", "__neg__", "__abs__", *_REFERENCE_COMPARISONS)


def _as_precision_real(other, prec: int) -> PrecisionReal | None:
    """other itself, an int or Fraction rounded to nearest at prec, or None."""
    if isinstance(other, PrecisionReal):
        return other
    if isinstance(other, int):
        return _wrap(libmp.from_int(other, prec, "n"), prec)
    if isinstance(other, Fraction):
        return _wrap(libmp.from_rational(other.numerator, other.denominator, prec, "n"), prec)
    return None


def reference_operator(name: str, a: PrecisionReal, other=None):
    """What ``a.<name>(other)`` must give: a result, ``NotImplemented``, or
    the exception raised.  Comparisons are made on exact ``Fraction``s of
    both operands, an int or Fraction unrounded, as the operators compare."""
    if name == "__neg__":
        return _wrap(libmp.mpf_neg(a.raw), a.prec)
    if name == "__abs__":
        return _wrap(libmp.mpf_abs(a.raw), a.prec)
    if name == "__pow__":
        if not isinstance(other, int):
            return NotImplemented
        if other < 0 and libmp.mpf_sign(a.raw) == 0:
            raise ZeroDivisionError("zero to a negative power")
        return _wrap(libmp.mpf_pow_int(a.raw, other, a.prec, "n"), a.prec)
    b = _as_precision_real(other, a.prec)
    if b is None:
        return NotImplemented
    if name in _REFERENCE_COMPARISONS:
        diff = a.to_fraction() - (b.to_fraction() if other is b else Fraction(other))
        return _REFERENCE_COMPARISONS[name]((diff > 0) - (diff < 0))
    fn, swapped = _REFERENCE_BINARY[name]
    left, right = (b, a) if swapped else (a, b)
    if fn is libmp.mpf_div and libmp.mpf_sign(right.raw) == 0:
        raise ZeroDivisionError("division by zero")
    prec = max(a.prec, b.prec)
    return _wrap(fn(left.raw, right.raw, prec, "n"), prec)


_RECURSION_VALUES = [Fraction(1)]


def bernoulli_recursion(n: int) -> Fraction:
    """B_n from the recursion sum_{k=0}^{n} C(n+1, k) B_k = 0 with B_0 = 1.

    O(n^2) ``Fraction`` operations; every value up to ``n`` is memoised,
    so ascending calls each pay only for the new indices.
    """
    while len(_RECURSION_VALUES) <= n:
        m = len(_RECURSION_VALUES)
        acc = sum(comb(m + 1, k) * _RECURSION_VALUES[k] for k in range(m))
        _RECURSION_VALUES.append(-acc / (m + 1))
    return _RECURSION_VALUES[n]


def tangent_from_recursion(k: int) -> int:
    """T_k = |B_2k| 4^k (4^k - 1) / (2k) for k >= 1, from the recursion, and T_0 = 0."""
    if k == 0:
        return 0
    t = abs(bernoulli_recursion(2 * k)) * 4**k * (4**k - 1) / (2 * k)
    assert t.denominator == 1
    return t.numerator


class FractionPolynomial:
    """Dense polynomial as a tuple of ``Fraction`` coefficients, degree 0
    upward, trailing zeros stripped; every operation works coefficient by
    coefficient in ``Fraction`` arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return FractionPolynomial(cs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FractionPolynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPolynomial(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return FractionPolynomial()
        cs = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                cs[i + j] += a * b
        return FractionPolynomial(cs)

    def __pow__(self, n):
        result = FractionPolynomial((1,))
        for _ in range(n):
            result = result * self
        return result

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return FractionPolynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def compose(self, inner):
        acc = FractionPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + FractionPolynomial((c,))
        return acc

    def reciprocal_substitution(self, degree):
        padded = self.coeffs + (Fraction(0),) * (degree + 1 - len(self.coeffs))
        return FractionPolynomial(padded[::-1])

    def divided_by_power(self, k):
        assert not any(self.coeffs[:k])
        return FractionPolynomial(self.coeffs[k:])


def lngamma_series_fractions(terms: int) -> list[Fraction]:
    """B_2j / (2j(2j-1)) for j = 1..terms, exact."""
    return [bernoulli(2 * j) / (2 * j * (2 * j - 1)) for j in range(1, terms + 1)]


def trigamma_series_fractions(terms: int) -> list[Fraction]:
    """B_2j for j = 1..terms, exact."""
    return [bernoulli(2 * j) for j in range(1, terms + 1)]


def floor_log2(c: Fraction) -> int:
    """floor(log2 |c|) of a nonzero rational, decided by one Fraction comparison."""
    e = abs(c.numerator).bit_length() - c.denominator.bit_length()
    return e if abs(c) >= Fraction(2) ** e else e - 1


def series_fixed_fractions(series: str, terms: int, frac_bits: int, step: int):
    """``precision._series_fixed`` on Fractions: each c_j reduced, rounded
    as floor(c_j 2^(F - s(j-1)) + 1/2), and each bound from L_j = F +
    floor(log2 |c_j|) + 1: for m = terms-1..1, the least e2 from which
    some m' <= m terms suffice, L_(m'+1) // m' + 1."""
    coeffs = (lngamma_series_fractions if series == "lngamma" else trigamma_series_fractions)(terms)
    rounded = [floor(c * Fraction(2) ** (frac_bits - step * (j - 1)) + Fraction(1, 2))
               for j, c in zip(range(terms, 0, -1), reversed(coeffs))]
    least = [(frac_bits + floor_log2(coeffs[j - 1]) + 1) // (j - 1) + 1 for j in range(2, terms + 1)]
    bounds = [min(least[:m]) for m in range(terms - 1, 0, -1)]
    return tuple(rounded), tuple(bounds)


def validate_series_fractions(threshold: int, terms: int, target_digits: int) -> None:
    """``precision._validate_series`` on reduced Fraction Bernoulli numbers,
    with its messages."""
    from windschitl.precision import PrecisionError

    for j in range(1, terms + 1):
        if abs(bernoulli(2 * j + 2)) > abs(bernoulli(2 * j)) * threshold**2:
            raise PrecisionError(
                f"asymptotic terms stop decreasing at index {j + 1} for "
                f"threshold {threshold}; raise the threshold or lower series_terms"
            )
    n1, budget = terms + 1, Fraction(1, 10 ** (target_digits + 5))
    b_next = abs(bernoulli(2 * n1))
    lngamma_omitted = b_next / ((2 * n1) * (2 * n1 - 1)) / threshold ** (2 * n1 - 1)
    trigamma_omitted = b_next / threshold ** (2 * n1 + 1)
    if lngamma_omitted >= budget or trigamma_omitted >= budget:
        raise PrecisionError(
            f"first omitted series term at threshold {threshold} exceeds the "
            f"{target_digits}-digit accuracy target; raise series_terms or the threshold"
        )


def exact_series_sum(numerators: list[int], den: int, y: Fraction) -> tuple[int, int]:
    """sum_j (numerators[j-1] / den) / y^(2(j-1)) at a dyadic y > 0, exactly,
    as an unreduced (numerator, denominator).

    With y = o 2^e, o odd, 1/y^2 = 2^(down-up) / o^2, where up = max(2e, 0)
    and down = max(-2e, 0).  Times den (o^2 2^up)^(T-1), the sum is the
    integer sum_j numerators[j-1] 2^(down(j-1)) (o^2 2^up)^(T-j), evaluated
    by halves so that every power of two is a shift.  At thousands of
    digits and a large y it has millions of bits, so it is not reduced
    to lowest terms.
    """
    o, zeros = y.numerator, y.numerator & -y.numerator
    o, e = o // zeros, zeros.bit_length() - y.denominator.bit_length()
    up, down = max(2 * e, 0), max(-2 * e, 0)
    o2, terms = o * o, len(numerators)
    # scaled[i] multiplies (o^2 2^up)^i
    scaled = [num << (down * j) for j, num in enumerate(numerators)][::-1]

    def at(lo: int, hi: int) -> int:  # sum_{lo <= i < hi} scaled[i] (o^2 2^up)^(i-lo)
        if hi - lo == 1:
            return scaled[lo]
        mid = (lo + hi) // 2
        return at(lo, mid) + ((at(mid, hi) * o2 ** (mid - lo)) << (up * (mid - lo)))

    return at(0, terms), (den * o2 ** (terms - 1)) << (up * (terms - 1))


def horner_per_step(coeffs: list[Fraction], u: PrecisionReal, prec: int) -> PrecisionReal:
    """sum_j c_j u^(j-1), each Fraction coefficient rounded where it is added."""
    acc = PrecisionReal(0, prec)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def ln_gamma_per_step(x, cfg: OracleConfig) -> PrecisionReal:
    """``ln_gamma_ref`` in PrecisionReal arithmetic: shift, Stirling, Horner."""
    x = working_argument(x, cfg)
    prec = x.prec
    shifted_ln = PrecisionReal(0, prec)
    y = x
    while y < cfg.shift_threshold:
        shifted_ln = shifted_ln + ln(y)
        y = y + 1
    stirling = (y - Fraction(1, 2)) * ln(y) - y + ln_sqrt_two_pi(prec)
    u = 1 / (y * y)
    series = horner_per_step(lngamma_series_fractions(cfg.series_terms), u, prec)
    return stirling + series / y - shifted_ln


def trigamma_per_step(x, cfg: OracleConfig) -> PrecisionReal:
    """``trigamma_ref`` in PrecisionReal arithmetic: shift, then the series."""
    x = working_argument(x, cfg)
    prec = x.prec
    shifted = PrecisionReal(0, prec)
    y = x
    while y < cfg.shift_threshold:
        shifted = shifted + 1 / (y * y)
        y = y + 1
    u = 1 / (y * y)
    tail = horner_per_step(trigamma_series_fractions(cfg.series_terms), u, prec) * u / y
    return 1 / y + u / 2 + tail + shifted


def random_shaped_polynomial(rng: random.Random) -> tuple[Polynomial, int]:
    """A random polynomial matching the single-probe criterion's shape.

    Degree <= 12; one nonpositive coefficient block at low degrees (strictly
    negative at its top), nonnegative elsewhere, positive leading term; a
    sprinkling of exact zeros on both sides.
    """
    n = rng.randint(2, 12)
    m = rng.randint(0, n - 1)
    coeffs: list[Fraction] = []
    for i in range(n + 1):
        if i == n:
            c = Fraction(rng.randint(1, 40), rng.choice((1, 2, 3)))
        elif i == m:
            c = -Fraction(rng.randint(1, 40), rng.choice((1, 2, 3)))
        elif i < m:
            c = Fraction(0) if rng.random() < 0.3 else -Fraction(rng.randint(0, 30), rng.choice((1, 2)))
        else:
            c = Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(0, 30), rng.choice((1, 2)))
        coeffs.append(c)
    return Polynomial(coeffs), m


def positive_root_bound(p: Polynomial) -> Fraction:
    """Cauchy bound: every real root is below 1 + max|c_i| / |leading|."""
    body = p.coeffs[:-1]
    if not body:
        return Fraction(2)
    return 1 + max(abs(c) for c in body) / abs(p.coefficient(p.degree))


def brute_force_sign_profile(
    p: Polynomial, n_points: int = 1000
) -> tuple[Fraction, Fraction]:
    """Locate the unique sign change of a shaped polynomial by dense scan.

    Evaluates at n_points exact rational abscissas up to the root bound,
    asserts the profile is (negatives)(single flip)(positives), and
    bisects the flip cell down to BRACKET_WIDTH.  Returns the bracket.
    """
    bound = positive_root_bound(p)
    step = bound / n_points
    prev_x, prev_v = None, None
    flip: tuple[Fraction, Fraction] | None = None
    for k in range(1, n_points + 1):
        x = k * step
        v = p(x)
        if v == 0:
            assert flip is None, "second crossing found"
            flip = (x, x)
        elif v > 0:
            if flip is None:
                assert prev_v is not None and prev_v < 0, "profile must start negative"
                flip = (prev_x, x)
        else:
            assert flip is None, "negative value after a crossing"
        if v != 0:
            prev_x, prev_v = x, v
    assert flip is not None, "no crossing below the root bound"
    lo, hi = flip
    if lo == hi:
        return flip
    while hi - lo > BRACKET_WIDTH:
        mid = (lo + hi) / 2
        v = p(mid)
        if v == 0:
            return (mid, mid)
        if v < 0:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


@functools.lru_cache(maxsize=None)
def assert_sign_criterion_matches_brute_force(cases: int = 100, seed: int = 20240817) -> None:
    """Check ``sign_criterion`` against the dense scan on random shaped polynomials.

    The returned kind must agree with the sign at the probe, and the scan's
    bracket around the unique crossing must lie on the side of the probe
    that kind claims.  A failed assertion names the polynomial, its pivot
    ``m`` and the probe.

    A passing comparison is cached, so the tests that call it with the same
    ``cases`` and ``seed`` share one run per session; a failing one is not
    cached and raises again in every caller.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        p, m = random_shaped_polynomial(rng)
        probe = Fraction(rng.randint(1, 400), rng.randint(1, 200))
        case = f"p = {p!r}, m = {m}, probe = {probe}"
        kind = sign_criterion(p, m, probe)
        oracle_lo, oracle_hi = brute_force_sign_profile(p)
        value = p(probe)
        if value > 0:
            assert kind is SignKind.ALL_POSITIVE_ON_INTERVAL, f"{kind} for {case}"
            assert oracle_lo <= probe, f"probe below the crossing for {case}"
        elif value < 0:
            assert kind is SignKind.ALL_NEGATIVE_ON_INTERVAL, f"{kind} for {case}"
            assert oracle_hi >= probe, f"probe above the crossing for {case}"
        else:
            assert kind is SignKind.SINGLE_CROSSING, f"{kind} for {case}"


def exact_fraction(value) -> Fraction:
    """The exact value of a PrecisionReal, int or Fraction."""
    return value.to_fraction() if isinstance(value, PrecisionReal) else Fraction(value)


def _round_half_even(num: int, den: int) -> tuple[int, bool]:
    """(num / den rounded half-even to an integer, whether it was exact), den > 0."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q, r == 0


def _rounded_digits(fr: Fraction, digits: int) -> tuple[int, int, bool]:
    """(q, e, exact): |fr| != 0 rounded half-even to ``digits`` significant
    digits as q 10^(e + 1 - digits), q of exactly ``digits`` digits."""
    num, den = abs(fr.numerator), fr.denominator
    # e = floor(log10 |fr|): the float estimate is off by at most one, and
    # one exact comparison of |fr| with 10^e and 10^(e+1) settles it
    e = floor(log10(num) - log10(den))
    scale = Fraction(10) ** e
    e += (abs(fr) >= 10 * scale) - (abs(fr) < scale)
    # |value| 10^k has exactly digits digits before the point
    k = digits - 1 - e
    if k >= 0:
        q, exact = _round_half_even(num * 10**k, den)
    else:
        q, exact = _round_half_even(num, den * 10**-k)
    if q == 10**digits:
        q, e = q // 10, e + 1
    return q, e, exact


def format_sci_fraction(value, sig_digits: int) -> str:
    """``format_sci`` on the exact Fraction, half-even at ``sig_digits``."""
    if sig_digits < 1:
        raise ValueError("need at least one significant digit")
    fr = exact_fraction(value)
    if fr == 0:
        return "0E+0"
    q, e, exact = _rounded_digits(fr, sig_digits)
    k = sig_digits - 1 - e
    if exact:
        # an exact value keeps no trailing zero below its units digit, as Decimal
        while k > 0 and q % 10 == 0:
            q, k = q // 10, k - 1
    digits = str(q)
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{'-' if fr < 0 else ''}{mantissa}E{e:+d}"


def decimal_string_reference(value, digits: int) -> str:
    """``to_decimal_string``'s reference: the exact value rounded half-even
    to ``digits`` significant digits, laid out by mpmath's ``to_str`` from a
    binary float of 4 digits + 64 bits nearest that decimal, whose digits
    past the rounded ones read 000... or 999..., so to_str keeps them."""
    fr = exact_fraction(value)
    if fr == 0:
        return libmp.to_str(libmp.fzero, digits)
    q, e, _ = _rounded_digits(fr, digits)
    rounded = Fraction(-q if fr < 0 else q) * Fraction(10) ** (e + 1 - digits)
    raw = libmp.from_rational(rounded.numerator, rounded.denominator, 4 * digits + 64, "n")
    return libmp.to_str(raw, digits)


def format_sci_decimal(value, sig_digits: int) -> str:
    """Scientific notation by ``Decimal`` division, half-even at ``sig_digits``."""
    if sig_digits < 1:
        raise ValueError("need at least one significant digit")
    fr = exact_fraction(value)
    if fr == 0:
        return "0E+0"
    with localcontext() as ctx:
        ctx.prec = sig_digits
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return f"{d:E}"
