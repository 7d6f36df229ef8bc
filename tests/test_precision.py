import ast
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, floor, lcm, log, prod
from pathlib import Path
from typing import NamedTuple

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from windschitl import (
    DomainError,
    OracleConfig,
    PrecisionError,
    PrecisionReal,
    exp,
    expm1,
    format_sci,
    ln,
    ln_gamma_ref,
    pi,
    sinh,
    sqrt,
    tanh,
    trigamma_ref,
)
from windschitl import formulas, precision
from windschitl.cli import main
from windschitl.exact import bernoulli
from windschitl.precision import (
    MIN_PRECISION_BITS,
    _LN_STEPS,
    _LN_SQRT_TWO_PI,
    _LOG_TABLE,
    _LOG_TABLE_BITS,
    _LOG_TABLE_Q,
    _ln10_fixed,
    _ln_fixed,
    _log_constant,
    _log_steps,
    _two_atanh_inverse,
    _MEMO_SIZE,
    _SERIES_TABLES,
    _fixed_bits,
    _inverse_square_sum,
    _ln_gamma,
    _rising_product,
    _series_fixed,
    _series_terms,
    _shift_steps,
    _stirling_fixed,
    _stirling_series,
    _terms_needed,
    _times_log,
    _validate_series,
    _wrap,
    exp_decimal_string,
    _LOG1P_SERIES_TERMS,
    _PRINTABLE_BITS,
    _rational_raw,
    _round_ratio,
    ln_sqrt_two_pi,
    log1p,
    working_argument,
)

from support import (
    MEMOS,
    bits,
    decimal_string_reference,
    exact_series_sum,
    expm1_reference,
    floor_log2,
    format_sci_decimal,
    format_sci_fraction,
    fresh_memos,
    horner_per_step,
    ln_gamma_per_step,
    lngamma_series_fractions,
    reference_operator,
    REFERENCE_OPERATORS,
    _rounded_digits,
    series_fixed_fractions,
    trigamma_per_step,
    trigamma_series_fractions,
    ulps_off,
    validate_series_fractions,
)

CFG50 = OracleConfig.for_digits(50)
TOL50 = Fraction(1, 10**50)


def frac(v: PrecisionReal) -> Fraction:
    return v.to_fraction()


# ---------------------------------------------------------------------------
# mpmath's libmp, loaded alone
# ---------------------------------------------------------------------------


def test_the_installed_libmp_imports_nothing_of_mpmath_outside_itself():
    # precision runs libmp's files as a package of its own; an import of
    # mpmath or one that climbs out of libmp would load all of mpmath or fail
    directory = Path(precision.libmp.__file__).parent
    assert directory == Path(libmp.__file__).parent
    escapes = []
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom) and node.level >= 2:
                escapes.append(f"{path}:{node.lineno}: relative import of level {node.level}")
                continue
            else:
                continue
            escapes += [f"{path}:{node.lineno}: imports {name}" for name in names if name.split(".")[0] == "mpmath"]
    assert not escapes, "\n".join(escapes)
    assert precision.libmp is not libmp
    assert precision.libmp.BACKEND == libmp.BACKEND


def test_a_missing_mpmath_raises_module_not_found_naming_it():
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "try:\n"
        "    import windschitl\n"
        "except ModuleNotFoundError as e:\n"
        "    print(e.name)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "mpmath\n"


# ---------------------------------------------------------------------------
# PrecisionReal semantics
# ---------------------------------------------------------------------------


def test_minimum_precision_is_enforced():
    with pytest.raises(ValueError):
        PrecisionReal(1, 32)
    PrecisionReal(1, 64)  # boundary is allowed


def test_construction_is_exact_where_possible():
    assert frac(PrecisionReal(7, 64)) == 7
    assert frac(PrecisionReal(0.5, 64)) == Fraction(1, 2)
    assert frac(PrecisionReal(Fraction(3, 4), 64)) == Fraction(3, 4)
    assert frac(PrecisionReal("2.5", 64)) == Fraction(5, 2)


def test_inexact_rationals_round_at_stated_precision():
    lo = PrecisionReal(Fraction(1, 3), 64)
    hi = PrecisionReal(Fraction(1, 3), 200)
    assert abs(frac(lo) - Fraction(1, 3)) < Fraction(1, 2**60)
    assert abs(frac(hi) - Fraction(1, 3)) < Fraction(1, 2**196)
    assert frac(lo) != frac(hi)


def test_precision_propagates_as_the_max():
    a = PrecisionReal(1, 80)
    b = PrecisionReal(2, 128)
    assert (a + b).prec == 128
    assert (a * b).prec == 128
    assert (a / b).prec == 128
    assert (-a).prec == 80


def test_comparisons_are_exact_against_rationals():
    rng = random.Random(7)
    for _ in range(50):
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        v = PrecisionReal(q, 64)
        assert (v < q) == (frac(v) < q)
        assert (v > q) == (frac(v) > q)
        assert (v == q) == (frac(v) == q)


# integers and fractions of every sign, zero included, up to 400 bits: wider
# than most precisions drawn below, so absorbing them rounds
_RATIONALS = st.one_of(
    st.integers(min_value=-(2**400), max_value=2**400),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**400), max_value=2**400),
        st.integers(min_value=1, max_value=2**400),
    ),
)


@settings(max_examples=300, deadline=None)
@given(value=_RATIONALS, prec=st.integers(min_value=MIN_PRECISION_BITS, max_value=512))
def test_absorbed_rationals_round_as_one_correctly_rounded_division(value, prec):
    q = Fraction(value)
    want = libmp.from_rational(q.numerator, q.denominator, prec, "n")
    # 0 + q, q + 0 and 1 * q are exactly the absorbed operand, on either side
    zero, one = PrecisionReal(0, prec), PrecisionReal(1, prec)
    for absorbed in (zero + value, value + zero, one * value):
        assert bits(absorbed) == (want, prec)


@st.composite
def _comparison_cases(draw):
    """(x, a rational to compare it with): x of any sign with a binary
    exponent up to +-5000; the rational equal to x, zero, x moved by
    +-2^-k or scaled by 1 +- 2^-k, or unrelated, as an int where integral."""
    prec = draw(st.integers(min_value=MIN_PRECISION_BITS, max_value=256))
    man = draw(st.integers(min_value=-(2**300), max_value=2**300))
    exp = draw(st.integers(min_value=-5000, max_value=5000))
    x = PrecisionReal(Fraction(man) * Fraction(2) ** exp, prec)
    exact = x.to_fraction()
    nudge = Fraction(draw(st.sampled_from((-1, 1))), 2 ** draw(st.integers(0, 5500)))
    kind = draw(st.sampled_from(("equal", "zero", "nudged", "scaled", "unrelated")))
    if kind == "equal":
        q = exact
    elif kind == "zero":
        q = Fraction(0)
    elif kind == "nudged":
        q = exact + nudge
    elif kind == "scaled":
        q = exact * (1 + nudge)
    else:
        q = Fraction(draw(_RATIONALS))
    if q.denominator == 1 and draw(st.booleans()):
        return x, q.numerator
    return x, q


@settings(max_examples=300, deadline=None)
@given(case=_comparison_cases())
def test_comparisons_with_rationals_agree_with_exact_fraction_comparison(case):
    x, q = case
    exact = x.to_fraction()
    assert x._cmp(q) == (exact > q) - (exact < q)
    assert (x < q, x <= q, x == q, x >= q, x > q) == (
        exact < q, exact <= q, exact == q, exact >= q, exact > q
    )


class _Subclass(PrecisionReal):
    """A subclass operand: its precision counts as any PrecisionReal's."""

    __slots__ = ()


@st.composite
def _precision_reals(draw):
    """Zero or a dyadic value of either sign, 64 to 512 bits, some of a subclass."""
    prec = draw(st.integers(min_value=MIN_PRECISION_BITS, max_value=512))
    man = draw(st.one_of(st.just(0), st.integers(min_value=-(2**600), max_value=2**600)))
    value = Fraction(man, 2 ** draw(st.integers(min_value=0, max_value=700)))
    return draw(st.sampled_from((PrecisionReal, _Subclass)))(value, prec)


# every operand type, ints on both sides of 2^64, where the conversion
# switches libmp calls (2^64 + 1 rounds at 64 bits), and types the
# operators refuse
_OPERANDS = st.one_of(
    _precision_reals(),
    st.integers(min_value=-(2**400), max_value=2**400),
    st.integers(min_value=-300, max_value=300),
    st.sampled_from((2**64 - 1, 2**64, 2**64 + 1, 2**65 - 1)).flatmap(lambda n: st.sampled_from((n, -n))),
    st.booleans(),
    _RATIONALS.map(Fraction),
    st.floats(allow_nan=False),
    st.text(max_size=3),
)
_EXPONENTS = st.one_of(
    st.integers(min_value=-20, max_value=20), st.booleans(), _RATIONALS.map(Fraction), _precision_reals()
)


def _outcome(fn, *args):
    """A result's bits, a comparison's bool, NotImplemented, or (exception type, message)."""
    try:
        result = fn(*args)
    except ArithmeticError as e:
        return type(e), str(e)
    return bits(result) if isinstance(result, PrecisionReal) else result


@settings(max_examples=1000, deadline=None)
@given(name=st.sampled_from(REFERENCE_OPERATORS), a=_precision_reals(), data=st.data())
def test_operators_give_the_bits_of_the_coerce_first_reference(name, a, data):
    method = PrecisionReal.__dict__[name]
    if name in ("__neg__", "__abs__"):
        args = (a,)
    else:
        args = (a, data.draw(_EXPONENTS if name == "__pow__" else _OPERANDS, label="other"))
    assert _outcome(method, *args) == _outcome(reference_operator, name, *args)


def test_unsupported_operands_raise_type_error():
    x = PrecisionReal(3, 64)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow,
           operator.lt, operator.le, operator.gt, operator.ge)
    for other in (1.5, "1", None):
        for op in ops:
            for args in ((x, other), (other, x)):
                with pytest.raises(TypeError):
                    op(*args)
        assert x != other and other != x


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrecisionReal(1, 64) / PrecisionReal(0, 64)


def test_integer_powers():
    x = PrecisionReal(3, 96)
    assert frac(x**4) == 81
    assert frac(x**-2) is not None  # rounds, stays finite
    with pytest.raises(ZeroDivisionError):
        PrecisionReal(0, 64) ** -1


def test_only_integer_powers_are_defined():
    with pytest.raises(TypeError):
        PrecisionReal(2, 64) ** Fraction(1, 2)


def test_values_are_immutable():
    x = PrecisionReal(1, 64)
    with pytest.raises(AttributeError):
        x.prec = 128
    # a value built from a raw tuple holds that tuple and refuses changes too
    raw = libmp.from_rational(1, 3, 100, "n")
    y = _wrap(raw, 100)
    assert y.raw is raw and y.prec == 100 and bits(y) == bits(PrecisionReal(Fraction(1, 3), 100))
    for name in ("raw", "prec"):
        with pytest.raises(AttributeError):
            setattr(y, name, getattr(x, name))


# ---------------------------------------------------------------------------
# Elementary functions
# ---------------------------------------------------------------------------


def test_exp_at_zero_is_exact():
    assert frac(exp(PrecisionReal(0, 64))) == 1


def sinh_taylor_bracket(x: Fraction, terms: int = 25) -> tuple[Fraction, Fraction]:
    """Independent oracle: exact partial sum with a geometric remainder cap."""
    total = Fraction(0)
    for k in range(terms):
        total += x ** (2 * k + 1) / factorial(2 * k + 1)
    tail_first = x ** (2 * terms + 1) / Fraction(factorial(2 * terms + 1))
    return total, total + 2 * tail_first


def test_sinh_matches_taylor_oracle():
    lo, hi = sinh_taylor_bracket(Fraction(1))
    value = frac(sinh(PrecisionReal(1, CFG50.precision_bits)))
    slack = Fraction(1, 10**55)
    assert lo - slack < value < hi + slack


def test_sinh_small_arguments_keep_relative_accuracy():
    x = PrecisionReal(Fraction(1, 10**12), 256)
    ratio = sinh(x) / x
    # sinh(t)/t = 1 + t^2/6 + O(t^4)
    expected_offset = Fraction(1, 6) / 10**24
    assert abs((ratio - 1) - expected_offset) < Fraction(1, 10**40)


def test_hyperbolic_identities():
    x = PrecisionReal(Fraction(7, 5), 200)
    tol = Fraction(1, 2**190)
    # cosh x = sqrt(1 + sinh^2 x), so tanh x * cosh x = sinh x
    assert abs(tanh(x) * sqrt(1 + sinh(x) ** 2) - sinh(x)) < tol


def test_exp_and_sinh_of_a_huge_integer_match_mpmath():
    # 3^5700 is near 2^9034, integer-valued at 700 bits: mpmath's own exp
    # squares once per bit of it, seconds per call.  The reference adds
    # 2^-2100, which moves mpmath onto its argument reduction and the value
    # by a relative 2^-2100.
    prec, tail = 700, (0, 1, -2100, 1)
    for x in (PrecisionReal(3**5700, prec), PrecisionReal(-(3**5700), prec)):
        reduced = libmp.mpf_add(x.raw, tail)  # exact
        for ours, reference in ((exp, libmp.mpf_exp), (sinh, libmp.mpf_sinh)):
            want = reference(reduced, prec + 64, "n")
            ratio = libmp.mpf_div(ours(x).raw, want, prec + 64, "n")
            assert abs(raw_fraction(ratio) - 1) < Fraction(1, 2 ** (prec - 1)), ours.__name__
    # every other argument keeps mpmath's value, bit for bit
    for x in (PrecisionReal(3, prec), PrecisionReal(2**prec - 1, prec), PrecisionReal(Fraction(10**150, 3), prec)):
        assert exp(x).raw == libmp.mpf_exp(x.raw, prec, "n")
        assert sinh(x).raw == libmp.mpf_sinh(x.raw, prec, "n")


# half an ulp from the one rounding, and 2^-6 of one for the error before it
EXPM1_ULPS = Fraction(1, 2) + Fraction(1, 64)


@settings(max_examples=150, deadline=None)
@given(
    prec=st.integers(min_value=64, max_value=2000),
    magnitude=st.integers(min_value=-4000, max_value=3),
    fraction=st.integers(min_value=0, max_value=2**64 - 1),
    negative=st.booleans(),
)
def test_expm1_is_within_an_ulp_of_mpmath_at_twice_the_precision(prec, magnitude, fraction, negative):
    # |x| in [2^(magnitude-1), 2^magnitude), with a full prec-bit mantissa
    man = (1 << (prec - 1)) + (fraction << (prec - 1)) // 2**64 | 1
    x = _wrap(libmp.from_man_exp(-man if negative else man, magnitude - prec), prec)
    got = expm1(x)
    assert got.prec == prec
    assert ulps_off(got, expm1_reference(x)) <= EXPM1_ULPS


def test_expm1_at_zero_and_on_both_sides_of_its_switches():
    # expm1 leaves its series for exp where |x| reaches 1/2 and, at each
    # precision, where the series grows long; 2^-m and the value just
    # below it lie on either side of every power of two up to 2^-60
    assert expm1(PrecisionReal(0, 64)).raw == libmp.fzero
    for prec in (64, 207, 2000):
        for m in range(61):
            for x in (Fraction(1, 2**m), Fraction(1, 2**m) - Fraction(1, 2 ** (m + prec))):
                for value in (x, -x):
                    xr = PrecisionReal(value, prec)
                    assert ulps_off(expm1(xr), expm1_reference(xr)) <= EXPM1_ULPS, (prec, value)


def test_expm1_of_a_huge_integer_behaves_as_exp():
    # as for exp above: mpmath's own exp would take seconds on this argument
    prec, tail = 700, (0, 1, -2100, 1)
    x = PrecisionReal(3**5700, prec)
    want = libmp.mpf_exp(libmp.mpf_add(x.raw, tail), prec + 64, "n")
    ratio = libmp.mpf_div(expm1(x).raw, want, prec + 64, "n")
    assert abs(raw_fraction(ratio) - 1) < Fraction(1, 2 ** (prec - 1))
    assert expm1(-x).to_fraction() == -1


def log1p_reference(num: int, den: int, frac_bits: int) -> Fraction:
    """ln(1 + num/den) 2^frac_bits by mpmath at frac_bits + 128 bits."""
    with mpmath.workprec(max(frac_bits, 0) + 128):
        value = mpmath.log1p(mpmath.mpf(num) / den) * mpmath.mpf(2) ** frac_bits
        return raw_fraction(value._mpf_)


def log1p_takes_the_series(num: int, den: int, frac_bits: int) -> bool:
    mag = abs(num).bit_length() - abs(den).bit_length() + 1
    return mag < 0 and max(frac_bits, 0) + 10 <= _LOG1P_SERIES_TERMS * (1 - 2 * mag)


@pytest.mark.parametrize("frac_bits", [-40, 0, 64, 220, 750, 2000])
def test_log1p_is_within_its_budget_on_both_sides_of_its_switch(frac_bits):
    # u = +-2^-m (1 + a little) for every m up to 80 puts both signs on both
    # sides of the series' mag < 0 and of its length, at each precision
    sides = set()
    for m in range(-3, 81):
        big, den = (2**80 + 12345) << max(-m, 0), 2 ** (80 + max(m, 0))
        for num, den in ((big, den), (-big, den), (7, 3 << max(m, 0))):
            if num + den <= 0:
                continue
            for n, d in ((num, den), (-num, -den)):
                sides.add(log1p_takes_the_series(n, d, frac_bits))
                got = log1p(n, d, frac_bits)
                assert abs(got - log1p_reference(n, d, frac_bits)) <= Fraction(126, 100), (n, d)
                # m = 1 times it is the logarithm itself, with no guard bits to floor
                assert _times_log(1, 1, frac_bits, lambda g: log1p(n, d, g)) == got
    assert sides == {True, False}


@pytest.mark.parametrize("u", [Fraction(-999, 1000), Fraction(-1, 3), Fraction(1, 3), Fraction(5), Fraction(10**40)])
def test_log1p_far_from_zero_is_within_its_budget(u):
    # next to -1, past the series' reach and far out, where 1 + u is rounded first
    for frac_bits in (-40, 0, 64, 220, 750):
        got = log1p(u.numerator, u.denominator, frac_bits)
        assert abs(got - log1p_reference(u.numerator, u.denominator, frac_bits)) <= Fraction(126, 100), frac_bits


def test_log1p_refuses_a_nonpositive_one_plus_u():
    for num, den in ((-1, 1), (-3, 2), (3, -2), (5, -4)):
        with pytest.raises(DomainError, match="^ln needs a positive argument$"):
            log1p(num, den, 64)
    assert log1p(0, 5, 64) == 0


@given(
    num=st.integers(-(2**300), 2**300),
    den=st.integers(1, 2**300),
    shift=st.integers(0, 600),
    prec=st.sampled_from([64, 207, 738]),
)
@settings(max_examples=200)
def test_rational_raw_rounds_as_libmp(num, den, shift, prec):
    # a power of two times num or den, as the formulas' exact rationals have
    for n, d in ((num << shift, den), (num, den << shift)):
        assert _rational_raw(n, d, prec) == libmp.from_rational(n, d, prec, "n")


@given(
    num=st.integers(-(2**300), 2**300).filter(bool),
    den=st.integers(1, 2**300),
    shift=st.integers(0, 2000),
    prec=st.sampled_from([64, 207, 738]),
)
@settings(max_examples=200)
def test_a_fraction_is_rounded_to_the_bits_of_libmp_from_rational(num, den, shift, prec):
    # construction and an absorbed operand share _rational_raw; libmp's own
    # route is the reference, for either sign and a power-of-two denominator
    for n, d in ((num, den), (num, den << shift), (num << shift, den)):
        want = libmp.from_rational(n, d, prec, "n")
        assert bits(PrecisionReal(Fraction(n, d), prec)) == (want, prec)
        assert bits(PrecisionReal(0, prec) + Fraction(n, d)) == (want, prec)


def test_non_finite_floats_are_refused():
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="cannot build PrecisionReal"):
            PrecisionReal(value, 64)


def test_domain_violations_raise():
    with pytest.raises(DomainError):
        ln(PrecisionReal(0, 64))
    with pytest.raises(DomainError):
        ln(PrecisionReal(-1, 64))
    with pytest.raises(DomainError):
        sqrt(PrecisionReal(-1, 64))


def test_gap_at_one_from_elementary_functions():
    # 22025/22032 - ln sqrt(2 pi sinh 1) must display as 2.407e-5
    prec = CFG50.precision_bits
    value = Fraction(22025, 22032) - ln(2 * pi(prec) * sinh(PrecisionReal(1, prec))) / 2
    assert format_sci(value, 4) == "2.407E-5"


def test_ln_sqrt_two_pi_is_cached_and_checks_its_precision():
    for prec in (64, 207, 1000):
        value = ln_sqrt_two_pi(prec)
        assert ln_sqrt_two_pi(prec) is value and value.prec == prec
        assert abs(value - ln(2 * pi(prec + 8)) / 2) <= Fraction(1, 2 ** (prec - 2))
    # a cached int precision does not answer for an equal float
    with pytest.raises(ValueError):
        ln_sqrt_two_pi(64.0)
    with pytest.raises(ValueError):
        ln_sqrt_two_pi(63)


# ---------------------------------------------------------------------------
# The logarithm kernel and its stored constants
# ---------------------------------------------------------------------------


def ln_fixed_reference(x: tuple, frac_bits: int):
    """ln |x| 2^frac_bits from mpmath at frac_bits + 64 bits past the integer part."""
    _, _, exp, bc = x
    with mpmath.workprec(max(frac_bits, 0) + 64 + (abs(exp + bc) + 1).bit_length()):
        return mpmath.log(abs(mpmath.mpf(x))) * mpmath.ldexp(1, frac_bits)


def assert_ln_fixed_within_budget(x: tuple, frac_bits: int) -> int:
    got = _ln_fixed(x, frac_bits)
    want = ln_fixed_reference(x, frac_bits)
    with mpmath.workprec(max(frac_bits, 0) + 128):
        assert abs(got - want) <= 1.25, (x, frac_bits, float(got - want))
    return got


@settings(max_examples=300, deadline=None)
@given(
    man=st.integers(min_value=1, max_value=2**5000),
    exponent=st.integers(min_value=-3 * 10**6, max_value=3 * 10**6),
    frac_bits=st.integers(min_value=-40, max_value=_LOG_TABLE_BITS + 600),
)
def test_ln_fixed_is_within_its_budget_against_mpmath(man, exponent, frac_bits):
    # exponents up to 3e6, where |ln x| needs 22 integer bits, and working
    # precisions on both sides of the stored constants'
    assert_ln_fixed_within_budget(libmp.from_man_exp(man, exponent), frac_bits)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=400),
    sign=st.sampled_from([1, -1]),
    tail=st.integers(min_value=0, max_value=2**64 - 1),
    frac_bits=st.sampled_from([0, 64, 230, 780, 1800, _LOG_TABLE_BITS + 200]),
)
def test_ln_fixed_next_to_one_is_within_its_budget(k, sign, tail, frac_bits):
    # 1 +- 2^-k (1 + tail 2^-64), tail < 2^64 so that x > 0: the longest
    # series, and a product close to one after every step of the reduction
    scale = k + 64 + 64
    man = (1 << scale) + sign * ((1 << (scale - k)) + (tail << (scale - k - 64)))
    assert_ln_fixed_within_budget(libmp.from_man_exp(man, -scale), frac_bits)


@pytest.mark.parametrize("frac_bits", [-40, 0, 64, 230, 1800, _LOG_TABLE_BITS, _LOG_TABLE_BITS + 300])
def test_ln_fixed_at_powers_of_two_and_at_one_plus_or_minus_a_power_of_two(frac_bits):
    assert _ln_fixed(libmp.fone, frac_bits) == 0
    for e in (-3 * 10**6, -1000, -1, 1, 2, 64, 3 * 10**6):
        assert_ln_fixed_within_budget(libmp.from_man_exp(1, e), frac_bits)
    for k in (1, 2, 16, 17, 60, 200):
        for sign in (1, -1):
            assert_ln_fixed_within_budget(libmp.mpf_add(libmp.fone, libmp.from_man_exp(sign, -k)), frac_bits)


def test_ln_fixed_at_two_is_the_stored_ln_2_floored():
    for frac_bits in (0, 1, 64, 1000, _LOG_TABLE_BITS):
        assert _ln_fixed(libmp.from_int(2), frac_bits) == _LOG_TABLE[0] >> (_LOG_TABLE_BITS - frac_bits)


def ln_reference(x: PrecisionReal) -> Fraction:
    """ln x from mpmath at twice the precision of x plus 64 bits, exactly as a Fraction."""
    with mpmath.workprec(2 * x.prec + 64):
        return raw_fraction(mpmath.log(mpmath.mpf(x.raw))._mpf_)


@settings(max_examples=300, deadline=None)
@given(
    man=st.integers(min_value=1, max_value=2**800),
    exponent=st.integers(min_value=-10**6, max_value=10**6),
    prec=st.sampled_from([64, 207, 400, 738, 1800]),
    near_one=st.booleans(),
)
def test_ln_is_within_half_an_ulp_and_its_stated_fraction(man, exponent, prec, near_one):
    if near_one:  # x in [1/2, 2), where the kernel's absolute error would cancel
        exponent = -man.bit_length() + (exponent & 1)
    x = PrecisionReal(Fraction(man) * Fraction(2) ** exponent, prec)
    want = ln_reference(x)
    got = ln(x)
    assert got.prec == prec
    assert ulps_off(got, want) <= Fraction(1, 2) + Fraction(1, 256), (x, float(ulps_off(got, want)))


@pytest.mark.parametrize("k", [1, 2, 16, 60, 200, 1000])
@pytest.mark.parametrize("prec", [64, 207, 738])
def test_ln_next_to_one_keeps_its_relative_accuracy(k, prec):
    for sign in (1, -1):
        x = PrecisionReal(1 + Fraction(sign, 2**k), max(prec, k + 1))  # exact
        assert ulps_off(ln(x), ln_reference(x)) <= Fraction(1, 2) + Fraction(1, 256)
    assert ln(PrecisionReal(1, prec)).raw == libmp.fzero


def test_ln_of_one_plus_two_to_the_minus_60_at_207_bits():
    x = 1 + PrecisionReal(Fraction(1, 2**60), 207)
    assert ulps_off(ln(x), ln_reference(x)) <= Fraction(1, 2) + Fraction(1, 256)


def test_the_stored_constants_are_floors_from_mpmath():
    with mpmath.workprec(_LOG_TABLE_BITS + 64):
        want = [mpmath.log(2)] + [mpmath.log1p(mpmath.ldexp(1, -k)) for k in range(1, _LN_STEPS + 1)]
        want.append(mpmath.log(2 * mpmath.pi) / 2)
        want = [int(mpmath.floor(mpmath.ldexp(c, _LOG_TABLE_BITS))) for c in want]
    assert len(_LOG_TABLE) == len(_LOG_TABLE_Q) == _LN_STEPS + 1
    assert [*_LOG_TABLE, _LN_SQRT_TWO_PI] == want


def test_the_stored_constants_are_the_packages_own_atanh_series():
    assert [_two_atanh_inverse(q, _LOG_TABLE_BITS) for q in _LOG_TABLE_Q] == list(_LOG_TABLE)


@pytest.mark.parametrize("bits", [0, 10, 300, _LOG_TABLE_BITS, _LOG_TABLE_BITS + 1, _LOG_TABLE_BITS + 2000])
def test_the_constants_past_the_table_are_low_by_under_their_budget(bits):
    with mpmath.workprec(bits + 64):
        for index, q in enumerate(_LOG_TABLE_Q):
            exact = 2 * mpmath.atanh(mpmath.mpf(1) / q) * mpmath.ldexp(1, bits)
            for got in (_log_constant(index, bits), _two_atanh_inverse(q, bits)):
                assert 0 <= exact - got < 1.05
        # ln 10 = 3 ln 2 + ln(5/4), as _exp_decimal forms it
        assert 0 <= mpmath.log(10) * mpmath.ldexp(1, bits) - _ln10_fixed(bits) < 4.2
    ln2, steps = _log_steps(bits)
    assert (ln2, *(c for _, c in steps)) == tuple(_log_constant(i, bits) for i in range(_LN_STEPS + 1))
    assert [k for k, _ in steps] == list(range(1, _LN_STEPS + 1))


def test_ln_sqrt_two_pi_is_correctly_rounded_below_the_table_bits():
    with mpmath.workprec(_LOG_TABLE_BITS + 64):
        exact = (mpmath.log(2 * mpmath.pi) / 2)._mpf_
    compute = ln_sqrt_two_pi.__wrapped__  # the cache would keep 4000 values
    for prec in range(MIN_PRECISION_BITS, _LOG_TABLE_BITS - 15):
        assert compute(prec).raw == libmp.mpf_pos(exact, prec, "n"), prec
    for prec in (_LOG_TABLE_BITS, _LOG_TABLE_BITS + 500):
        with mpmath.workprec(2 * prec):
            want = raw_fraction((mpmath.log(2 * mpmath.pi) / 2)._mpf_)
        assert ulps_off(compute(prec), want) <= Fraction(1, 2) + Fraction(1, 2**12)


_COLD_COMMANDS = (
    ["eval", "w2", "1"],
    ["eval", "w2", "1", "--digits", "200"],
    ["eval", "w2", "1", "--digits", "500"],
    ["table"],
    ["table", "--format", "markdown"],
    ["verify"],
    ["rate"],
    ["constants"],
    ["eval", "w2", "4.217", "--digits", "1300"],  # past the stored constants
    ["eval", "w2", "1e60"],  # its value line splits off a power of ten by ln 10
)


def test_no_logarithm_is_taken_by_libmp(monkeypatch, capsys, fresh_memos):
    def refuse(*args, **kwargs):
        raise AssertionError("libmp's logarithm was called")

    for name in ("mpf_log", "ln2_fixed", "ln10_fixed"):
        monkeypatch.setattr(precision.libmp, name, refuse)
    for cache in (ln_sqrt_two_pi, _log_steps, _two_atanh_inverse):
        cache.cache_clear()
    for argv in _COLD_COMMANDS:
        assert main(argv) == 0, argv
    # 2^(2^23) lies past 2^3,000,000 and is printed from its logarithm
    power = PrecisionReal(2, 64) ** (2**23)
    assert str(power) == libmp.to_str(power.raw, 17) == "4.2644874235595279e+2525222"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# ln_gamma_ref
# ---------------------------------------------------------------------------


def test_ln_gamma_at_one_and_two_vanish():
    for x in (1, 2):
        assert ln_gamma_ref(x, CFG50).raw == libmp.fzero  # ln 0! = ln 1! = ln 1, exactly 0


def test_ln_gamma_at_half_matches_ln_sqrt_pi():
    prec = CFG50.precision_bits
    want = ln(pi(prec)) / 2
    assert abs(ln_gamma_ref(Fraction(1, 2), CFG50) - want) < TOL50


def test_ln_gamma_at_three_halves():
    prec = CFG50.precision_bits
    want = ln(pi(prec)) / 2 - ln(PrecisionReal(2, prec))
    assert abs(ln_gamma_ref(Fraction(3, 2), CFG50) - want) < TOL50


@pytest.mark.parametrize("n", [1, 10, 100])
def test_ln_gamma_matches_exact_factorials(n):
    want = ln(PrecisionReal(factorial(n), CFG50.precision_bits))
    got = ln_gamma_ref(n + 1, CFG50)
    assert abs(got - want) < TOL50 * max(1, abs(want.to_fraction()))


def test_ln_gamma_functional_equation():
    rng = random.Random(31)
    prec = CFG50.precision_bits
    for _ in range(20):
        x = Fraction(rng.randint(1, 200_000), 1000)  # (0, 200]
        residual = ln_gamma_ref(x + 1, CFG50) - ln_gamma_ref(x, CFG50) - ln(
            PrecisionReal(x, prec)
        )
        scale = max(1, abs(frac(ln_gamma_ref(x + 1, CFG50))))
        assert abs(residual) < 10 * TOL50 * scale


def test_ln_gamma_precision_scaling():
    rng = random.Random(37)
    cfg_hi = OracleConfig.for_digits(100)
    for _ in range(20):
        x = Fraction(rng.randint(1, 200_000), 1000)
        a = ln_gamma_ref(x, CFG50)
        b = ln_gamma_ref(x, cfg_hi)
        assert abs(a - b) < TOL50 * max(1, abs(frac(b)))


def test_ln_gamma_agrees_with_independent_library_route():
    mpmath.mp.dps = 60
    try:
        for x in (Fraction(1, 4), Fraction(7, 2), Fraction(123, 8), Fraction(101)):
            ours = frac(ln_gamma_ref(x, CFG50))
            lib = mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator)
            theirs = Fraction(*(int(v) for v in mpmath.libmp.to_rational(lib._mpf_)))
            assert abs(ours - theirs) < Fraction(1, 10**48) * max(1, abs(theirs))
    finally:
        mpmath.mp.dps = 15


def test_ln_gamma_rejects_nonpositive(fresh_memos):
    for _ in range(3):  # on every call: a refused argument leaves nothing in the memo
        with pytest.raises(DomainError):
            ln_gamma_ref(0, CFG50)
        with pytest.raises(DomainError):
            ln_gamma_ref(-3, CFG50)
    assert _ln_gamma.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# The memos: precision.memoized under the ln Gamma kernel and the Windschitl
# core
# ---------------------------------------------------------------------------


MEMO_ARGUMENTS = (Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(51), Fraction(10**6 + 1, 7))


def through(memo, x: PrecisionReal):
    """One call of a memo at x: the ln Gamma kernel also takes its config,
    and the Windschitl core, an integer at the Stirling term's fraction
    bits, takes those bits."""
    if memo is _ln_gamma:
        return memo(x, CFG50)
    assert memo is formulas._windschitl_core
    return memo(x, _stirling_fixed(x.raw, 1, x.prec)[1])


@pytest.mark.parametrize("memo", MEMOS, ids=lambda memo: memo.__name__)
def test_memo_key_separates_precision(fresh_memos, memo):
    # 3/2 has the same raw value at both precisions, so only the key's
    # precision keeps the two results apart
    prec = CFG50.precision_bits
    coarse, fine = PrecisionReal(Fraction(3, 2), prec), PrecisionReal(Fraction(3, 2), 2 * prec)
    at_coarse, at_fine = through(memo, coarse), through(memo, fine)
    if isinstance(at_coarse, PrecisionReal):
        assert (at_coarse.prec, at_fine.prec) == (prec, 2 * prec)
    assert bits(at_coarse) != bits(at_fine)
    assert memo.cache_info().currsize == 2
    # a hit returns the stored value itself
    assert through(memo, PrecisionReal(Fraction(3, 2), prec)) is at_coarse
    assert memo.cache_info()[:2] == (1, 2)  # hits, misses


@pytest.mark.parametrize("memo", MEMOS, ids=lambda memo: memo.__name__)
def test_memo_stays_bounded(fresh_memos, memo):
    xs = [PrecisionReal(Fraction(k, 7), CFG50.precision_bits) for k in range(1, _MEMO_SIZE + 41)]
    first = [through(memo, x) for x in xs]
    info = memo.cache_info()
    assert info.maxsize == _MEMO_SIZE
    assert info.currsize <= info.maxsize
    assert info.misses == len(xs)
    # the earliest arguments were evicted; their recomputation matches
    assert [bits(through(memo, x)) for x in xs[:5]] == list(map(bits, first[:5]))
    assert memo.cache_info().misses == len(xs) + 5


@pytest.mark.parametrize("digits", [50, 100, 300])
def test_memoized_ln_gamma_is_bit_identical_to_a_fresh_evaluation(fresh_memos, digits):
    cfg = OracleConfig.for_digits(digits)
    first = [ln_gamma_ref(x, cfg) for x in MEMO_ARGUMENTS]
    hits = _ln_gamma.cache_info().hits
    again = [ln_gamma_ref(x, cfg) for x in MEMO_ARGUMENTS]
    assert _ln_gamma.cache_info().hits == hits + len(MEMO_ARGUMENTS)
    _ln_gamma.cache_clear()
    fresh = [ln_gamma_ref(x, cfg) for x in MEMO_ARGUMENTS]
    assert list(map(bits, first)) == list(map(bits, again)) == list(map(bits, fresh))


def test_ln_gamma_memo_key_includes_the_config(fresh_memos):
    x = Fraction(7, 3)
    cfg50, cfg100 = OracleConfig.for_digits(50), OracleConfig.for_digits(100)
    # a PrecisionReal finer than both configs sets the working precision,
    # so the same bits under two configs differ only in the series they sum
    fine = PrecisionReal(x, cfg100.precision_bits + 64)
    at50, at100 = ln_gamma_ref(fine, cfg50), ln_gamma_ref(fine, cfg100)
    assert at50.prec == at100.prec == fine.prec
    assert at50.raw != at100.raw
    assert _ln_gamma.cache_info().currsize == 2
    _ln_gamma.cache_clear()
    fresh = [ln_gamma_ref(fine, cfg) for cfg in (cfg50, cfg100)]
    assert list(map(bits, (at50, at100))) == list(map(bits, fresh))


# ---------------------------------------------------------------------------
# trigamma_ref
# ---------------------------------------------------------------------------


def test_trigamma_classical_values():
    prec = CFG50.precision_bits
    p = pi(prec)
    assert abs(trigamma_ref(1, CFG50) - p * p / 6) < TOL50
    assert abs(trigamma_ref(Fraction(1, 2), CFG50) - p * p / 2) < TOL50


def test_trigamma_recurrence_residual():
    x = Fraction(37, 10)
    residual = trigamma_ref(x + 1, CFG50) - trigamma_ref(x, CFG50) + Fraction(1) / x**2
    assert abs(residual) < Fraction(1, 10**45)  # 10^-(target-5)


def test_trigamma_precision_scaling():
    rng = random.Random(41)
    cfg_hi = OracleConfig.for_digits(100)
    for _ in range(10):
        x = Fraction(rng.randint(1, 150_000), 1000)
        assert abs(trigamma_ref(x, CFG50) - trigamma_ref(x, cfg_hi)) < TOL50


def test_trigamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        trigamma_ref(0, CFG50)


# ---------------------------------------------------------------------------
# Both oracles against mpmath at higher precision
# ---------------------------------------------------------------------------


def raw_fraction(raw: tuple) -> Fraction:
    return Fraction(*(int(v) for v in mpmath.libmp.to_rational(raw)))


# x log-uniform on [1e-6, 1e30], as an exact binary value
ORACLE_ARGUMENTS = st.floats(min_value=-6, max_value=30).map(lambda t: 10.0**t)


@pytest.mark.parametrize(
    "oracle, reference",
    [(ln_gamma_ref, mpmath.loggamma), (trigamma_ref, lambda x: mpmath.psi(1, x))],
    ids=["ln_gamma_ref", "trigamma_ref"],
)
@settings(max_examples=60, deadline=None)
@given(x=ORACLE_ARGUMENTS, digits=st.integers(min_value=15, max_value=300))
def test_oracles_match_mpmath_at_higher_precision(oracle, reference, x, digits):
    with mpmath.workdps(digits + 30):
        want = raw_fraction(reference(mpmath.mpf(x))._mpf_)
    got = oracle(x, OracleConfig.for_digits(digits)).to_fraction()
    assert abs(got - want) <= Fraction(1, 10**digits) * max(1, abs(want))


@pytest.mark.parametrize("digits", [300, 500, 1000])
def test_oracles_match_mpmath_around_the_threshold_above_200_digits(digits):
    cfg = OracleConfig.for_digits(digits)
    threshold = cfg.shift_threshold
    half = Fraction(1, 2)
    for x in (3 * half, threshold - half, Fraction(threshold), threshold + half):
        with mpmath.workdps(digits + 30):
            arg = mpmath.mpf(x.numerator) / x.denominator  # exact: a half-integer
            references = (mpmath.loggamma(arg), mpmath.psi(1, arg))
        for oracle, reference in zip((ln_gamma_ref, trigamma_ref), references):
            want = raw_fraction(reference._mpf_)
            got = oracle(x, cfg).to_fraction()
            assert abs(got - want) <= Fraction(1, 10**digits) * max(1, abs(want)), (oracle.__name__, x)




def stirling_term_references(x: PrecisionReal) -> dict[int, Fraction]:
    """ln sqrt(2 pi) + (x + twice_a/2) ln x - x for each twice_a in {-1, 0, 1},
    by mpmath at 2p + 64 bits."""
    with mpmath.workprec(2 * x.prec + 64):
        arg = mpmath.mpf(x.raw)
        ln_arg, half_ln_two_pi = mpmath.log(arg), mpmath.log(2 * mpmath.pi) / 2
        return {a2: raw_fraction((half_ln_two_pi + (arg + mpmath.mpf(a2) / 2) * ln_arg - arg)._mpf_)
                for a2 in (-1, 0, 1)}


def assert_stirling_term_within_budget(x: PrecisionReal, context) -> None:
    """The unrounded Stirling term within the 3.75 units of 2^-F that
    _stirling_fixed's docstring allows."""
    for a2, exact in stirling_term_references(x).items():
        total, frac_bits = _stirling_fixed(x.raw, a2, x.prec)
        assert abs(Fraction(total, 2**frac_bits) - exact) <= Fraction(15, 2 ** (frac_bits + 2)), (context, a2)


@pytest.mark.parametrize("digits", [19, 50, 200, 500])
def test_ln_gamma_and_the_stirling_term_stay_within_their_one_rounding_budgets(digits):
    cfg = OracleConfig.for_digits(digits)
    threshold, prec = cfg.shift_threshold, cfg.precision_bits
    points = [Fraction(1, 1000), Fraction(3, 2), Fraction(12345, 1000), Fraction(2 * threshold - 1, 2),
              Fraction(threshold), Fraction(2 * threshold + 1, 2), Fraction(10**7 + 1, 1000), Fraction(10**12)]
    for x in points:
        w = working_argument(x, cfg)  # full-mantissa where x is not dyadic
        with mpmath.workprec(2 * prec + 64):
            want = raw_fraction(mpmath.loggamma(mpmath.mpf(w.raw))._mpf_)
        value, budget = ln_gamma_with_budget(w.to_fraction(), cfg)
        assert abs(value - want) <= budget, f"ln_gamma_ref at x = {x}, {digits} digits"
        assert_stirling_term_within_budget(w, (x, digits))


@pytest.mark.parametrize("prec", [64, 207, 738])
def test_the_stirling_term_stays_within_its_budget_where_it_nearly_cancels(prec):
    """On [1/2, 5/2) the term is far smaller than its parts (0.027 at x = 3/2
    and a = 0), so the error of ln sqrt(2 pi) would show in its last bits."""
    for k in range(8, 40):
        assert_stirling_term_within_budget(PrecisionReal(Fraction(k, 16), prec), (Fraction(k, 16), prec))


# ---------------------------------------------------------------------------
# ln_gamma_ref at an integer below the shift threshold: ln (x-1)!
# ---------------------------------------------------------------------------


def factorial_route_budget(x: int, prec: int, value: Fraction) -> Fraction:
    """The budget ln_gamma_ref's docstring states at an integer x below the
    shift threshold: half an ulp of the value, at most |value| 2^-prec, and
    1.25 units of 2^-F, F = prec + 12 - bitlen(bitlen((x-1)!))."""
    frac_bits = prec + 12 - factorial(x - 1).bit_length().bit_length()
    return abs(value) / 2**prec + Fraction(5, 2 ** (frac_bits + 2))


def assert_factorial_route_within_budget(w: PrecisionReal, cfg: OracleConfig, context) -> None:
    """ln_gamma_ref at a working argument w, an integer below the threshold,
    against mpmath at 2p + 64 bits (within 2 ulp there), within
    :func:`factorial_route_budget`."""
    got = ln_gamma_ref(w, cfg)
    assert got.prec == w.prec, context
    value = got.to_fraction()
    with mpmath.workprec(2 * w.prec + 64):
        want = raw_fraction(mpmath.loggamma(mpmath.mpf(w.raw))._mpf_)
    budget = factorial_route_budget(int(w.to_fraction()), w.prec, value) + abs(want) / 2 ** (2 * w.prec + 62)
    assert abs(value - want) <= budget, context


@pytest.mark.parametrize("digits", [19, 50, 200, 500])
def test_ln_gamma_at_an_integer_below_the_threshold_is_one_rounded_logarithm(digits):
    cfg = OracleConfig.for_digits(digits)
    arguments = [working_argument(x, cfg) for x in range(1, cfg.shift_threshold)]
    for w in [*arguments, PrecisionReal(7, 2000)]:  # the second keeps its own 2000 bits
        assert_factorial_route_within_budget(w, cfg, (w, digits))


@pytest.mark.parametrize("digits", [19, 50, 200, 500])
def test_the_two_ln_gamma_routes_agree_at_the_threshold(digits):
    # ln Gamma(t) - ln Gamma(t-1) = ln(t-1): Gamma(t) by the series, unshifted,
    # and Gamma(t-1) as ln (t-2)!, each within its own budget
    cfg = OracleConfig.for_digits(digits)
    t = Fraction(cfg.shift_threshold)
    assert _shift_steps(working_argument(t, cfg).raw, cfg.shift_threshold) == 0
    residual, budget = _ln_gamma_recurrence(t - 1, cfg)
    assert abs(residual) <= budget


def test_log_error_at_x_1_builds_no_stirling_series(fresh_memos):
    # eval and constants take ln Gamma only there, at x = 1, so a cold command
    # builds no tangent table and certifies no term count
    cfg = OracleConfig.for_digits(500)
    formulas.log_error(formulas.FormulaId.W2, 1, cfg)
    formulas.w2star_log_gap(1, cfg)
    assert "series_terms" not in vars(cfg)


# ---------------------------------------------------------------------------
# Integer kernels against per-step PrecisionReal arithmetic
# ---------------------------------------------------------------------------

KERNEL_ARGUMENTS = [
    Fraction(1, 1000),
    Fraction(1, 3),
    1,
    Fraction(3, 2),
    7,
    24,
    Fraction(249, 10),
    25,
    1000,
    10**12,
    # a PrecisionReal keeps its own precision: below and far above the
    # working bits, the second a separate coefficient cache key
    PrecisionReal(Fraction(4, 3), 64),
    PrecisionReal(Fraction(4, 3), 2000),
]


def oracle_budget(n: int, cfg: OracleConfig, prec: int, value: PrecisionReal) -> Fraction:
    """Bound on |kernel oracle - per-step oracle| at ``prec`` bits after n shift steps.

    Both share the series truncation.  The per-step oracle rounds y once
    per step, which moves the result by up to |psi(y)| ulp(y)/2 each,
    and rounds the running sum and each ln(y) or 1/y^2: 3n roundings on
    values no larger than S = threshold ln threshold + max(1, |value|),
    then one per series term and a few in the assembly.  The kernels'
    own error is a few ulps of S (their docstrings); 16 covers both
    assemblies.
    """
    threshold = cfg.shift_threshold
    scale = Fraction(threshold * log(threshold)) + max(1, abs(value.to_fraction()))
    return (3 * n + cfg.series_terms + 16) * scale / 2**prec


def balanced_product(factors: list[int]) -> int:
    """The product of integers, multiplied pairwise: seconds faster than math.prod
    for hundreds of factors of thousands of bits."""
    while len(factors) > 1:
        factors = [prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


@pytest.mark.parametrize("digits", [19, 30, 50, 100, 200, 300, 500])
def test_oracle_kernels_stay_within_their_error_budget(digits):
    cfg = OracleConfig.for_digits(digits)
    threshold, terms = cfg.shift_threshold, cfg.series_terms
    for x in KERNEL_ARGUMENTS:
        case = f"x = {x} at {digits} digits"
        w = working_argument(x, cfg)
        prec, n = w.prec, _shift_steps(w.raw, threshold)
        assert n == max(0, -((w.to_fraction() - threshold) // 1)), case
        for kernel, per_step in ((ln_gamma_ref, ln_gamma_per_step), (trigamma_ref, trigamma_per_step)):
            if kernel is ln_gamma_ref and n and w.raw[2] >= 0:
                # ln (x-1)! shares no series truncation with the per-step
                # oracle: mpmath is its reference
                assert_factorial_route_within_budget(w, cfg, case)
                continue
            got, want = kernel(x, cfg), per_step(x, cfg)
            assert got.prec == want.prec == prec, case
            assert abs(got - want) <= oracle_budget(n, cfg, prec, want), f"{kernel.__name__}, {case}"
        # Each kernel on its own, before any rounding to prec bits, within
        # the bound its docstring states: guard bits that are too few fail here.
        # The shift product pairs its factors, so it runs at odd and even
        # counts, 1 and 2 among them, as well as at the oracle's own n.
        num, den = w.to_fraction().as_integer_ratio()
        for count in sorted({1, 2, 3, n, n + 1} - {0}):
            scaled = [num + k * den for k in range(count)]  # (w + k) den, den = 2^s
            # prod (w + k) = product / den^count, compared exactly in integers
            product = balanced_product(scaled)
            got = raw_fraction(_rising_product(w.raw, count, prec))
            short = product * got.denominator - got.numerator * den**count  # (exact - got) den^count den(got)
            assert 0 <= short and short << (prec + 8) < product * got.denominator, f"{count} factors, {case}"
        if n:
            scaled = [num + k * den for k in range(n)]
            # the exact sum of 1/(w+k)^2 takes seconds to reduce; it lies in
            # [low, low + n) 2^-g, a bracket 64 bits finer than the bound
            g = prec + 10 + 64
            low = sum((den * den << g) // (f * f) for f in scaled)
            got = raw_fraction(_inverse_square_sum(w.raw, n, prec))
            assert got <= Fraction(low, 2**g), case
            assert Fraction(low + n, 2**g) - got < Fraction(1, 2 ** (prec + 10)), case
        y = w + threshold
        y_hi = PrecisionReal(y, prec + 64)
        u_hi = 1 / (y_hi * y_hi)
        for series, coeffs in (
            ("lngamma", lngamma_series_fractions(terms)),
            ("trigamma", trigamma_series_fractions(terms)),
        ):
            total, _, frac_bits = _stirling_series(series, cfg, y.raw, prec)
            want = horner_per_step(coeffs, u_hi, prec + 64).to_fraction()  # off by < 2^-(prec+56)
            budget = Fraction(1, 2 ** (prec + 10)) + Fraction(1, 2 ** (prec + 56))
            assert abs(Fraction(total, 2**frac_bits) - want) < budget, f"{series}, {case}"


# Full mantissas above and below 1 (the second widens the divisor of each
# pair of inverse squares) and a short dyadic x.
SHIFT_ARGUMENTS = [Fraction(4217, 1000), Fraction(1, 100), Fraction(5, 2)]


@pytest.mark.parametrize("digits", [50, 200, 500, 1000])
@pytest.mark.parametrize("x", SHIFT_ARGUMENTS, ids=str)
def test_shift_kernels_stay_within_the_budgets_their_docstrings_state(x, digits):
    # _rising_product is low by a relative n 2^-wp at most, _inverse_square_sum
    # by (n + 1) 2^-F, wp and F both _fixed_bits(prec, n): against the exact
    # integers, at n = 1 to 6 (odd and even n, one to three pairs) and at the
    # oracle's own step counts, which the threshold sets
    cfg = OracleConfig.for_digits(digits)
    w = working_argument(x, cfg)
    prec, steps = w.prec, _shift_steps(w.raw, cfg.shift_threshold)
    num, den = w.to_fraction().as_integer_ratio()  # den = 2^s
    factors = [num + k * den for k in range(steps)]  # (w + k) den
    products = {n: prod(factors[:n]) for n in range(1, 7)}
    products[steps - 1] = balanced_product(factors[: steps - 1])
    products[steps] = products[steps - 1] * factors[-1]
    for n, product in sorted(products.items()):
        case = f"n = {n}, x = {x} at {digits} digits"
        bits = _fixed_bits(prec, n)
        got = raw_fraction(_rising_product(w.raw, n, prec))
        short = product * got.denominator - got.numerator * den**n  # (exact - got) den^n den(got)
        assert 0 <= short and short << bits < n * product * got.denominator, case
        # the exact sum of 1/(w+k)^2 lies in [low, low + n) 2^-g, 64 bits finer than the budget
        g = bits + 64
        low = sum((den * den << g) // (f * f) for f in factors[:n])
        got = raw_fraction(_inverse_square_sum(w.raw, n, prec))
        assert got <= Fraction(low, 2**g), case
        assert Fraction(low + n, 2**g) - got < Fraction(n + 1, 2**bits), case


# ---------------------------------------------------------------------------
# The Stirling-series kernel: falling precision and truncation at y
# ---------------------------------------------------------------------------

SERIES_FRACTIONS = {"lngamma": lngamma_series_fractions, "trigamma": trigamma_series_fractions}


class Layout(NamedTuple):
    """A configuration's Stirling series as the kernel lays it out."""

    coeffs: list[Fraction]  # c_1..c_terms
    numerators: list[int]  # the same over their least common denominator
    denominator: int
    prec: int
    frac_bits: int  # F
    step: int  # s = 2 (bitlen(threshold) - 1)


@lru_cache(maxsize=None)
def series_layout(series: str, cfg: OracleConfig) -> Layout:
    prec, terms = cfg.precision_bits, cfg.series_terms
    frac_bits, step = _fixed_bits(prec, terms), 2 * (cfg.shift_threshold.bit_length() - 1)
    coeffs = SERIES_FRACTIONS[series](terms)
    den = lcm(*(c.denominator for c in coeffs))
    numerators = [c.numerator * (den // c.denominator) for c in coeffs]
    return Layout(coeffs, numerators, den, prec, frac_bits, step)


def series_table(series: str, cfg: OracleConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The kernel's (coefficients, bounds) for a configuration."""
    layout = series_layout(series, cfg)
    return _series_fixed(series, len(layout.coeffs), layout.frac_bits, layout.step)


def rule_terms(coeffs: list[Fraction], frac_bits: int, e2: int) -> int:
    """The fewest m < terms with L_(m+1) - e2 m < 0, L_j = F + floor(log2 |c_j|)
    + 1, or terms if there is none: the truncation rule, restated."""
    for m in range(1, len(coeffs)):
        if frac_bits + floor_log2(coeffs[m]) + 1 - e2 * m < 0:  # coeffs[m] is c_(m+1)
            return m
    return len(coeffs)


def dyadic_raw(y: Fraction) -> tuple:
    """The raw libmp value of a dyadic rational, exactly."""
    man, den = y.numerator, y.denominator
    assert den & (den - 1) == 0
    return libmp.from_man_exp(man, 1 - den.bit_length())


def truncation_points(layout: Layout, threshold: int) -> list[Fraction]:
    """Each power of two above the threshold where the rule's term count
    changes, and 255/256 of it, whose e2 is two less."""
    counts = [rule_terms(layout.coeffs, layout.frac_bits, 2 * k) for k in range(layout.frac_bits)]
    points = []
    for k in range(threshold.bit_length(), layout.frac_bits):
        if counts[k] != counts[k - 1]:
            points += [Fraction(2**k), Fraction(255 * 2**k, 256)]
    return [y for y in points if y >= threshold]


def assert_series_matches_exact_sum(series: str, cfg: OracleConfig, y: Fraction) -> None:
    """The kernel at y against the exact all-terms sum, and its term count
    against the rule, in exact arithmetic."""
    layout = series_layout(series, cfg)
    coeffs, prec, frac_bits = layout.coeffs, layout.prec, layout.frac_bits
    case = f"{series}, y = {y}, {cfg.target_decimal_digits} digits"
    total, _, got_bits = _stirling_series(series, cfg, dyadic_raw(y), prec)
    assert got_bits == frac_bits, case
    num, den = exact_series_sum(layout.numerators, layout.denominator, y)
    # |total 2^-F - num/den| < 2^-(prec+10), in integers
    assert abs(total * den - (num << frac_bits)) << (prec + 10) < den << frac_bits, case
    used = _terms_needed(series_table(series, cfg)[1], dyadic_raw(y))
    assert 1 <= used <= len(coeffs), case
    e2 = 2 * (y.numerator.bit_length() - y.denominator.bit_length())  # 2 floor(log2 y)
    assert used == rule_terms(coeffs, frac_bits, e2), case
    if used < len(coeffs):
        # the first omitted term is below one unit of 2^-F
        assert abs(coeffs[used]) / y ** (2 * used) < Fraction(1, 2**frac_bits), case


@pytest.mark.parametrize("digits", [19, 50, 200, 500, 2000])
@pytest.mark.parametrize("series", ["lngamma", "trigamma"])
def test_stirling_series_matches_the_exact_sum_where_its_length_changes(series, digits):
    cfg = OracleConfig.for_digits(digits)
    threshold = cfg.shift_threshold
    points = truncation_points(series_layout(series, cfg), threshold)
    assert points, "the term count never changes"
    for y in [Fraction(threshold), Fraction(10**4), Fraction(10**12), *points]:
        assert_series_matches_exact_sum(series, cfg, y)


@pytest.mark.parametrize("digits", [19, 50, 200, 500, 2000])
def test_an_argument_at_the_threshold_keeps_every_term_and_a_large_one_few(digits):
    cfg = OracleConfig.for_digits(digits)
    for series in SERIES_FRACTIONS:
        layout = series_layout(series, cfg)
        bounds, threshold = series_table(series, cfg)[1], Fraction(cfg.shift_threshold)
        assert _terms_needed(bounds, dyadic_raw(threshold)) == len(layout.coeffs)
        assert _terms_needed(bounds, dyadic_raw(Fraction(2**layout.frac_bits))) == 1


@pytest.mark.parametrize("digits", [19, 50, 200, 500, 2000])
def test_stored_coefficients_are_rounded_in_falling_precision(digits):
    cfg = OracleConfig.for_digits(digits)
    for series in SERIES_FRACTIONS:
        layout = series_layout(series, cfg)
        terms = len(layout.coeffs)
        exponents = [layout.frac_bits - layout.step * (j - 1) for j in range(terms, 0, -1)]
        want = [floor(c * Fraction(2) ** b + Fraction(1, 2))
                for c, b in zip(reversed(layout.coeffs), exponents)]
        assert list(series_table(series, cfg)[0]) == want, series
        if digits >= 50:
            assert min(exponents) < 0, "no coefficient with a negative exponent"


@settings(max_examples=40, deadline=None)
@given(
    digits=st.integers(min_value=19, max_value=300),
    man=st.integers(min_value=1, max_value=2**128),
    scale=st.integers(min_value=0, max_value=400),
    series=st.sampled_from(sorted(SERIES_FRACTIONS)),
)
def test_stirling_series_matches_the_exact_sum_at_random_arguments(digits, man, scale, series):
    cfg = OracleConfig.for_digits(digits)
    # y >= threshold, from just above it to about 2^530
    y = cfg.shift_threshold + Fraction(man, 2**128) * 2**scale
    assert_series_matches_exact_sum(series, cfg, y)


@pytest.mark.parametrize("digits", [19, 50, 100, 200, 500, 1000, 2000])
def test_series_tables_from_tangent_numbers_match_the_fraction_derivation(digits):
    cfg = OracleConfig.for_digits(digits)
    for series in SERIES_FRACTIONS:
        layout = series_layout(series, cfg)
        want = series_fixed_fractions(series, len(layout.coeffs), layout.frac_bits, layout.step)
        assert series_table(series, cfg) == want, series


def test_series_tables_are_bounded_and_rebuild_bit_identically():
    _series_fixed.cache_clear()
    try:
        # both series at 50, 100 and 200 digits fit
        warm = [(series, OracleConfig.for_digits(d))
                for d in (50, 100, 200) for series in SERIES_FRACTIONS]
        first = [series_table(*case) for case in warm]
        assert [series_table(*case) for case in warm] == first
        assert _series_fixed.cache_info()[:2] == (6, 6)  # hits, misses
        # a sweep over more precisions than the cache holds evicts them
        for digits in range(301, 301 + _SERIES_TABLES):
            series_table("lngamma", OracleConfig.for_digits(digits))
        assert _series_fixed.cache_info().currsize == _SERIES_TABLES
        misses = _series_fixed.cache_info().misses
        assert [series_table(*case) for case in warm] == first
        assert _series_fixed.cache_info().misses == misses + 6
    finally:
        _series_fixed.cache_clear()


# ---------------------------------------------------------------------------
# Both oracles against the gamma function's own identities (DLMF 5.5, 5.15)
# ---------------------------------------------------------------------------
#
# No reference library here: each identity combines oracle values at points
# in different kernel regimes, and its residual, computed exactly in
# Fractions, must lie within the sum of the budgets that the oracles'
# docstrings state for those calls, plus the test's own logarithms.


def _ln_bound(y: Fraction) -> Fraction:
    """An upper bound on |ln y| for y > 0: |log2 y| < |bitlen(num) - bitlen(den)| + 1, ln 2 < 7/10."""
    return Fraction(7, 10) * (abs(y.numerator.bit_length() - y.denominator.bit_length()) + 1)


def _shifted_argument(x: Fraction, cfg: OracleConfig) -> Fraction:
    """y = x + n, where both oracles apply the series (x is exact at the working bits)."""
    return x + _shift_steps(working_argument(x, cfg).raw, cfg.shift_threshold)


def ln_gamma_with_budget(x: Fraction, cfg: OracleConfig) -> tuple[Fraction, Fraction]:
    """ln_gamma_ref(x) and the sum of its docstring's error budget: the
    truncation; six units of 2^-F, F the fraction bits of the Stirling term
    at y; the shift product and the series, 2^-(p+8) and 2^-(p+10); the
    rounding of y (|psi(y)| ulp(y)/2 <= y ln(y) 2^-p for y >= 2); and one
    rounding of the value.  At an integer below the threshold, ln (x-1)!,
    the budget is :func:`factorial_route_budget`."""
    prec = cfg.precision_bits
    value, y, unit = ln_gamma_ref(x, cfg).to_fraction(), _shifted_argument(x, cfg), Fraction(1, 2**prec)
    if x.denominator == 1 and x < cfg.shift_threshold:
        return value, factorial_route_budget(x.numerator, prec, value)
    _, frac_bits = _stirling_fixed(PrecisionReal(y, prec).raw, -1, prec)
    fixed = 6 * Fraction(1, 2**frac_bits) + unit / 2**8 + unit / 2**10
    budget = Fraction(1, 10 ** (cfg.series_digits + 5)) + fixed + (y * _ln_bound(y) + abs(value)) * unit
    return value, budget


def trigamma_with_budget(x: Fraction, cfg: OracleConfig) -> tuple[Fraction, Fraction]:
    """trigamma_ref(x) and the sum of its docstring's error budget: the
    truncation; five terms of 2^-(p+10) (the shift sum, the series, its last
    truncation, and the rounding of u in 1 + u sum and in u/2) and the floor
    of the division by y, below 2^-(p+11); the rounding of y (|psi''(y)|
    ulp(y)/2 <= 2^(1-p) / y); and one rounding of the value."""
    value, y, unit = trigamma_ref(x, cfg).to_fraction(), _shifted_argument(x, cfg), Fraction(1, 2**cfg.precision_bits)
    budget = Fraction(1, 10 ** (cfg.series_digits + 5)) + 11 * unit / 2**11 + 2 * unit / y + value * unit
    return value, budget


def _ln_with_error(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """ln q at prec + 64 bits and a bound on its error: q rounds with relative
    error 2^-(prec+64), and ln is within 2 ulp."""
    value = ln(PrecisionReal(q, prec + 64)).to_fraction()
    return value, (1 + abs(value)) / 2 ** (prec + 60)


def _ln_gamma_recurrence(x: Fraction, cfg: OracleConfig) -> tuple[Fraction, Fraction]:
    """ln Gamma(x+1) - ln Gamma(x) - ln x (DLMF 5.5.1), and its budget."""
    (a, ea), (b, eb) = ln_gamma_with_budget(x + 1, cfg), ln_gamma_with_budget(x, cfg)
    ln_x, e = _ln_with_error(x, cfg.precision_bits)
    return a - b - ln_x, ea + eb + e


def _legendre_duplication(x: Fraction, cfg: OracleConfig) -> tuple[Fraction, Fraction]:
    """ln Gamma(2x) - ln Gamma(x) - ln Gamma(x+1/2) - (2x-1) ln 2 + ln(pi)/2 (DLMF 5.5.5)."""
    prec = cfg.precision_bits
    (a, ea), (b, eb), (c, ec) = (ln_gamma_with_budget(v, cfg) for v in (2 * x, x, x + Fraction(1, 2)))
    ln2, e2 = _ln_with_error(Fraction(2), prec)
    ln_pi = ln(pi(prec + 64)).to_fraction()  # pi to a relative 2^-(prec+64), then 2 ulp
    e_pi = (1 + ln_pi) / 2 ** (prec + 60)
    return a - b - c - (2 * x - 1) * ln2 + ln_pi / 2, ea + eb + ec + abs(2 * x - 1) * e2 + e_pi / 2


def _trigamma_duplication(x: Fraction, cfg: OracleConfig) -> tuple[Fraction, Fraction]:
    """4 psi'(2x) - psi'(x) - psi'(x+1/2), the duplication formula differentiated twice."""
    (a, ea), (b, eb), (c, ec) = (trigamma_with_budget(v, cfg) for v in (2 * x, x, x + Fraction(1, 2)))
    return 4 * a - b - c, 4 * ea + eb + ec


def _trigamma_recurrence(x: Fraction, cfg: OracleConfig) -> tuple[Fraction, Fraction]:
    """psi'(x) - psi'(x+1) - 1/x^2 (DLMF 5.15.5)."""
    (a, ea), (b, eb) = trigamma_with_budget(x, cfg), trigamma_with_budget(x + 1, cfg)
    return a - b - 1 / x**2, ea + eb


# identity: (its residual and budget, the series whose term-count edges it visits)
IDENTITIES = {
    "ln-gamma-recurrence": (_ln_gamma_recurrence, "lngamma"),
    "legendre-duplication": (_legendre_duplication, "lngamma"),
    "trigamma-duplication": (_trigamma_duplication, "trigamma"),
    "trigamma-recurrence": (_trigamma_recurrence, "trigamma"),
}


def identity_points(cfg: OracleConfig, series: str) -> list[Fraction]:
    """Points whose identity terms fall in different kernel regimes, with T
    the threshold and E the first 2^k >= T where the series' term count
    changes: 3/2 (every term shifted); (T+1)/2 (x and x + 1/2 shifted, 2x
    not); T - 1/2 (x shifted one step, x + 1/2 and x + 1 not); T (none
    shifted); E - 1 and E/2 (x + 1 and 2x at the edge)."""
    threshold = cfg.shift_threshold
    edge = truncation_points(series_layout(series, cfg), threshold)[0]
    assert edge.denominator == 1 and edge.numerator & (edge.numerator - 1) == 0
    return [Fraction(3, 2), Fraction(threshold + 1, 2), Fraction(2 * threshold - 1, 2),
            Fraction(threshold), edge - 1, edge / 2]


@pytest.mark.parametrize("digits", [19, 50, 200])
@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_oracles_satisfy_the_gamma_identities_within_their_budgets(identity, digits):
    cfg = OracleConfig.for_digits(digits)
    check, series = IDENTITIES[identity]
    for x in identity_points(cfg, series):
        residual, budget = check(x, cfg)
        assert abs(residual) <= budget, f"{identity} at x = {x}, {digits} digits"


@pytest.mark.parametrize("digits", [1000, 2000])
def test_oracles_satisfy_the_gamma_identities_at_high_precision(digits):
    cfg = OracleConfig.for_digits(digits)
    x = Fraction(cfg.shift_threshold + 1, 2)  # x, x + 1/2 and x + 1 shifted, 2x not
    for identity, (check, _) in IDENTITIES.items():
        residual, budget = check(x, cfg)
        assert abs(residual) <= budget, identity


# ---------------------------------------------------------------------------
# Oracle configuration and the series guard
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(0)
    with pytest.raises(ValueError):
        OracleConfig.for_digits(-3)


def test_config_presets_scale_with_digits():
    for digits in (10, 50, 60, 100, 120, 200, 300):
        cfg = OracleConfig.for_digits(digits)
        assert cfg.target_decimal_digits == digits
        assert cfg.guard_digits >= 10
        assert cfg.precision_bits > 3.3 * digits
        # the derived configuration must satisfy the series guard (an
        # integer argument below the threshold would sum no series)
        ln_gamma_ref(Fraction(3, 2), cfg)


def test_shift_threshold_is_derived_from_the_digits():
    # max(ceil(0.4 D + 5), floor((17 D - 331) / 20)) up to D = 297, with D
    # at least the 19 digits that 64 bits carry (the second line takes over
    # from D = 51), and 2D above
    expected = {1: 13, 19: 13, 20: 13, 25: 15, 50: 25, 51: 26, 60: 34, 100: 68, 200: 153,
                250: 195, 297: 235, 298: 596, 300: 600, 500: 1000, 1000: 2000, 2000: 4000}
    for digits, threshold in expected.items():
        assert OracleConfig.for_digits(digits).shift_threshold == threshold


def test_shift_threshold_up_to_50_digits_keeps_the_first_line():
    # perfbench/tests/test_tracing.py pins 23 shift steps from 5/2 at the
    # default 50 digits, so the threshold there stays 25
    for digits in range(1, 51):
        d = max(digits, 19)
        assert OracleConfig.for_digits(digits).shift_threshold == ceil(Fraction(2, 5) * d + 5)


@pytest.mark.parametrize("digits", [60, 100, 200, 300, 500, 1000, 2000])
def test_presets_above_200_digits_pass_the_series_guard(digits):
    cfg = OracleConfig.for_digits(digits)
    _validate_series(cfg.shift_threshold, cfg.series_terms, cfg.target_decimal_digits)


def test_derived_configs_pass_the_series_guard_and_are_tight():
    for digits in [*range(1, 301), 500, 1000, 2000]:
        cfg = OracleConfig.for_digits(digits)
        floor = max(digits, 19)  # the digits 64 bits carry
        assert cfg.series_digits == floor
        threshold, terms = cfg.shift_threshold, cfg.series_terms
        assert isinstance(threshold, int)
        _validate_series(threshold, terms, floor)
        # at most one spare term: two fewer no longer meet the target
        with pytest.raises(PrecisionError):
            _validate_series(threshold, terms - 2, floor)


def test_tiny_digit_targets_respect_the_precision_floor():
    cfg = OracleConfig.for_digits(4)
    assert cfg.precision_bits >= 64
    assert abs(ln_gamma_ref(3, cfg) - ln(PrecisionReal(2, 64))) < Fraction(1, 10**4)


def test_series_guard_rejects_low_threshold():
    with pytest.raises(PrecisionError):
        _validate_series(2, 40, 50)  # series cannot reach 55 digits at y = 2


def test_series_guard_rejects_nondecreasing_terms():
    with pytest.raises(PrecisionError):
        _validate_series(25, 200, 50)  # terms grow again past the minimum


@pytest.mark.parametrize("threshold", [13, 25, 60])
def test_series_guard_decrease_check_stops_at_the_exact_index(threshold):
    # the first j with |B_2j+2| > |B_2j| t^2, found in Fraction arithmetic;
    # a one-digit target keeps the omitted-term check out of the way
    j = 1
    while abs(bernoulli(2 * j + 2)) <= abs(bernoulli(2 * j)) * threshold**2:
        j += 1
    _validate_series(threshold, j - 1, 1)
    with pytest.raises(PrecisionError, match=f"stop decreasing at index {j + 1} "):
        _validate_series(threshold, j, 1)


def _guard_verdict(guard, threshold: int, terms: int, digits: int) -> str | None:
    try:
        guard(threshold, terms, digits)
    except PrecisionError as e:
        return str(e)
    return None


def test_series_guard_on_tangent_numbers_gives_the_fraction_guards_verdicts():
    cases = [(2, 40, 50), (25, 200, 50), (13, 10, 1), (60, 40, 1), (30, 30, 60)]
    for digits in (1, 19, 50, 60, 100, 200, 250, 251, 500, 1000, 2000):
        cfg = OracleConfig.for_digits(digits)
        threshold, terms, d = cfg.shift_threshold, cfg.series_terms, cfg.series_digits
        cases += [(threshold, terms, d), (threshold, terms - 1, d), (threshold, terms - 2, d),
                  (threshold // 2, terms, d), (threshold, terms, d + 20)]
    rng = random.Random(22)
    cases += [(rng.randint(2, 300), rng.randint(1, 150), rng.randint(1, 300)) for _ in range(60)]
    verdicts = set()
    for case in cases:
        want = _guard_verdict(validate_series_fractions, *case)
        assert _guard_verdict(_validate_series, *case) == want, case
        verdicts.add(want is None or want.split()[0])
    assert verdicts == {True, "first", "asymptotic"}  # passes and both refusals


def test_series_terms_refuses_a_target_the_threshold_cannot_reach():
    # at threshold 60 the terms' floor is near 10^-164; a search without an
    # exit would never return, so it runs in a child under a deadline
    code = (
        "from windschitl.precision import PrecisionError, _series_terms\n"
        "try:\n"
        "    _series_terms(60, 200)\n"
        "except PrecisionError as e:\n"
        "    print(e)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=20, env=env
    )
    assert done.returncode == 0, done.stderr
    assert "threshold 60" in done.stdout and "200-digit" in done.stdout


def test_config_derived_values_are_computed_once_per_instance(monkeypatch):
    cfg = OracleConfig.for_digits(77)
    first = (cfg.shift_threshold, cfg.series_terms, cfg.precision_bits)

    def refuse(*args):
        raise AssertionError("recomputed")

    monkeypatch.setattr(precision, "_series_terms", refuse)
    monkeypatch.setattr(precision, "bits_for_digits", refuse)
    assert (cfg.shift_threshold, cfg.series_terms, cfg.precision_bits) == first
    # not fields: equality, hashing and repr see the digits alone
    fresh = OracleConfig(77)
    assert fresh == cfg and hash(fresh) == hash(cfg)
    assert repr(cfg) == repr(fresh) == "OracleConfig(target_decimal_digits=77)"
    with pytest.raises(AttributeError):
        cfg.target_decimal_digits = 3


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def test_format_sci_canonical_forms():
    assert format_sci(Fraction(0), 4) == "0E+0"
    assert format_sci(Fraction(120), 3) == "1.20E+2"
    assert format_sci(Fraction(-1, 3), 4) == "-3.333E-1"
    assert format_sci(Fraction(2918, 10**25), 4) == "2.918E-22"
    with pytest.raises(ValueError):
        format_sci(Fraction(1), 0)


def _ratio(negative: bool, n: int, j: int) -> tuple[int, int]:
    """(num, den) of +-n 10^j."""
    return (-n if negative else n) * 10 ** max(j, 0), 10 ** max(-j, 0)


# (num, den, digits): any ratio, exact ties (a 5 one place past the kept
# digits), and decade carries (nines, then 5 or more, past the kept digits)
_RATIO_CASES = st.one_of(
    st.tuples(st.integers(-(10**60), 10**60).filter(bool), st.integers(1, 10**60), st.integers(1, 40)),
    st.builds(
        lambda negative, a, j: (*_ratio(negative, 10 * a + 5, j), len(str(a))),
        st.booleans(),
        st.integers(1, 10**8),
        st.integers(-30, 30),
    ),
    st.builds(
        lambda negative, n, m, j: (*_ratio(negative, 10 ** (n + 1) - m, j), n),
        st.booleans(),
        st.integers(1, 20),
        st.integers(1, 5),
        st.integers(-30, 30),
    ),
)


@settings(max_examples=300, deadline=None)
@given(case=_RATIO_CASES)
def test_round_ratio_returns_finished_digits(case):
    num, den, digits = case
    q, e, exact = _round_ratio(num, den, digits)
    assert (q, e, exact) == _rounded_digits(Fraction(num, den), digits)
    assert 10 ** (digits - 1) <= q < 10**digits


def test_round_ratio_folds_a_decade_carry_into_the_exponent():
    # 9.9995 and 0.99995 are ties at 4 digits: 9999 is odd, so they round up
    assert _round_ratio(99995, 10**4, 4) == (1000, 1, False)
    assert _round_ratio(-99995, 10**5, 4) == (1000, 0, False)
    assert _round_ratio(99985, 10**4, 4) == (9998, 0, False)


def _binary_value(negative: bool, man: int, exponent: int) -> PrecisionReal:
    raw = libmp.from_man_exp(-man if negative else man, exponent)
    return _wrap(raw, max(MIN_PRECISION_BITS, raw[3]))


def _signed(negative: bool, value: Fraction) -> Fraction:
    return -value if negative else value


# (value, significant digits): binary values exercise the rounding, exact
# short decimals Decimal's trailing-zero rule, and exact halves the ties
_SCI_CASES = st.one_of(
    st.tuples(
        st.builds(_binary_value, st.booleans(), st.integers(1, 2**200), st.integers(-20000, 20000)),
        st.integers(1, 25),
    ),
    st.tuples(
        st.builds(
            lambda negative, n, j: _signed(negative, n * Fraction(10) ** j),
            st.booleans(),
            st.integers(1, 10**12),
            st.integers(-40, 40),
        ),
        st.integers(1, 25),
    ),
    st.builds(
        lambda negative, a, j: (_signed(negative, (10 * a + 5) * Fraction(10) ** j), len(str(a))),
        st.booleans(),
        st.integers(1, 10**6),
        st.integers(-30, 30),
    ),
)


@settings(max_examples=300, deadline=None)
@given(case=_SCI_CASES)
def test_format_sci_matches_decimal_division(case):
    value, sig_digits = case
    assert format_sci(value, sig_digits) == format_sci_decimal(value, sig_digits)


def _dyadic_tie(negative: bool, odd: int, k: int) -> tuple[PrecisionReal, int]:
    """(+-odd / 2^k exactly, its significant digits less one): for k >= 1
    the decimal expansion ends in the digit 5, so one digit fewer is a tie."""
    value = Fraction(-odd if negative else odd, 2**k)
    return PrecisionReal(value, max(MIN_PRECISION_BITS, odd.bit_length())), len(str(odd * 5**k)) - 1


# (PrecisionReal, digits): binary values of any exponent that stays
# printable, and exact dyadic ties, which round half-even
_BINARY_CASES = st.one_of(
    st.tuples(
        st.builds(_binary_value, st.booleans(), st.integers(1, 2**200), st.integers(-20000, 20000)),
        st.integers(1, 60),
    ),
    st.builds(
        _dyadic_tie, st.booleans(), st.integers(0, 2**40).map(lambda n: 2 * n + 1), st.integers(1, 30)
    ).filter(lambda case: case[1] >= 1),
)


@settings(max_examples=300, deadline=None)
@given(case=_SCI_CASES)
def test_format_sci_matches_the_fraction_reference(case):
    value, sig_digits = case
    assert format_sci(value, sig_digits) == format_sci_fraction(value, sig_digits)


@settings(max_examples=300, deadline=None)
@given(case=_BINARY_CASES)
def test_to_decimal_string_is_the_exact_half_even_rounding_laid_out_as_mpmath(case):
    value, digits = case
    assert value.to_decimal_string(digits) == decimal_string_reference(value, digits)
    assert format_sci(value, digits) == format_sci_fraction(value, digits)


def test_ties_round_half_even_in_both_layouts():
    # mpmath's to_str rounds these half up, to 0.13 and -3.0
    eighth, minus_five_halves = PrecisionReal(Fraction(1, 8), 64), PrecisionReal(Fraction(-5, 2), 64)
    assert eighth.to_decimal_string(2) == "0.12"
    assert format_sci(eighth, 2) == "1.2E-1"
    assert minus_five_halves.to_decimal_string(1) == "-2.0"
    assert format_sci(minus_five_halves, 1) == "-2E+0"
    assert PrecisionReal(0, 64).to_decimal_string(3) == "0.0"
    with pytest.raises(ValueError):
        eighth.to_decimal_string(0)


def test_digit_strings_past_the_int_to_str_limit_are_rendered():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        third = PrecisionReal(1, 4000) / 3  # about 1204 digits
        assert third.to_decimal_string(1000) == "0." + "3" * 1000
        assert format_sci(third, 700) == "3." + "3" * 699 + "E-1"
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=200, deadline=None)
@given(
    man=st.integers(-(2**200), 2**200),
    scale=st.integers(-400, 0),
    prec=st.sampled_from([64, 207, 738]),
    data=st.data(),
)
def test_the_log_route_matches_mpmath_exp_at_twice_the_precision(man, scale, prec, data):
    log_value = PrecisionReal(Fraction(man) * Fraction(2) ** scale, prec)
    if abs(log_value) > 700:
        log_value = log_value * Fraction(700) / abs(log_value)
    digits = data.draw(st.integers(1, int(prec / 3.33) - 5))
    with mpmath.workprec(2 * prec):
        want = Fraction(*(int(v) for v in libmp.to_rational(mpmath.exp(mpmath.mpf(log_value.raw))._mpf_)))
    assert exp_decimal_string(log_value, digits) == decimal_string_reference(want, digits)


def test_the_log_route_resolves_a_mantissa_at_a_decimal_exponent_of_4001_digits():
    # ln v = (10^4000 + 1/2) ln 10 at 14000 bits, within 2^-700 of the split's
    # rest: v = sqrt(10) 10^(10^4000)
    log_value = ln(PrecisionReal(10, 14000)) * (10**4000 + Fraction(1, 2))
    want = "3.1622776601683793319988935444327185337195551393252"
    assert exp_decimal_string(log_value, 50) == f"{want}e+{10**4000}"
    assert exp_decimal_string(-log_value, 50) == f"3.1622776601683793319988935444327185337195551393252e-{10**4000 + 1}"
    # the refusal follows Python's own limit on int-to-str conversion
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4000)
    try:
        with pytest.raises(OverflowError, match="more than 4000 digits"):
            exp_decimal_string(log_value, 50)
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_refusal_checks_the_exponent_printed_after_the_mantissa():
    # ln v = (k + 7/10) ln 10 splits as E = k + 1 and exp(r) = 10^(-3/10) <
    # 1, whose rounding moves the printed exponent to k; at 640 digits
    # allowed, k = -10^640 has 641 digits although E = 1 - 10^640 has 640
    ln10 = ln(PrecisionReal(10, 3000))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(OverflowError, match="more than 640 digits"):
            exp_decimal_string(ln10 * -(10**640 - 1 + Fraction(3, 10)), 10)
        assert exp_decimal_string(ln10 * -(10**640 - 2 + Fraction(3, 10)), 10) == f"5.011872336e-{10**640 - 1}"
        assert exp_decimal_string(ln10 * (10**640 - 1 + Fraction(3, 10)), 10) == f"1.995262315e+{10**640 - 1}"
        # and E = 10^640, of 641 digits, prints as the exponent 10^640 - 1
        assert exp_decimal_string(ln10 * (10**640 - Fraction(3, 10)), 10) == f"5.011872336e+{10**640 - 1}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_value_past_the_printable_bits_is_rendered_from_its_logarithm():
    huge = exp(PrecisionReal(10**7, 64))  # about 2^(1.44e7)
    assert abs(huge.raw[2] + huge.raw[3]) > _PRINTABLE_BITS
    for value in (huge, 1 / huge, -huge):
        # mpmath's to_str, digits it resolves at the value's precision
        assert value.to_decimal_string(15) == libmp.to_str(value.raw, 15)
    assert repr(huge).startswith("PrecisionReal('")


def test_unprintable_magnitudes_raise_before_any_conversion():
    huge = exp(PrecisionReal(10**7, 64))  # about 2^(1.44e7)
    for value in (huge, 1 / huge):
        with pytest.raises(OverflowError, match="cannot be printed"):
            format_sci(value, 6)
    assert format_sci(exp(PrecisionReal(10**5, 64)), 3) == "2.81E+43429"
    # near the printable edge, about 2^(2.89e6), one integer division suffices
    edge = exp(PrecisionReal(2 * 10**6, 64))
    assert format_sci(edge, 6) == "9.20040E+868588"
    assert format_sci(1 / edge, 6) == "1.08691E-868589"
