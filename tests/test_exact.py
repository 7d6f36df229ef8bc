import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windschitl import (
    Polynomial,
    PrecisionReal,
    RationalFunction,
    ShapeError,
    SignKind,
    bernoulli,
    sign_criterion,
)
from windschitl import exact
from windschitl.verify import pruned_curvature_minorant, rebuild_curvature_numerator
from support import (
    FractionPolynomial,
    assert_sign_criterion_matches_brute_force,
    bernoulli_recursion,
    brute_force_sign_profile,
    tangent_from_recursion,
)

# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def bernoulli_double_sum(n: int) -> Fraction:
    """Independent oracle: the explicit double-sum formula (B_1 = -1/2)."""
    total = Fraction(0)
    for k in range(n + 1):
        inner = sum(Fraction((-1) ** j * comb(k, j) * j**n) for j in range(k + 1))
        total += inner / (k + 1)
    return total


def test_bernoulli_base_case():
    assert bernoulli(0) == 1


def test_bernoulli_convention():
    assert bernoulli(1) == Fraction(-1, 2)


@pytest.mark.parametrize("n", range(25))
def test_bernoulli_matches_double_sum_oracle(n):
    assert bernoulli(n) == bernoulli_double_sum(n)


def test_bernoulli_matches_the_recursion_through_200():
    for n in range(201):
        assert bernoulli(n) == bernoulli_recursion(n), n


def test_bernoulli_cache_grows_once_then_serves_smaller_indices(monkeypatch):
    monkeypatch.setattr(exact, "_tangent_cache", [0])
    assert bernoulli(300) == bernoulli_recursion(300)
    filled = len(exact._tangent_cache)
    assert filled > 150
    assert bernoulli(120) == bernoulli_recursion(120)
    assert len(exact._tangent_cache) == filled
    assert exact._tangent_cache == [tangent_from_recursion(k) for k in range(filled)]
    assert exact.tangent_numbers(60) == exact._tangent_cache[:61]
    # a miss at least doubles the range: T_151 asks for T_0 .. T_302
    exact.tangent_numbers(filled)
    assert len(exact._tangent_cache) == 2 * filled + 1


def test_bernoulli_cache_growth_under_thread_contention(monkeypatch):
    import sys
    import threading

    monkeypatch.setattr(exact, "_tangent_cache", [0])
    orders = [(40, 200, 10, 120), (200, 3, 120, 41), (1, 121, 60, 199)] * 4
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def worker(i):
        start.wait(timeout=60)
        results[i] = [bernoulli(n) for n in orders[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for order, values in zip(orders, results):
        assert values == [bernoulli_recursion(n) for n in order]
    tangents = exact._tangent_cache
    assert len(tangents) > 100  # T_100, for B_200
    assert tangents == [tangent_from_recursion(k) for k in range(len(tangents))]


def test_bernoulli_cross_checked_by_csch_coefficients():
    # -2(2^(2i-1) - 1) B_2i / (2i)! must reproduce the published series terms
    assert -2 * (Fraction(2) ** 1 - 1) * bernoulli(2) / factorial(2) == Fraction(-1, 6)
    assert bernoulli(2) == Fraction(1, 6)
    assert -2 * (Fraction(2) ** 9 - 1) * bernoulli(10) / factorial(10) == Fraction(-73, 3421440)
    assert bernoulli(10) == Fraction(5, 66)


def test_bernoulli_odd_indices_vanish():
    for i in range(1, 16):
        assert bernoulli(2 * i + 1) == 0


def test_bernoulli_even_signs_alternate():
    for i in range(1, 16):
        assert (1 if bernoulli(2 * i) > 0 else -1) == (-1) ** (i + 1)


def test_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_cache_is_consistent_under_threads():
    import threading

    results = []

    def worker():
        results.append([bernoulli(n) for n in (120, 60, 90)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0][1] == bernoulli_double_sum(60)


# ---------------------------------------------------------------------------
# Rational canonical form
# ---------------------------------------------------------------------------


def test_fraction_canonical_form_under_random_ops():
    rng = random.Random(1729)
    ops = "+-*/"
    value = Fraction(1)
    for _ in range(10_000):
        other = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        op = rng.choice(ops)
        if op == "+":
            value = value + other
        elif op == "-":
            value = value - other
        elif op == "*":
            value = value * other
        elif other != 0:
            value = value / other
        if abs(value) > 10**12 or value == 0:
            value = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        assert value.denominator > 0
        assert gcd(value.numerator, value.denominator) == 1


# ---------------------------------------------------------------------------
# Polynomial arithmetic
# ---------------------------------------------------------------------------

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
polys_st = st.lists(fractions_st, min_size=0, max_size=9).map(Polynomial)


def test_identity_squared():
    t = Polynomial.identity()
    assert t * t == Polynomial.monomial(2)


def test_csch_minorant_square_low_coefficients():
    h = Polynomial.from_terms(
        {
            0: 1,
            2: Fraction(-1, 6),
            4: Fraction(7, 360),
            6: Fraction(-31, 15120),
            8: Fraction(127, 604800),
            10: Fraction(-73, 3421440),
        }
    )
    square = h * h
    assert square.degree == 20
    assert square.coefficient(0) == 1
    assert square.coefficient(2) == Fraction(-1, 3)


def test_cubed_binomial_endpoints():
    cube = Polynomial((35, 0, 33)) ** 3
    assert cube.coefficient(cube.degree) == 33**3 == 35937
    assert cube.coefficient(0) == 35**3 == 42875


@given(a=polys_st, b=polys_st)
@settings(max_examples=60)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(a=polys_st, b=polys_st)
@settings(max_examples=60)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(a=polys_st, b=polys_st, c=polys_st)
@settings(max_examples=60)
def test_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(a=polys_st, b=polys_st, c=polys_st)
@settings(max_examples=60)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(a=polys_st, b=polys_st)
@settings(max_examples=60)
def test_degree_law_for_products(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).degree == a.degree + b.degree


@given(a=polys_st, b=polys_st, x=fractions_st)
@settings(max_examples=60)
def test_evaluation_is_a_ring_morphism(a, b, x):
    assert (a + b)(x) == a(x) + b(x)
    assert (a * b)(x) == a(x) * b(x)


def test_evaluation_examples():
    t_minus_1 = Polynomial((-1, 1))
    assert t_minus_1(1) == 0
    h = Polynomial.from_terms(
        {
            0: 1,
            2: Fraction(-1, 6),
            4: Fraction(7, 360),
            6: Fraction(-31, 15120),
            8: Fraction(127, 604800),
            10: Fraction(-73, 3421440),
        }
    )
    # h(1) equals the constant term of the substituted polynomial at x = 0:
    # both routes evaluate the same quantity through different forms
    even_part = Polynomial(
        (
            Fraction(1),
            Fraction(-1, 6),
            Fraction(7, 360),
            Fraction(-31, 15120),
            Fraction(127, 604800),
            Fraction(-73, 3421440),
        )
    )
    substituted = even_part.compose(Polynomial((1, -1)))
    assert h(1) == substituted(0) == Fraction(14556793, 17107200)


def test_compose_and_reciprocal_substitution():
    p = Polynomial((1, 2, 3))  # 3t^2 + 2t + 1
    q = Polynomial((1, 1))  # t + 1
    assert p.compose(q) == Polynomial((6, 8, 3))
    rev = p.reciprocal_substitution()
    assert rev == Polynomial((3, 2, 1))
    assert p.reciprocal_substitution(4) == Polynomial((0, 0, 3, 2, 1))
    with pytest.raises(ValueError):
        p.reciprocal_substitution(1)


def test_divided_by_power():
    p = Polynomial((0, 0, 0, 5, 7))
    assert p.divided_by_power(3) == Polynomial((5, 7))
    with pytest.raises(ValueError):
        p.divided_by_power(4)


def test_polynomial_rejects_floats():
    with pytest.raises(TypeError):
        Polynomial((0.5, 1))
    # evaluation is exact too: a rounded point is refused, the zero polynomial included
    for p in (Polynomial((1, 2)), Polynomial()):
        with pytest.raises(TypeError):
            p(PrecisionReal(Fraction(1, 3), 64))


def test_polynomial_normalization_and_degree():
    assert Polynomial((1, 2, 0, 0)).degree == 1
    assert Polynomial(()).degree == -1
    assert Polynomial((0, 0)).is_zero()


# ---------------------------------------------------------------------------
# Integer numerators over one denominator, against the Fraction reference
# ---------------------------------------------------------------------------

# wide and coprime denominators, so the common denominator, its rescaling in
# sums and the final gcd reduction all have work to do; integers and zeros
# take the denominator-1 paths
coefficient_st = st.one_of(
    fractions_st,
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6),
    st.integers(-50, 50),
    st.just(0),
)
coefficients_st = st.lists(coefficient_st, max_size=8)
scalar_st = st.one_of(fractions_st, st.integers(-20, 20))


def assert_canonical(p: Polynomial) -> None:
    nums, den = p._nums, p._den
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert type(den) is int and den > 0
    assert gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    if not nums:
        assert den == 1


def assert_matches(p: Polynomial, ref: FractionPolynomial) -> None:
    assert_canonical(p)
    assert p.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)


def both(cs):
    return Polynomial(cs), FractionPolynomial(cs)


@given(a=coefficients_st, b=coefficients_st, s=scalar_st)
@settings(max_examples=150)
def test_ring_operations_match_the_fraction_reference(a, b, s):
    (p, p_ref), (q, q_ref) = both(a), both(b)
    assert_matches(p, p_ref)
    assert_matches(p + q, p_ref + q_ref)
    assert_matches(q + p, q_ref + p_ref)
    assert_matches(p - q, p_ref - q_ref)
    assert_matches(-p, -p_ref)
    assert_matches(p * q, p_ref * q_ref)
    assert_matches(p * s, p_ref * s)
    assert_matches(s * p, p_ref * s)
    assert_matches(p + s, p_ref + FractionPolynomial((s,)))
    assert_matches(s - p, FractionPolynomial((s,)) - p_ref)


@given(a=coefficients_st, n=st.integers(0, 5))
@settings(max_examples=60)
def test_powers_match_the_fraction_reference(a, n):
    p, p_ref = both(a[:4])
    assert_matches(p**n, p_ref**n)


@given(a=coefficients_st)
@settings(max_examples=30)
def test_powers_equal_repeated_products(a):
    p = Polynomial(a[:4])
    product = Polynomial.constant(1)
    for n in range(9):
        assert p**n == product
        product = product * p


def test_a_square_is_one_product(monkeypatch):
    multiply = Polynomial.__mul__
    calls = []

    def counted(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    x = Polynomial.identity()
    assert x**2 == Polynomial((0, 0, 1))
    assert len(calls) == 1
    calls.clear()
    # 6 = 110 in binary: two squarings and one product, none by the initial 1
    assert x**6 == Polynomial((0,) * 6 + (1,))
    assert len(calls) == 3


@given(a=coefficients_st, b=coefficients_st, k=st.integers(0, 4), extra=st.integers(0, 3))
@settings(max_examples=120)
def test_transforms_match_the_fraction_reference(a, b, k, extra):
    (p, p_ref), (q, q_ref) = both(a), both(b[:4])
    assert_matches(p.derivative(), p_ref.derivative())
    assert_matches(p.compose(q), p_ref.compose(q_ref))
    d = p.degree + extra
    assert_matches(p.reciprocal_substitution(d), p_ref.reciprocal_substitution(d))
    shifted, shifted_ref = both((0,) * k + tuple(a))
    assert_matches(shifted.divided_by_power(k), shifted_ref.divided_by_power(k))


@given(a=coefficients_st, x=st.one_of(scalar_st, coefficient_st, st.integers(-(10**12), 10**12)))
@settings(max_examples=150)
def test_evaluation_at_rationals_matches_the_fraction_reference(a, x):
    p, p_ref = both(a)
    value = p(x)
    assert type(value) is Fraction
    assert value == p_ref(x)


@given(a=coefficients_st, x=fractions_st, prec=st.sampled_from([64, 100, 200]))
@settings(max_examples=60)
def test_evaluation_at_precision_reals_is_refused(a, x, prec):
    # evaluation is exact: a rounded point is refused like a float coefficient
    with pytest.raises(TypeError):
        Polynomial(a)(PrecisionReal(x, prec))


def test_coeffs_are_canonical_fractions():
    p = Polynomial((Fraction(2, 4), 3, Fraction(-10, 6), 0, 0))
    assert p.coeffs == (Fraction(1, 2), Fraction(3), Fraction(-5, 3))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert (p._nums, p._den) == ((3, 18, -10), 6)
    assert p.coefficient(p.degree) == Fraction(-5, 3) and p.coefficient(1) == 3 and p.coefficient(7) == 0
    assert_canonical(p)
    # numerators with a common factor coprime to the denominator stay as they are
    q = Polynomial((4, 2))
    assert (q._nums, q._den) == ((4, 2), 1)
    zero = Polynomial((0, Fraction(0, 7)))
    assert (zero._nums, zero._den) == ((), 1)
    assert zero.coeffs == () and zero.coefficient(zero.degree) == 0 and zero.degree == -1


def test_equal_polynomials_built_different_ways_compare_and_hash_equal():
    t = Polynomial.identity()
    expanded = Polynomial((1, 2, 1))
    built = [
        (t + 1) ** 2,
        (t + 1) * (t + 1),
        t * t + 2 * t + 1,
        Polynomial.from_terms({2: 1, 0: 1, 1: 2}),
        Polynomial((Fraction(3, 3), Fraction(4, 2), 1, Fraction(0, 5))),
        (expanded * Fraction(7, 3)) * Fraction(3, 7),
        Polynomial((Fraction(1, 6), Fraction(1, 3), Fraction(1, 6))) * 6,
        Polynomial((0, 0, 1)).compose(t + 1),
        Polynomial((1, 2, 1, 0, 0)).reciprocal_substitution(2),
        Polynomial.monomial(3, 4).derivative() * Fraction(1, 12) + Polynomial((1, 2)),
        (Polynomial((0, 0, 1, 2, 1)) * Fraction(5, 2)).divided_by_power(2) * Fraction(2, 5),
        Polynomial((Fraction(1, 2), Fraction(3, 4), 1)) + Polynomial((Fraction(1, 2), Fraction(5, 4))),
    ]
    for p in built:
        assert_canonical(p)
        assert p == expanded and hash(p) == hash(expanded)
    assert len(set(built)) == 1
    cancelled = (t + Fraction(1, 3)) - (t + Fraction(1, 3))
    assert_canonical(cancelled)
    assert cancelled == Polynomial.zero() and hash(cancelled) == hash(Polynomial.zero())


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


def test_trivial_ratfun_equality():
    t = Polynomial.identity()
    assert RationalFunction(t, t) == RationalFunction(1, 1)


@given(num=polys_st, den=polys_st, factor=polys_st)
@settings(max_examples=60)
def test_ratfun_equality_invariances(num, den, factor):
    if den.is_zero():
        den = Polynomial.constant(1)
    f = RationalFunction(num, den)
    assert f == f
    g = RationalFunction(num * Fraction(1, 3), den * Fraction(1, 3))
    assert f == g and g == f
    if not factor.is_zero():
        scaled = RationalFunction(num * factor, den * factor)
        assert f == scaled and scaled == f


def test_ratfun_arithmetic_and_derivative():
    t = Polynomial.identity()
    f = RationalFunction(1, t)  # 1/t
    g = RationalFunction(t, Polynomial.constant(1))
    assert f * g == RationalFunction(1, 1)
    assert f + f == RationalFunction(2, t)
    # (t^2)' = 2t through the quotient rule with denominator 1
    sq = RationalFunction(t * t, Polynomial.constant(1))
    assert sq.derivative() == RationalFunction(2 * t, Polynomial.constant(1))
    # (1/t)' = -1/t^2
    assert f.derivative() == RationalFunction(Polynomial.constant(-1), t * t)


# dyadic points n 2^-t of either sign, with t = 0 among them and n of 2000 bits or more
dyadic_points_st = st.tuples(
    st.one_of(st.integers(-(10**6), 10**6), st.integers(2**2000, 2**2100), st.integers(-(2**2050), -(2**2000))),
    st.one_of(st.just(0), st.integers(1, 80), st.integers(2000, 2100)),
)


@given(a=coefficients_st, b=coefficients_st, point=dyadic_points_st)
@settings(max_examples=150)
def test_dyadic_evaluation_is_the_exact_value(a, b, point):
    # zero numerators, and denominators negative at the point, are among the cases
    den = Polynomial(b) if any(b) else Polynomial.constant(1)
    f, (n, t) = RationalFunction(Polynomial(a), den), point
    num, d = f.at_dyadic(n, t)
    x = Fraction(n, 2**t)
    if den(x) == 0:
        assert d == 0
    else:
        assert Fraction(num, d) == f(x)


def test_ratfun_evaluation_and_zero_denominator():
    t = Polynomial.identity()
    f = RationalFunction(t + 1, t)
    assert f(2) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        f(0)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(t, Polynomial.zero())


# ---------------------------------------------------------------------------
# Single-probe sign criterion
# ---------------------------------------------------------------------------


def test_sign_criterion_linear_example():
    p = Polynomial((-1, 1))  # t - 1
    assert sign_criterion(p, 0, 2) is SignKind.ALL_POSITIVE_ON_INTERVAL


def test_sign_criterion_probe_hits_root():
    p = Polynomial((-1, 1))
    assert sign_criterion(p, 0, 1) is SignKind.SINGLE_CROSSING


def test_sign_criterion_cubic_example():
    # t^3 + t^2 - t - 1 = (t - 1)(t + 1)^2, shaped with m = 1
    p = Polynomial((-1, -1, 1, 1))
    assert sign_criterion(p, 1, Fraction(1, 2)) is SignKind.ALL_NEGATIVE_ON_INTERVAL
    # independent check by dense scan
    oracle_lo, oracle_hi = brute_force_sign_profile(p)
    assert oracle_lo <= 1 <= oracle_hi


def test_sign_criterion_shape_violations():
    with pytest.raises(ShapeError):
        sign_criterion(Polynomial((1, 1)), 0, 1)  # constant term positive
    with pytest.raises(ShapeError):
        sign_criterion(Polynomial((-1, -1)), 0, 1)  # negative leading term
    with pytest.raises(ShapeError):
        sign_criterion(Polynomial((-1, 1)), 1, 1)  # pivot at the degree
    with pytest.raises(ShapeError):
        sign_criterion(Polynomial((0, 1)), 0, 1)  # pivot coefficient zero
    with pytest.raises(ShapeError):
        sign_criterion(Polynomial((-1, -2, 3, 1)), 0, 1)  # negative above pivot


def test_sign_criterion_rejects_bad_probe():
    with pytest.raises(ValueError):
        sign_criterion(Polynomial((-1, 1)), 0, 0)


def test_sign_criterion_irrational_root():
    p = Polynomial((-2, 0, 1))  # root sqrt(2), never hit exactly
    oracle_lo, oracle_hi = brute_force_sign_profile(p)
    assert 1 < oracle_lo and oracle_hi < 2
    assert sign_criterion(p, 0, 1) is SignKind.ALL_NEGATIVE_ON_INTERVAL
    assert sign_criterion(p, 0, 2) is SignKind.ALL_POSITIVE_ON_INTERVAL


def test_sign_criterion_evaluates_the_polynomial_once(monkeypatch):
    negated = -pruned_curvature_minorant(rebuild_curvature_numerator().divided_by_power(11))
    evaluate = Polynomial.__call__
    calls = []

    def counted(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    assert sign_criterion(negated, 3, 1) is SignKind.ALL_NEGATIVE_ON_INTERVAL
    assert calls == [1]


def test_sign_criterion_agrees_with_brute_force_on_random_shapes():
    assert_sign_criterion_matches_brute_force(cases=100, seed=20240817)
