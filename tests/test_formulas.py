from fractions import Fraction
from math import log2

import mpmath
import pytest
from mpmath import libmp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windschitl import (
    DomainError,
    FormulaId,
    OracleConfig,
    Polynomial,
    PrecisionReal,
    RationalFunction,
    Target,
    W2_CORRECTION,
    exp,
    format_sci,
    ln,
    ln_gamma_ref,
    log_approximate,
    log_error,
    pi,
    sinh,
    sqrt,
    trigamma_ref,
    w2_log_gap,
    w2star_log_gap,
)
from windschitl import formulas, precision
from windschitl.formulas import _FORMULAS, _windschitl_core
from windschitl.precision import DEFAULT_DIGITS, _MEMO_SIZE, _stirling_fixed

from support import bits, expm1_reference, fresh_memos, ulps_off

CFG = OracleConfig.for_digits(50)
PREC = CFG.precision_bits


# ---------------------------------------------------------------------------
# Catalog structure
# ---------------------------------------------------------------------------


def test_tags_are_the_stable_strings():
    assert {f.value for f in FormulaId} == {
        "stirling",
        "w0",
        "w1",
        "w2",
        "w2star",
        "lsm",
        "ramanujan",
        "smith",
        "nemes1",
        "nemes2",
        "chen",
        "yangchu1",
        "yangchu2",
    }
    assert FormulaId("w2") is FormulaId.W2


def test_half_shift_targets():
    half = {FormulaId.SMITH, FormulaId.YANGCHU1, FormulaId.YANGCHU2}
    for f in FormulaId:
        expected = Target.GAMMA_X_PLUS_HALF if f in half else Target.GAMMA_X_PLUS_1
        assert f.target is expected


def test_nonpositive_arguments_are_rejected():
    with pytest.raises(DomainError):
        exp(log_approximate(FormulaId.W2, PrecisionReal(0, 64)))
    with pytest.raises(DomainError):
        log_error(FormulaId.W2, Fraction(-1), CFG)


# ---------------------------------------------------------------------------
# Point values
# ---------------------------------------------------------------------------


def test_stirling_at_five():
    value = exp(log_approximate(FormulaId.STIRLING, PrecisionReal(5, PREC)))
    # sqrt(10 pi) (5/e)^5, a touch below 5! = 120
    closed = sqrt(10 * pi(PREC)) * (5 / exp(PrecisionReal(1, PREC))) ** 5
    assert abs(value - closed) < Fraction(1, 10**45)
    assert value.to_decimal_string(12) == "118.019167958"
    record = log_error(FormulaId.STIRLING, 5, CFG)
    assert format_sci(record.relative_error, 3) == "1.65E-2"


def test_windschitl_base_at_one_closed_form():
    value = exp(log_approximate(FormulaId.W0, PrecisionReal(1, PREC)))
    closed = sqrt(2 * pi(PREC) * sinh(PrecisionReal(1, PREC))) / exp(PrecisionReal(1, PREC))
    assert abs(value - closed) < Fraction(1, 10**45)
    record = log_error(FormulaId.W0, 1, CFG)
    assert abs(record.relative_error - abs(closed - 1)) < Fraction(1, 10**45)


def test_corrected_formulas_at_one():
    w2 = log_error(FormulaId.W2, 1, CFG)
    assert exp(log_approximate(FormulaId.W2, PrecisionReal(1, PREC))) < 1  # underestimates
    assert format_sci(w2.relative_error, 4) == "2.407E-5"
    w1 = log_error(FormulaId.W1, 1, CFG)
    assert format_sci(w1.relative_error, 4) == "1.832E-4"


def test_published_cells_at_ten_and_hundred():
    assert format_sci(log_error(FormulaId.W2, 10, CFG).relative_error, 4) == "2.785E-13"
    assert format_sci(log_error(FormulaId.NEMES2, 100, CFG).relative_error, 4) == "3.684E-18"


def test_half_shift_formula_is_compared_to_gamma_x_plus_half():
    record = log_error(FormulaId.SMITH, 3, CFG)
    # Gamma(3.5) = 15 sqrt(pi) / 8; independent reconstruction of the gap
    gamma_35 = 15 * sqrt(pi(PREC)) / 8
    direct = ln(gamma_35) - log_approximate(FormulaId.SMITH, PrecisionReal(3, PREC))
    assert abs(record.log_gap - direct) < Fraction(1, 10**45)
    assert record.relative_error < Fraction(1, 10**5)


def gap_ulps(record) -> Fraction:
    """relative_error against |expm1(-log_gap)| from mpmath at twice the precision, in ulps."""
    return ulps_off(record.relative_error, abs(expm1_reference(-record.log_gap)))


# gaps from 1e-2 down to 2^-(prec+60), where exp(-gap) - 1 cancels all but a few bits
GAP_EXPONENTS = (7, 30, 100, 300)


@pytest.mark.parametrize("digits", [19, 50, 200])
def test_relative_error_is_within_an_ulp_of_expm1_of_the_gap(monkeypatch, digits):
    cfg = OracleConfig.for_digits(digits)
    prec = cfg.precision_bits
    # the formulas' own gaps, of both signs (positive for W2, negative for Chen)
    for formula in FormulaId:
        for x in (1, Fraction(1234, 1000), 7, 500):
            record = log_error(formula, x, cfg)
            assert gap_ulps(record) <= 1, (formula, x)
    # log_error's relative error at chosen gaps, through the same call
    gaps = [Fraction(1, 100)] + [Fraction(3, 2**e) for e in GAP_EXPONENTS] + [Fraction(1, 2 ** (prec + 60))]
    for gap in gaps:
        for value in (gap, -gap):
            chosen = PrecisionReal(value, prec)
            monkeypatch.setattr(formulas, "_log_gap", lambda formula, x, cfg: (chosen, chosen))
            record = log_error(FormulaId.W2, 1, cfg)
            assert record.log_gap is chosen
            assert gap_ulps(record) <= 1, value


# ---------------------------------------------------------------------------
# One rounding: each formula within its stated budget of mpmath
# ---------------------------------------------------------------------------


def mpmath_fraction(fn, x: PrecisionReal) -> Fraction:
    """fn at x's exact value, by mpmath at 2p + 64 bits, exactly as a Fraction."""
    with mpmath.workprec(2 * x.prec + 64):
        value = fn(mpmath.mpf(x.raw))
        return Fraction(*(int(v) for v in libmp.to_rational(value._mpf_)))


def _ln_formula(formula: FormulaId, v):
    """ln F(v) as the paper writes each formula, in mpmath at its working precision."""
    ln, sinh, tanh, mpf = mpmath.log, mpmath.sinh, mpmath.tanh, mpmath.mpf
    half_base = ln(2 * mpmath.pi) / 2 + v * ln(v) - v
    stirling = half_base + ln(v) / 2
    y = 7 / (324 * v**3 * (35 * v**2 + 33))
    forms = {
        FormulaId.STIRLING: lambda: stirling,
        FormulaId.W0: lambda: stirling + (v / 2) * ln(v * sinh(1 / v)),
        FormulaId.W1: lambda: stirling + (v / 2) * ln(v * sinh(1 / v) + 1 / (810 * v**6)),
        FormulaId.W2: lambda: stirling + (v / 2) * ln(v * sinh(1 / v)) + y,
        FormulaId.W2STAR: lambda: stirling + (v / 2) * ln(v * sinh(1 / v)) + ln(1 + y),
        FormulaId.LSM: lambda: stirling + (v / 2) * ln(
            v * sinh(1 / v + 1 / (810 * v**7) - mpf(67) / (42525 * v**9) + mpf(19) / (8505 * v**11))
        ),
        FormulaId.RAMANUJAN: lambda: (
            ln(2 * mpmath.pi) / 2 - ln(2) / 2 + v * ln(v) - v + ln(8 * v**3 + 4 * v**2 + v + mpf(1) / 30) / 6
        ),
        FormulaId.SMITH: lambda: half_base + (v / 2) * ln(2 * v * tanh(1 / (2 * v))),
        FormulaId.NEMES1: lambda: stirling + v * ln(1 + 1 / (12 * v**2 - mpf(1) / 10)),
        FormulaId.NEMES2: lambda: stirling + (210 * v**2 + 53) / (360 * v * (7 * v**2 + 2)),
        FormulaId.CHEN: lambda: stirling + (v**2 + mpf(53) / 210) * ln(1 + 1 / (12 * v**3 + mpf(24) / 7 * v - mpf(1) / 2)),
        FormulaId.YANGCHU1: lambda: half_base - v / (24 * (v**2 + mpf(7) / 120)),
        FormulaId.YANGCHU2: lambda: half_base - 1 / (24 * v) + mpf(7) / 2880 / v / (v**2 + mpf(31) / 98),
    }
    return forms[formula]()


def ln_formula_reference(formula: FormulaId, x: PrecisionReal) -> Fraction:
    return mpmath_fraction(lambda v: _ln_formula(formula, v), x)


def _shape_units(term) -> Fraction:
    """A defect term's stated budget in units of 2^-F, by its shape (formulas'
    docstrings): 1 for a rational function, 1.32 for m ln(1 + u), or 1.26 at
    m = 1, and 1.33 for a hyperbolic logarithm, the memoized core's shape."""
    if term is _windschitl_core or term.func is formulas._hyperbolic:
        return Fraction("1.33")
    if term.func is formulas._rational:
        return 1
    assert term.func is formulas._times_log1p
    return Fraction("1.26") if term.args[0] == 1 else Fraction("1.32")


# each row's budget, the sum of its terms': W2 2.33, W2* 2.59, every other row
# with a defect 1, 1.32 or 1.33
_DEFECT_UNITS = {formula: sum(map(_shape_units, defects), 0) for formula, (_, defects) in _FORMULAS.items()}


def defect_units(formula: FormulaId, x: PrecisionReal) -> tuple[Fraction, Fraction]:
    """(how far the unrounded sum that log_approximate rounds is from ln F(x),
    what its docstrings allow), both in units of 2^-F: the Stirling term's
    3.75 units and each defect term's own."""
    twice_a, defects = _FORMULAS[formula]
    total, frac_bits = _stirling_fixed(x.raw, twice_a, x.prec)
    total += sum(defect(x, frac_bits) for defect in defects)
    assert log_approximate(formula, x).raw == libmp.from_man_exp(total, -frac_bits, x.prec, "n")
    scale = Fraction(2) ** frac_bits
    budget = Fraction(15, 4) + _DEFECT_UNITS[formula]
    return abs(total - ln_formula_reference(formula, x) * scale), budget


def test_row_budgets_are_the_stated_ones():
    stated = {FormulaId.W2: "2.33", FormulaId.W2STAR: "2.59", FormulaId.LSM: "1.33", FormulaId.STIRLING: "0"}
    assert {f: _DEFECT_UNITS[f] for f in stated} == {f: Fraction(units) for f, units in stated.items()}


def _defined(formula: FormulaId, x: Fraction) -> bool:
    """Whether ln F(x) is real: 1 + u > 0 in Nemes' and Chen's ln(1 + u)."""
    if formula is FormulaId.NEMES1:
        return 120 * x * x > 1
    if formula is FormulaId.CHEN:
        return 168 * x**3 + 48 * x > 7
    return True


# x log-uniform in [1, 10^30] with four significant digits, and in [10^-6, 1)
_ABOVE_ONE = st.builds(lambda m, e: Fraction(m, 1000) * 10**e, st.integers(1000, 9999), st.integers(0, 29))
_BELOW_ONE = st.builds(lambda m, e: Fraction(m, 10000) / 10**e, st.integers(1000, 9999), st.integers(0, 5))


@pytest.mark.parametrize("digits", [50, 200])
@pytest.mark.parametrize("formula", list(FormulaId), ids=lambda f: f.value)
@given(x=st.one_of(_ABOVE_ONE, _BELOW_ONE))
@settings(max_examples=25, deadline=None)
def test_each_formula_is_within_its_one_rounding_budget(formula, digits, x):
    if not _defined(formula, x):
        return
    error, budget = defect_units(formula, PrecisionReal(x, OracleConfig.for_digits(digits).precision_bits))
    assert error <= budget


def _declared_functions() -> dict[str, RationalFunction]:
    """Every rational function the formula rows declare, named by formula and
    position among its term's arguments."""
    found = {}
    for formula, (_, defects) in _FORMULAS.items():
        for defect in defects:
            for i, arg in enumerate(getattr(defect, "args", ())):
                if isinstance(arg, RationalFunction):
                    name = f"{formula.value}-{i}"
                    assert name not in found
                    found[name] = arg
    return found


_DECLARED = _declared_functions()


def test_every_declared_function_is_found():
    assert sorted(_DECLARED) == [
        "chen-0", "chen-1", "lsm-3", "nemes1-0", "nemes1-1", "nemes2-0", "ramanujan-0", "ramanujan-1",
        "w1-2", "w2-0", "w2star-0", "w2star-1", "yangchu1-0", "yangchu2-0",
    ]
    # W2 and W2* add the paper's correction, and LSM declares its argument by its excess
    assert _DECLARED["w2-0"] is _DECLARED["w2star-1"] is W2_CORRECTION
    assert _DECLARED["lsm-3"] is formulas._LSM_EXCESS


@pytest.mark.parametrize("name", sorted(_DECLARED))
@given(
    n=st.one_of(st.integers(1, 10**6), st.integers(2**2000, 2**2100)),
    t=st.one_of(st.just(0), st.integers(1, 80), st.integers(2000, 2100)),
)
@example(n=1, t=7)  # x = 1/128: chen's u has a negative denominator, below its domain
@settings(max_examples=30, deadline=None)
def test_declared_functions_evaluate_exactly_at_dyadic_points(name, n, t):
    f, x = _DECLARED[name], Fraction(n, 2**t)
    num, den = f.at_dyadic(n, t)
    assert den != 0 and Fraction(num, den) == f(x)
    if name == "chen-1" and (n, t) == (1, 7):
        assert den < 0


def test_declarations_equal_the_papers_other_forms():
    x = Polynomial.identity()
    # Yang and Chu's second formula is declared as one fraction of the paper's sum
    paper_sum = RationalFunction(-1, 24 * x) + RationalFunction(Fraction(7, 2880), x * (x * x + Fraction(31, 98)))
    assert _FORMULAS[FormulaId.YANGCHU2][1][0].args[0] == paper_sum
    # Ramanujan's u = t/2 + t^2/8 + t^3/240 in t = 1/x, and LSM's x s - 1 as its comment writes it
    u_in_t = RationalFunction(Polynomial((0, Fraction(1, 2), Fraction(1, 8), Fraction(1, 240))))
    assert _FORMULAS[FormulaId.RAMANUJAN][1][0].args[1] == u_in_t.reciprocal_substitution()
    assert formulas._LSM_EXCESS == RationalFunction(Polynomial((190, 0, -134, 0, 105)), 85050 * x**10)


@pytest.mark.parametrize("frac_bits", [-20, 233, 410, 780, 1150])
def test_hyperbolic_logarithms_are_within_their_budget_on_both_sides_of_the_switch(frac_bits):
    # r = 2^-m (1 + a little) for m from -2 to 12 crosses the series' mag < 0
    # and, at each precision but the lowest, its length limit; the last case
    # has LSM's shape, r = (1 + e) 2^-m (1 + a little) and the factor f = 1 + e,
    # with e = 161/85050, LSM's excess at x = 1
    sides = set()
    for m in range(-2, 13):
        p, q = (3**40 + 1) << max(-m, 0), 3**40 << max(m, 0)
        for tanh, c, f in (
            (False, (0, 1), (1, 1)),
            (True, (0, 1), (1, 1)),
            (False, (1, 810 * 3**6), (1, 1)),
            (False, (0, 1), (85050 + 161, 85050)),
        ):
            r = (p * f[0], q * f[1])
            mag = r[0].bit_length() - r[1].bit_length() + 1
            sides.add(mag < 0 and max(frac_bits, 0) + precision._HYPERBOLIC_GUARD <= precision._HYPERBOLIC_SERIES_RATIO * -mag)
            with mpmath.workprec(max(frac_bits, 0) + 256):
                rr = mpmath.mpf(r[0]) / r[1]
                h = (mpmath.tanh(rr) if tanh else mpmath.sinh(rr)) / rr * f[0] / f[1] + mpmath.mpf(c[0]) / c[1]
                want = mpmath.log(h) * mpmath.mpf(2) ** frac_bits
                want = Fraction(*(int(v) for v in libmp.to_rational(want._mpf_)))
            got = precision._log_hyperbolic(r, frac_bits, tanh, c, f)
            assert abs(got - want) <= Fraction(132, 100), (m, tanh, c, f)
    assert sides == {True, False}


@pytest.mark.parametrize("x", [Fraction(9, 100), Fraction(1, 100), Fraction(1, 10**6)])
def test_ln_of_a_nonpositive_one_plus_u_is_refused(x):
    for formula in (FormulaId.NEMES1, FormulaId.CHEN):
        with pytest.raises(DomainError, match="^ln needs a positive argument$"):
            log_approximate(formula, PrecisionReal(x, PREC))


# ---------------------------------------------------------------------------
# The Windschitl-core memo
# ---------------------------------------------------------------------------

CORE_FORMULAS = (FormulaId.W0, FormulaId.W2, FormulaId.W2STAR)


@pytest.mark.parametrize("prec", [64, PREC, 1000])
def test_memoized_core_is_bit_identical_to_a_fresh_evaluation(fresh_memos, prec):
    xs = [PrecisionReal(q, prec) for q in (1, Fraction(3, 2), Fraction(7, 3), 10**5)]
    first = [log_approximate(f, x) for x in xs for f in CORE_FORMULAS]
    info = _windschitl_core.cache_info()
    assert (info.misses, info.hits) == (len(xs), len(first) - len(xs))  # one core per x
    _windschitl_core.cache_clear()
    fresh = [log_approximate(f, x) for x in xs for f in CORE_FORMULAS]
    assert list(map(bits, first)) == list(map(bits, fresh))
    # and the memoized core gives W0 within its stated budget
    for x in xs:
        error, budget = defect_units(FormulaId.W0, x)
        assert error <= budget


def scaled_star_defect(x: PrecisionReal, frac_bits: int) -> Fraction:
    """(y - ln(1 + y)) 2^frac_bits for the exact y = W2_CORRECTION(x), by
    mpmath at frac_bits + 512 bits: ln W2 - ln W2* in fixed point."""
    y = W2_CORRECTION(x.to_fraction())
    with mpmath.workprec(max(frac_bits, 0) + 512):
        v = mpmath.mpf(y.numerator) / y.denominator
        want = (v - mpmath.log1p(v)) * mpmath.mpf(2) ** frac_bits
        return Fraction(*(int(w) for w in libmp.to_rational(want._mpf_)))


@pytest.mark.parametrize("prec", [64, PREC, 1000])
def test_w2_and_w2star_share_one_core_and_the_exact_correction_per_point(fresh_memos, prec):
    # ln W2 - ln W2* = y - ln(1 + y) with y = W2_CORRECTION(x) exact: the one
    # memoized core cancels, and what remains is the correction terms' 1 and
    # 1.26 units, with no rounding of y at x's precision
    xs = [PrecisionReal(q, prec) for q in (1, Fraction(3, 2), Fraction(7, 3), 10**5)]
    for x in xs:
        totals = {}
        for formula in (FormulaId.W2, FormulaId.W2STAR):
            twice_a, defects = _FORMULAS[formula]
            total, frac_bits = _stirling_fixed(x.raw, twice_a, x.prec)
            totals[formula] = total + sum(defect(x, frac_bits) for defect in defects)
        want = scaled_star_defect(x, frac_bits)
        assert abs(totals[FormulaId.W2] - totals[FormulaId.W2STAR] - want) <= 1 + Fraction("1.26"), x
    assert _windschitl_core.cache_info()[:2] == (len(xs), len(xs))  # hits, misses


def test_memos_under_thread_contention_give_the_sequential_bits(fresh_memos):
    import random
    import sys
    import threading

    # more distinct arguments than any memo holds, so threads also evict
    xs = [Fraction(k, 3) for k in range(3, _MEMO_SIZE + 35)]
    want = {x: bits(w2_log_gap(x, CFG)) for x in xs}
    for memo in fresh_memos:
        memo.cache_clear()
    orders = [random.Random(seed).sample(xs, len(xs)) for seed in range(6)]
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def worker(i):
        start.wait(timeout=60)
        results[i] = [bits(w2_log_gap(x, CFG)) for x in orders[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for order, got in zip(orders, results):
        assert got == [want[x] for x in order]
    for memo in fresh_memos:
        assert memo.cache_info().currsize <= _MEMO_SIZE


# ---------------------------------------------------------------------------
# Error functionals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "oracle",
    [
        ln_gamma_ref,
        trigamma_ref,
        w2_log_gap,
        w2star_log_gap,
        lambda x, *cfg: log_error(FormulaId.W2, x, *cfg).log_gap,
    ],
    ids=["ln_gamma_ref", "trigamma_ref", "w2_log_gap", "w2star_log_gap", "log_error"],
)
def test_omitted_cfg_is_the_default_digits(oracle):
    x = Fraction(3, 2)
    implicit, explicit = oracle(x), oracle(x, OracleConfig.for_digits(DEFAULT_DIGITS))
    assert (implicit.raw, implicit.prec) == (explicit.raw, explicit.prec)


def test_gap_at_one_displays_as_published():
    assert format_sci(w2_log_gap(1, CFG), 4) == "2.407E-5"
    assert format_sci(w2star_log_gap(1, CFG), 4) == "2.412E-5"


def test_gap_vanishes_at_infinity():
    cfg = OracleConfig.for_digits(80)
    tail = w2_log_gap(10**6, cfg)
    assert tail > 0
    assert tail < Fraction(1, 10**50)


def test_gap_is_between_zero_and_value_at_one():
    g1 = w2_log_gap(1, CFG)
    g2 = w2_log_gap(2, CFG)
    assert 0 < g2 < g1


def test_gap_positive_on_sample_points():
    for x in (Fraction(3, 2), 2, 5, 17, 120):
        assert w2_log_gap(x, CFG) > 0
        assert w2star_log_gap(x, CFG) > 0


@pytest.mark.parametrize("prec", [64, 200, 1000])
@pytest.mark.parametrize(
    "x", [Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(10), Fraction(10**6), Fraction(1, 1000)]
)
def test_exact_correction_matches_the_rounded_evaluator(x, prec):
    # W2's correction term is the exact y = W2_CORRECTION(x) floored once at
    # the Stirling term's fraction bits: under one unit low, at any size of y
    x = PrecisionReal(x, prec)
    frac_bits = _stirling_fixed(x.raw, 1, prec)[1]
    scaled = W2_CORRECTION(x.to_fraction()) * Fraction(2) ** frac_bits
    got = _FORMULAS[FormulaId.W2][1][1](x, frac_bits)
    assert got == formulas._rational(W2_CORRECTION, x, frac_bits)
    assert 0 <= scaled - got < 1


# W2* adds ln(1 + y) where W2 adds the exact y = W2_CORRECTION(x), so the
# two rows differ by y - ln(1 + y), all but whose last bits cancel when y is
# tiny: each correction term is rounded once from y itself, so none of the
# cancellation is paid at x's precision.
@pytest.mark.parametrize("digits", [50, 200])
@pytest.mark.parametrize("x", [10, 10**3, 10**6, 10**15])
def test_the_two_corrections_differ_by_y_minus_log1p_y(x, digits):
    x = PrecisionReal(x, OracleConfig.for_digits(digits).precision_bits)
    frac_bits = _stirling_fixed(x.raw, 1, x.prec)[1]
    w2, w2star = (_FORMULAS[f][1][1](x, frac_bits) for f in (FormulaId.W2, FormulaId.W2STAR))
    assert abs(w2 - w2star - scaled_star_defect(x, frac_bits)) <= 1 + Fraction("1.26")


def test_the_star_gap_keeps_the_digits_of_a_tiny_defect():
    # at x = 10^6 the defect is near 1.9e-67, some 20 digits below either gap
    cfg = OracleConfig.for_digits(200)
    defect = w2star_log_gap(10**6, cfg) - w2_log_gap(10**6, cfg)
    assert format_sci(defect, 7) == "1.905197E-67"


def test_star_gap_identity():
    # W2 adds the exact y to the shared core and W2* adds ln(1 + y)
    lhs = w2star_log_gap(3, CFG) - w2_log_gap(3, CFG)
    rhs = mpmath_fraction(lambda v: v - mpmath.log1p(v), PrecisionReal(W2_CORRECTION(Fraction(3)), PREC))
    assert abs(lhs - rhs) < Fraction(1, 10**45)


# Every entry point follows one argument rule: a PrecisionReal keeps its
# exact value, so a 64-bit argument gives the result of its rational value.
_ARGUMENT_RULE_ENTRIES = {
    "log_error": lambda x, cfg: log_error(FormulaId.W2, x, cfg).log_gap,
    "w2_log_gap": w2_log_gap,
    "w2star_log_gap": w2star_log_gap,
    "ln_gamma_ref": ln_gamma_ref,
    "trigamma_ref": trigamma_ref,
}


@pytest.mark.parametrize("entry", sorted(_ARGUMENT_RULE_ENTRIES))
@pytest.mark.parametrize("x", [Fraction(4, 3), Fraction(7, 10)], ids=str)
def test_low_precision_argument_keeps_its_exact_value(entry, x):
    fn = _ARGUMENT_RULE_ENTRIES[entry]
    arg = PrecisionReal(x, 64)
    assert fn(arg, CFG).raw == fn(arg.to_fraction(), CFG).raw


@pytest.mark.parametrize("entry", sorted(_ARGUMENT_RULE_ENTRIES))
def test_wider_argument_sets_the_working_precision(entry):
    arg = PrecisionReal(Fraction(4, 3), 2 * PREC)
    assert _ARGUMENT_RULE_ENTRIES[entry](arg, CFG).prec == 2 * PREC


# ---------------------------------------------------------------------------
# Comparative structure
# ---------------------------------------------------------------------------


def test_error_hierarchy_at_published_abscissas():
    for x in (1, 2, 5, 10, 20, 50, 100):
        w2 = log_error(FormulaId.W2, x, CFG).relative_error
        for other in (FormulaId.W1, FormulaId.NEMES2, FormulaId.CHEN):
            assert w2 < log_error(other, x, CFG).relative_error


def test_sinh_refinement_beats_power_correction_at_five():
    lsm = log_error(FormulaId.LSM, 5, CFG).relative_error
    w1 = log_error(FormulaId.W1, 5, CFG).relative_error
    assert lsm < w1


def test_windschitl_envelope_on_sample_points():
    # W0(x) < Gamma(x+1) < W0(x) (1 + 1/(1620 x^5)) on a small sample;
    # the acceptance suite runs the full 50-point grid
    for x in (Fraction(1, 10), Fraction(1), Fraction(13, 2), Fraction(20)):
        xv = PrecisionReal(x, PREC)
        gap = ln_gamma_ref(x + 1, CFG) - log_approximate(FormulaId.W0, xv)
        upper = ln(1 + 1 / (1620 * xv**5))
        assert 0 < gap < upper


# one decade of decay pins each formula's convergence exponent
_DECAY_EXPONENTS = {
    FormulaId.STIRLING: 1,
    FormulaId.W0: 5,
    FormulaId.W1: 7,
    FormulaId.W2: 9,
    FormulaId.W2STAR: 9,
    FormulaId.LSM: 11,
    FormulaId.RAMANUJAN: 4,
    FormulaId.SMITH: 5,
    FormulaId.NEMES1: 5,
    FormulaId.NEMES2: 7,
    FormulaId.CHEN: 7,
    FormulaId.YANGCHU1: 5,
    FormulaId.YANGCHU2: 7,
}


@pytest.mark.parametrize("formula", list(FormulaId), ids=lambda f: f.value)
def test_decay_exponent_matches_published_rate(formula):
    cfg = OracleConfig.for_digits(60)
    e10 = log_error(formula, 10, cfg).relative_error.to_float()
    e20 = log_error(formula, 20, cfg).relative_error.to_float()
    slope = log2(e10 / e20)
    assert abs(slope - _DECAY_EXPONENTS[formula]) < 0.25
