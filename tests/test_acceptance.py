"""Acceptance suite.

One test per acceptance criterion; each prints a single
``ACCEPTANCE <n> PASS|FAIL -- <description>`` line (run with ``pytest -s``
to see the lines as they happen) and then asserts.
"""

import random
import time
from fractions import Fraction
from math import factorial

from windschitl import (
    FormulaId,
    GoldenCell,
    OracleConfig,
    PrecisionReal,
    RATE_DECAY_LIMIT,
    RationalFunction,
    Polynomial,
    SignKind,
    TABLE_GOLDENS,
    check_goldens,
    estimate_rate_constant,
    exp,
    format_sci,
    ln,
    ln_gamma_ref,
    log_approximate,
    pi,
    sign_criterion,
    sinh,
    trigamma_ref,
    verify_best_constants,
    verify_convexity_polynomials,
    verify_monotone_convex,
    w2_log_gap,
    w2star_log_gap,
)
from windschitl.verify import (
    CURVATURE_COEFFS,
    PRUNED_VALUE_AT_ONE,
    correction_defect_derivatives,
    csch_truncation_coefficients,
    pruned_curvature_minorant,
    rebuild_curvature_numerator,
    _SANDWICH_NS,
    trigamma_lower_bound,
    _linear_grid,
)
from support import assert_sign_criterion_matches_brute_force

CFG50 = OracleConfig.for_digits(50)


def _conclude(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} -- {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_reference_table_reproduction():
    started = time.perf_counter()
    report = check_goldens(cells=TABLE_GOLDENS, cfg=CFG50)
    elapsed = time.perf_counter() - started
    misprints = [w.description for w in report.witnesses]
    ok = report.passed and elapsed < 10.0
    ok = ok and misprints == ["misprint (x=2, nemes2)", "misprint (x=100, w1)"]
    _conclude(
        1,
        f"all 28 published cells print at 4 significant digits as published, "
        f"the two misprints as corrected, at 50 digits in {elapsed:.2f}s (< 10s)",
        ok,
    )


def test_criterion_2_sharp_constants():
    prec = CFG50.precision_bits
    gap_1 = w2_log_gap(1, CFG50)
    closed = Fraction(22025, 22032) - ln(2 * pi(prec) * sinh(PrecisionReal(1, prec))) / 2
    checks = [
        abs(gap_1 - closed) < Fraction(1, 10**40),
        format_sci(gap_1, 4) == "2.407E-5",
        format_sci(w2star_log_gap(1, CFG50), 4) == "2.412E-5",
        format_sci(exp(gap_1), 10) == "1.000024067E+0",
        format_sci(exp(w2star_log_gap(1, CFG50)), 10) == "1.000024117E+0",
    ]
    _conclude(
        2,
        "gap(1) matches 22025/22032 - ln sqrt(2 pi sinh 1) and the four "
        "constants display as published",
        all(checks),
    )


def test_criterion_3_exact_proof_artifacts():
    checks = []

    # telescoped trigamma difference collapses to the certified product
    r = trigamma_lower_bound()
    lhs = (
        -RationalFunction(Polynomial.constant(1), Polynomial((Fraction(1, 2), 1)) ** 2)
        - r.compose(Polynomial((1, 1)))
        + r
    )
    rhs = RationalFunction(
        Polynomial.constant(-58982400),
        Polynomial((1, 2)) ** 2
        * Polynomial((375, 0, 9212, 0, 17360, 0, 4928))
        * Polynomial((31875, 117432, 187292, 168000, 91280, 29568, 4928)),
    )
    checks.append(lhs == rhs)

    # the six csch-series coefficients from the Bernoulli identity
    checks.append(
        csch_truncation_coefficients()
        == (
            Fraction(1),
            Fraction(-1, 6),
            Fraction(7, 360),
            Fraction(-31, 15120),
            Fraction(127, 604800),
            Fraction(-73, 3421440),
        )
    )

    # the substitution polynomial under t^2 = 1 - x
    substituted = Polynomial(csch_truncation_coefficients()).compose(Polynomial((1, -1)))
    checks.append(
        substituted
        == Polynomial(
            (
                Fraction(14556793, 17107200),
                Fraction(15950191, 119750400),
                Fraction(858623, 59875200),
                Fraction(85243, 59875200),
                Fraction(12371, 119750400),
                Fraction(73, 3421440),
            )
        )
    )

    # the degree-22 numerator, coefficient by coefficient
    full = rebuild_curvature_numerator().divided_by_power(11)
    checks.append(full.degree == 22)
    checks.append(all(full.coefficient(k) == CURVATURE_COEFFS[k] for k in range(23)))

    # the pruned minorant at 1
    checks.append(pruned_curvature_minorant(full)(1) == PRUNED_VALUE_AT_ONE)

    # the correction-defect derivative identities
    assembled, displayed_first, displayed_second = correction_defect_derivatives()
    checks.append(assembled == displayed_first)
    checks.append(displayed_first.derivative() == displayed_second)

    _conclude(
        3,
        "telescoping identity, csch coefficients, substitution polynomial, "
        "all 23 curvature coefficients, minorant value at 1, and both "
        "defect-derivative identities hold exactly",
        all(checks),
    )


def test_criterion_4_sign_criterion_application():
    full = rebuild_curvature_numerator().divided_by_power(11)
    pruned = pruned_curvature_minorant(full)
    kind = sign_criterion(-pruned, 3, Fraction(1))
    checks = [kind is SignKind.ALL_NEGATIVE_ON_INTERVAL, pruned(1) > 0]

    try:
        assert_sign_criterion_matches_brute_force(cases=100, seed=20240817)
    except AssertionError as disagreement:
        print(disagreement)
        checks.append(False)

    _conclude(
        4,
        "negated minorant satisfies the pivot-3 shape, the probe at 1 "
        "proves positivity on (0, 1], and the criterion agrees with the "
        "brute-force oracle on 100 random shaped polynomials",
        all(checks),
    )


def test_criterion_5_inequality_suites():
    prec = CFG50.precision_bits
    tol = Fraction(1, 10**40)

    # base-formula envelope with the sharp 1/1620 constant, 50 points
    envelope_ok = True
    for i in range(50):
        x = Fraction(1, 10) + Fraction(199, 10) * Fraction(i, 49)
        xv = PrecisionReal(x, prec)
        gap = ln_gamma_ref(x + 1, CFG50) - log_approximate(FormulaId.W0, xv)
        upper = ln(1 + 1 / (1620 * xv**5))
        envelope_ok &= tol < gap < upper - tol

    # factorial sandwiches for n = 1..20 (sharp at n = 1)
    assert _SANDWICH_NS == range(1, 21)
    sandwiches = verify_best_constants(CFG50)

    # monotone and convex on a 100-point grid in [1, 50]
    grid = _linear_grid(Fraction(1), Fraction(50), 100)
    mono_w2 = verify_monotone_convex("w2", grid, CFG50)
    mono_w2star = verify_monotone_convex("w2star", grid, CFG50)

    _conclude(
        5,
        "the 1/1620 envelope holds on 50 points, both sandwiches hold for "
        "n = 1..20, and both gaps are decreasing and convex with range "
        "(0, value-at-1] on 100 points",
        envelope_ok and sandwiches.passed and mono_w2.passed and mono_w2star.passed,
    )


def test_criterion_6_decay_rate_constant():
    cfg = OracleConfig.for_digits(60)
    ok = True
    for formula in (FormulaId.W2, FormulaId.W2STAR):
        estimate = estimate_rate_constant((Fraction(100), Fraction(1000)), formula, cfg)
        deviation = abs(estimate.at_largest - RATE_DECAY_LIMIT) / RATE_DECAY_LIMIT
        ok &= deviation < Fraction(1, 2000)
    _conclude(
        6,
        "x^9-scaled gaps at x = 1000 (60 digits) match 869/2976750 within "
        "0.05% for both corrected formulas",
        ok,
    )


def test_criterion_7_oracle_self_consistency():
    checks = []
    for n in (1, 10, 100):
        want = ln(PrecisionReal(factorial(n), CFG50.precision_bits))
        got = ln_gamma_ref(n + 1, CFG50)
        checks.append(
            abs(got - want) < Fraction(1, 10**50) * max(1, abs(want.to_fraction()))
        )

    rng = random.Random(99)
    cfg_hi = OracleConfig.for_digits(100)
    for _ in range(20):
        x = Fraction(rng.randint(1, 200_000), 1000)
        a, b = ln_gamma_ref(x, CFG50), ln_gamma_ref(x, cfg_hi)
        checks.append(abs(a - b) < Fraction(1, 10**50) * max(1, abs(b.to_fraction())))

    x = Fraction(37, 10)
    residual = trigamma_ref(x + 1, CFG50) - trigamma_ref(x, CFG50) + Fraction(1) / x**2
    checks.append(abs(residual) < Fraction(1, 10**45))

    _conclude(
        7,
        "reference oracle matches exact ln n!, is stable under precision "
        "doubling on 20 arguments, and satisfies the trigamma recurrence",
        all(checks),
    )


def test_criterion_8_negative_controls():
    perturbed = dict(CURVATURE_COEFFS)
    perturbed[13] += Fraction(1, 10**30)
    table_report = verify_convexity_polynomials(CFG50, expected=perturbed)
    table_flipped = not table_report.passed and any(
        "degree-13" in w.description for w in table_report.failures
    )

    broken_cell = GoldenCell(Fraction(5), FormulaId.W2, "9.999e-10")
    golden_report = check_goldens(cells=(broken_cell,), cfg=CFG50)
    golden_flipped = not golden_report.passed and any(
        "x=5, w2" in w.description for w in golden_report.failures
    )

    _conclude(
        8,
        "perturbing one curvature coefficient and one golden cell each "
        "flips its check to FAIL with a pinpointing witness",
        table_flipped and golden_flipped,
    )
