import csv
import io
from fractions import Fraction

import pytest

from windschitl import (
    CheckStatus,
    FormulaId,
    OracleConfig,
    PrecisionError,
    PrecisionReal,
    RATE_DECAY_LIMIT,
    estimate_rate_constant,
    format_sci,
    verify_best_constants,
    verify_convexity_polynomials,
    verify_csch_bound,
    verify_monotone_convex,
    verify_trigamma_bound,
)
from windschitl.verify import (
    CURVATURE_COEFFS,
    PRUNED_VALUE_AT_ONE,
    correction_defect_derivatives,
    report_lines,
    reports_to_csv,
    trigamma_lower_bound,
)

from support import fresh_memos

CFG = OracleConfig.for_digits(50)
SMALL_GRID = tuple(Fraction(k) for k in range(1, 11))


# ---------------------------------------------------------------------------
# The four certification checks pass
# ---------------------------------------------------------------------------


def test_trigamma_bound_passes(monkeypatch):
    import windschitl.verify as verify

    oracle = verify.trigamma_ref
    calls = []
    monkeypatch.setattr(verify, "trigamma_ref", lambda *a: calls.append(a) or oracle(*a))
    report = verify_trigamma_bound(CFG)
    assert report.passed
    assert len(calls) == 32  # 30 grid points, psi'(3/2) once, psi'(103/2)
    assert report.tolerance_used == Fraction(1, 10**40)
    assert any("telescoping" in w.description for w in report.witnesses)


def test_csch_bound_passes():
    report = verify_csch_bound(CFG)
    assert report.passed
    assert any("h(1)" in w.description for w in report.witnesses)


def test_convexity_polynomials_pass():
    report = verify_convexity_polynomials(CFG)
    assert report.passed
    # the sign-list omission at degree 5 is reported as information, not failure
    notes = [w for w in report.witnesses if "degree 5" in w.description]
    assert notes and all(w.ok for w in notes)


def test_best_constants_pass():
    report = verify_best_constants(CFG)
    assert report.passed


def test_monotone_convex_passes_for_both_gaps(monkeypatch):
    import windschitl.verify as verify

    render = verify.format_sci
    calls = []
    monkeypatch.setattr(verify, "format_sci", lambda *a: calls.append(a) or render(*a))
    for which in ("w2", "w2star"):
        report = verify_monotone_convex(which, SMALL_GRID, CFG)
        assert report.passed, report.failures
    assert calls == []  # a witness is rendered only for a failed expectation


# ---------------------------------------------------------------------------
# Exact artifacts exposed for reuse
# ---------------------------------------------------------------------------


def test_trigamma_bound_value_at_one():
    assert trigamma_lower_bound()(1) == Fraction(49644, 53125)


def test_curvature_table_shape():
    assert set(CURVATURE_COEFFS) == set(range(23))
    assert CURVATURE_COEFFS[22] == Fraction(58619, 119439360)
    assert CURVATURE_COEFFS[0] == Fraction(2341955, 27)
    assert PRUNED_VALUE_AT_ONE == Fraction(1135768202621781774901, 1792519787520000)


def test_displayed_forms_share_the_published_denominator():
    from windschitl import Polynomial
    from windschitl.verify import _X_BOUND, _X_TAIL

    den = _X_BOUND.reciprocal_substitution().den * _X_TAIL.reciprocal_substitution().den
    sextic = Polynomial((77, 231, 560, 735, 623, 294, 60))
    assert den == Polynomial((35, 0, 33)) ** 3 * sextic


def test_correction_defect_derivative_forms_agree():
    assembled, displayed_first, displayed_second = correction_defect_derivatives()
    assert assembled == displayed_first
    assert displayed_first.derivative() == displayed_second


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------


def test_perturbed_curvature_coefficient_fails_with_witness():
    bad = dict(CURVATURE_COEFFS)
    bad[13] += Fraction(1, 10**30)
    report = verify_convexity_polynomials(CFG, expected=bad)
    assert not report.passed
    assert any(
        "degree-13" in w.description and not w.ok for w in report.witnesses
    )


def test_mutated_correction_fails_both_correction_checks(monkeypatch):
    import windschitl.verify as verify
    from windschitl import Polynomial, RationalFunction

    mutated = RationalFunction(7, 324 * Polynomial.from_terms({3: 34, 5: 35}))
    monkeypatch.setattr(verify, "W2_CORRECTION", mutated)
    for check in (verify_convexity_polynomials, verify_best_constants):
        report = check(CFG)
        assert not report.passed
        assert any("correction" in w.description for w in report.failures), report.failures


def test_mutated_trigamma_display_fails_source_and_divisibility_checks(monkeypatch):
    import windschitl.verify as verify
    from windschitl import Polynomial, RationalFunction

    # one coefficient of the cleared r(x + 1/2) changed, x^6: 77 -> 78.  The
    # display feeds the numerator, whose low-order cancellation breaks; any
    # one-coefficient change leaves a term below t^11
    shown = verify._X_BOUND
    numerator = verify.rebuild_curvature_numerator()
    mutated = RationalFunction(shown.num, shown.den + Polynomial.monomial(6))
    monkeypatch.setattr(verify, "_X_BOUND", mutated)
    assert verify.rebuild_curvature_numerator() != numerator
    failures = [w.description for w in verify_convexity_polynomials(CFG).failures]
    assert failures == [
        "half-shifted trigamma bound matches its cleared form",
        "cleared numerator is divisible by t^11",
    ]


def test_perturbed_csch_coefficient_fails_the_substitution(monkeypatch):
    import windschitl.verify as verify

    derived = verify.csch_truncation_coefficients()
    perturbed = derived[:5] + (derived[5] + Fraction(1, 10**9),)
    monkeypatch.setattr(verify, "csch_truncation_coefficients", lambda: perturbed)
    failures = [w.description for w in verify_csch_bound(CFG).failures]
    assert any(d.startswith("t^10 coefficient") for d in failures), failures
    assert "substituted polynomial matches all six published coefficients" in failures


def test_constant_function_fails_monotonicity():
    def flat(x, cfg):
        return PrecisionReal(1, 64)

    report = verify_monotone_convex(flat, SMALL_GRID, CFG)
    assert not report.passed
    assert any("strictly decreasing" in w.description for w in report.failures)


def test_failed_monotone_expectations_show_the_slope_and_the_value():
    def rising(x, cfg):
        return PrecisionReal(x, 64)

    failures = verify_monotone_convex(rising, SMALL_GRID, CFG).failures
    decreasing = [w.value for w in failures if "strictly decreasing" in w.description]
    assert decreasing == ["1E+0"] * (len(SMALL_GRID) - 1)  # the slope, not the margin -1
    in_range = [w.value for w in failures if "lies in" in w.description]
    assert in_range == [f"{k}E+0" for k in range(2, 10)] + ["1.0E+1"]  # the value, not the margin


def test_grid_preconditions_are_enforced():
    with pytest.raises(ValueError):
        verify_monotone_convex("w2", (1, 2), CFG)  # too short
    with pytest.raises(ValueError):
        verify_monotone_convex("w2", (2, 2, 3), CFG)  # not increasing
    with pytest.raises(ValueError):
        verify_monotone_convex("w2", (Fraction(1, 2), 1, 2), CFG)  # below 1
    with pytest.raises(ValueError):
        verify_monotone_convex("nope", SMALL_GRID, CFG)


# ---------------------------------------------------------------------------
# Decay-rate estimation
# ---------------------------------------------------------------------------


def test_rate_constant_both_formulas():
    cfg = OracleConfig.for_digits(60)
    # the x^-2 extrapolation is exact-in-structure for w2 (odd-power gap);
    # the linear-corrected variant carries an extra x^-10 term that leaves
    # a small residue, so its extrapolation budget is looser
    budgets = {FormulaId.W2: Fraction(1, 10**8), FormulaId.W2STAR: Fraction(1, 10**5)}
    for formula, budget in budgets.items():
        estimate = estimate_rate_constant(
            (Fraction(100), Fraction(1000)), formula, cfg
        )
        deviation = abs(estimate.at_largest - RATE_DECAY_LIMIT) / RATE_DECAY_LIMIT
        assert deviation < Fraction(1, 2000)  # 0.05 %
        rich_dev = abs(estimate.richardson - RATE_DECAY_LIMIT) / RATE_DECAY_LIMIT
        assert rich_dev < budget


def test_rate_defaults_to_rate_digits():
    xs = (Fraction(100), Fraction(1000))
    implicit = estimate_rate_constant(xs)
    explicit = estimate_rate_constant(xs, FormulaId.W2, OracleConfig.for_digits(60))
    assert implicit.xs == explicit.xs and implicit.formula is explicit.formula
    for field in ("at_largest", "richardson"):
        got, want = getattr(implicit, field), getattr(explicit, field)
        assert (got.raw, got.prec) == (want.raw, want.prec)


def test_rate_makes_one_oracle_call_per_abscissa(monkeypatch, fresh_memos):
    import windschitl.formulas as formulas
    import windschitl.verify as verify

    oracle = formulas.ln_gamma_ref
    calls = []

    def counting(*args):
        calls.append(args)
        return oracle(*args)

    # the noise floor reuses ln Gamma(x+1) from the gap instead of asking again
    monkeypatch.setattr(formulas, "ln_gamma_ref", counting)
    monkeypatch.setattr(verify, "ln_gamma_ref", counting)
    estimate_rate_constant((Fraction(100), Fraction(1000)), FormulaId.W2, OracleConfig.for_digits(60))
    assert len(calls) == 2


def test_scaled_gap_at_ten_frozen_value():
    # next-order effects keep x = 10 visibly away from the limit: the scaled
    # gap measures 2.7849352e-4, a 4.60 % deficit against 869/2976750
    cfg = OracleConfig.for_digits(60)
    estimate = estimate_rate_constant((Fraction(10),), FormulaId.W2, cfg)
    assert format_sci(estimate.at_largest, 8) == "2.7849352E-4"
    deviation = abs(estimate.at_largest - RATE_DECAY_LIMIT) / RATE_DECAY_LIMIT
    assert Fraction(4, 100) < deviation < Fraction(5, 100)
    assert estimate.richardson == estimate.at_largest  # single point


def test_rate_monotone_approach():
    cfg = OracleConfig.for_digits(80)
    xs = (Fraction(100), Fraction(400), Fraction(1600), Fraction(6400))
    estimate = estimate_rate_constant(xs, FormulaId.W2, cfg)
    values = [
        estimate_rate_constant((x,), FormulaId.W2, cfg).at_largest for x in xs
    ]
    for a, b in zip(values, values[1:]):
        assert a < b < RATE_DECAY_LIMIT
    assert abs(estimate.richardson - RATE_DECAY_LIMIT) < RATE_DECAY_LIMIT * Fraction(1, 10**9)


def test_rate_precision_floor_is_detected():
    with pytest.raises(PrecisionError):
        estimate_rate_constant((Fraction(10**4),), FormulaId.W2, OracleConfig.for_digits(50))


def test_rate_input_validation():
    with pytest.raises(ValueError):
        estimate_rate_constant((), FormulaId.W2)
    with pytest.raises(ValueError):
        estimate_rate_constant((Fraction(5),), FormulaId.W2)
    with pytest.raises(ValueError):
        estimate_rate_constant((Fraction(100), Fraction(100)), FormulaId.W2)
    with pytest.raises(ValueError):
        estimate_rate_constant((Fraction(100),), FormulaId.STIRLING)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def test_report_lines_format():
    report = verify_csch_bound(CFG)
    lines = report_lines(report)
    assert lines[0].startswith("PASS csch-bound")
    assert any("tolerance" in line for line in lines)


def test_reports_to_csv_is_parseable():
    reports = [verify_csch_bound(CFG)]
    text = reports_to_csv(reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["check_name", "status", "witness", "value"]
    assert all(row[0] == "csch-bound" and row[1] == "pass" for row in rows[1:])


def test_failing_report_carries_pinpointing_witness():
    bad = dict(CURVATURE_COEFFS)
    bad[0] = Fraction(1)
    report = verify_convexity_polynomials(CFG, expected=bad)
    assert report.status is CheckStatus.FAIL
    assert report.failures  # at least one witness names the violated quantity
    assert "degree-0" in report.failures[0].description


def test_report_invariant_rejects_unwitnessed_failure():
    from windschitl.verify import VerificationReport

    with pytest.raises(ValueError):
        VerificationReport("anything", CheckStatus.FAIL)
