"""Certification suite for the exponent-corrected Windschitl formula.

Every algebraic ingredient of the monotonicity/convexity proof of the
formula's log error is re-derived here and checked exactly (rational and
polynomial identities, coefficient tables, sign patterns); the remaining
transcendental inequalities are checked numerically on finite grids with
an explicit tolerance, and the published comparison table is recomputed
cell by cell.  Each check returns a :class:`VerificationReport` whose
witnesses pinpoint any violated quantity.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from ._record import Record
from .exact import (
    Polynomial,
    RationalFunction,
    SignKind,
    bernoulli,
    sign_criterion,
)
from .formulas import (
    W2_CORRECTION,
    FormulaId,
    _log_gap,
    log_error,
    w2_log_gap,
    w2star_log_gap,
)
from .goldens import TABLE_GOLDENS, GoldenCell
from .precision import (
    DEFAULT_CONFIG,
    OracleConfig,
    PrecisionError,
    PrecisionReal,
    exp,
    format_sci,
    ln,
    ln_gamma_ref,  # noqa: F401 - unused here; perfbench/tests/test_tracing.py checks this binding
    pi,
    sinh,
    sqrt,
    trigamma_ref,
    working_argument,
)

__all__ = [
    "CheckStatus",
    "Witness",
    "VerificationReport",
    "RateEstimate",
    "RATE_DECAY_LIMIT",
    "RATE_DIGITS",
    "verify_trigamma_bound",
    "verify_csch_bound",
    "verify_convexity_polynomials",
    "verify_best_constants",
    "verify_monotone_convex",
    "check_goldens",
    "estimate_rate_constant",
    "report_lines",
    "reports_to_csv",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"


class Witness(Record):
    def __init__(self, description: str, value: str, ok: bool = True):
        vars(self).update(description=description, value=value, ok=ok)


class VerificationReport(Record):
    def __init__(
        self,
        check_name: str,
        status: CheckStatus,
        witnesses: tuple[Witness, ...] = (),
        tolerance_used: Fraction | None = None,
    ):
        vars(self).update(
            check_name=check_name, status=status, witnesses=witnesses, tolerance_used=tolerance_used
        )
        if status is CheckStatus.FAIL and not self.failures:
            raise ValueError("a failing report must carry a pinpointing witness")

    @property
    def passed(self) -> bool:
        return self.status is CheckStatus.PASS

    @property
    def failures(self) -> tuple[Witness, ...]:
        return tuple(w for w in self.witnesses if not w.ok)


def _resolvable_floor(cfg: OracleConfig, scale=1) -> Fraction:
    """10^-(D-10) max(1, |scale|): the least margin that resolves at D digits.

    The oracles deliver about 10^-D max(1, |value|), so a margin of a quantity
    of size ``scale`` is evidence only when it stands ten digits above that.
    """
    return Fraction(10) ** (10 - cfg.target_decimal_digits) * max(Fraction(1), abs(scale))


def _witness(shown) -> str:
    """A failed numeric expectation's witness: a string as given, a number
    at 3 significant digits."""
    return shown if isinstance(shown, str) else format_sci(shown, 3)


class _Checks:
    """Accumulates pass/fail observations into one report.

    A failed expectation always records a witness; informational notes
    are kept too, so a failing report pinpoints the violated quantity.
    Given a ``cfg``, numeric margins are judged against the resolvable
    floor at its digits, reported as the check's tolerance.  A numeric
    expectation shows ``shown`` (default the margin) only when it fails,
    so a passing check formats nothing.
    """

    def __init__(self, name: str, cfg: OracleConfig | None = None) -> None:
        if cfg is not None and cfg.target_decimal_digits <= 10:
            raise PrecisionError(
                f"numeric checks need more than 10 digits, got {cfg.target_decimal_digits}"
            )
        self.name = name
        self.tolerance = None if cfg is None else _resolvable_floor(cfg)
        self._witnesses: list[Witness] = []
        self._ok = True

    def expect(self, ok: bool, description: str, value="") -> bool:
        if not ok:
            self._ok = False
            self._witnesses.append(Witness(description, str(value), ok=False))
        return ok

    def expect_positive(self, value, description: str, shown=None) -> bool:
        """Expect the margin ``value`` to resolve above zero: to exceed the tolerance."""
        ok = value > self.tolerance
        return ok or self.expect(ok, description, _witness(value if shown is None else shown))

    def expect_zero(self, value, description: str, shown=None) -> bool:
        """Expect the difference ``value`` to resolve to zero: within the tolerance."""
        ok = abs(value) <= self.tolerance
        return ok or self.expect(ok, description, _witness(value if shown is None else shown))

    def note(self, description: str, value="") -> None:
        self._witnesses.append(Witness(description, str(value), ok=True))

    def report(self) -> VerificationReport:
        status = CheckStatus.PASS if self._ok else CheckStatus.FAIL
        return VerificationReport(self.name, status, tuple(self._witnesses), self.tolerance)


def report_lines(report: VerificationReport) -> list[str]:
    """Line-oriented rendering: one status line, then one line per witness."""
    lines = [f"{report.status.value.upper():4s} {report.check_name}"]
    if report.tolerance_used is not None:
        lines.append(f"     tolerance {format_sci(report.tolerance_used, 3)}")
    for w in report.witnesses:
        marker = "ok " if w.ok else "BAD"
        detail = f": {w.value}" if w.value else ""
        lines.append(f"     [{marker}] {w.description}{detail}")
    return lines


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    """CSV rendering with header check_name,status,witness,value."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_name", "status", "witness", "value"])
    for r in reports:
        if not r.witnesses:
            writer.writerow([r.check_name, r.status.value, "", ""])
        for w in r.witnesses:
            writer.writerow([r.check_name, r.status.value, w.description, w.value])
    return buf.getvalue()


def _log_grid(lo: Fraction, hi: Fraction, n: int) -> list[Fraction]:
    # rational snapshots of a log-spaced grid; only the spread matters
    e0, e1 = math.log10(float(lo)), math.log10(float(hi))
    return [
        Fraction(round(10 ** (e0 + (e1 - e0) * i / (n - 1)) * 10**6), 10**6)
        for i in range(n)
    ]


def _linear_grid(lo: Fraction, hi: Fraction, n: int) -> tuple[Fraction, ...]:
    return tuple(lo + (hi - lo) * Fraction(i, n - 1) for i in range(n))


# ---------------------------------------------------------------------------
# Exact building blocks shared by several checks
# ---------------------------------------------------------------------------


def trigamma_lower_bound() -> RationalFunction:
    """The rational lower bound r with psi'(x + 1/2) > r(x) for x > 0."""
    num = Polynomial.identity() * Polynomial(
        (Fraction(4237, 2640), 0, Fraction(227, 66), 0, 1)
    )
    den = Polynomial(
        (Fraction(375, 4928), 0, Fraction(329, 176), 0, Fraction(155, 44), 0, 1)
    )
    return RationalFunction(num, den)


def csch_truncation_coefficients() -> tuple[Fraction, ...]:
    """Coefficients c_i = -2 (2^(2i-1) - 1) B_2i / (2i)! for i = 0..5.

    These make t/sinh t > sum_i c_i t^(2i) > 0 on (0, 1]: the five-term
    even truncation of the csch series, taken from below.
    """
    return tuple(
        -2 * (Fraction(2) ** (2 * i - 1) - 1) * bernoulli(2 * i) / math.factorial(2 * i)
        for i in range(6)
    )


def csch_truncation_poly() -> Polynomial:
    """The even degree-10 minorant h with t/sinh t > h(t) > 0 on (0, 1]."""
    cs = csch_truncation_coefficients()
    return Polynomial.from_terms({2 * i: c for i, c in enumerate(cs)})


# the published degree-22 coefficient table for the curvature numerator
CURVATURE_COEFFS: Mapping[int, Fraction] = {
    22: Fraction(58619, 119439360),
    21: Fraction(2872331, 1194393600),
    20: Fraction(-150639953, 50164531200),
    19: Fraction(-402182039, 11943936000),
    18: Fraction(214165238137, 6437781504000),
    17: Fraction(224320158179, 492687360000),
    16: Fraction(-1469516232022339, 4780052766720000),
    15: Fraction(-107829513340517, 19510419456000),
    14: Fraction(1227464630525327, 573606332006400),
    13: Fraction(40990762057313921, 682864680960000),
    12: Fraction(1859898503651431, 585312583680000),
    11: Fraction(-13202571814150457, 24831442944000),
    10: Fraction(-27685269148007477, 74494328832000),
    9: Fraction(734284235570623, 229920768000),
    8: Fraction(722576509559549, 344881152000),
    7: Fraction(-444392576792851, 19707494400),
    6: Fraction(-2348474362865491, 59122483200),
    5: Fraction(1776198096757, 51321600),
    4: Fraction(-21774907040747, 615859200),
    3: Fraction(3740791861177, 13685760),
    2: Fraction(4592761525177, 41057280),
    1: Fraction(2341955, 9),
    0: Fraction(2341955, 27),
}

# published sign lists for the table above (degree 5 appears in neither)
_PUBLISHED_POSITIVE_KS = frozenset({22, 21, 18, 17, 14, 13, 12, 9, 8, 3, 2, 1, 0})
_PUBLISHED_NEGATIVE_KS = frozenset({20, 19, 16, 15, 11, 10, 7, 6, 4})

PRUNED_VALUE_AT_ONE = Fraction(1135768202621781774901, 1792519787520000)

# the two displayed x-forms of the log-gap curvature: the half-shifted
# trigamma bound r(x + 1/2), cleared, and the correction tail, the second
# derivative y''(x) of the correction y = W2_CORRECTION
_X_BOUND = RationalFunction(
    Fraction(7, 30) * (Polynomial((1, 2)) * Polynomial((417, 650, 815, 330, 165))),
    Polynomial((60, 294, 623, 735, 560, 231, 77)),
)
_X_TAIL = RationalFunction(
    Fraction(7, 54) * Polynomial((2178, 0, 6545, 0, 6125)),
    Polynomial.monomial(5) * Polynomial((33, 0, 35)) ** 3,
)


def rebuild_curvature_numerator() -> Polynomial:
    """Re-derive the cleared curvature numerator from scratch, exactly.

    Adds (t/2) h(t)^2 - 3t/2 + t^2/2 and the half-shifted trigamma bound
    and subtracts the correction tail, the last two taken from their
    displayed x-forms under t = 1/x.  The sum's denominator is
    (60t^6+...+77) (33t^2+35)^3; its numerator, returned, must equal t^11
    times the degree-22 published polynomial.
    """
    t = Polynomial.identity()
    h = csch_truncation_poly()
    direct_terms = t * h * h * Fraction(1, 2) + Polynomial.from_terms(
        {1: Fraction(-3, 2), 2: Fraction(1, 2)}
    )
    curvature = (
        RationalFunction(direct_terms)
        + _X_BOUND.reciprocal_substitution()
        - _X_TAIL.reciprocal_substitution()
    )
    return curvature.num


def pruned_curvature_minorant(full: Polynomial) -> Polynomial:
    """Drop the nonnegative terms outside the published negative list.

    Keeps degrees 0..3 and the negative-coefficient degrees; the result
    minorizes the full polynomial on t > 0 and has the single-probe shape
    with pivot 3 after negation.
    """
    kept = _PUBLISHED_NEGATIVE_KS | {0, 1, 2, 3}
    return Polynomial.from_terms({k: full.coefficient(k) for k in kept})


# ---------------------------------------------------------------------------
# Trigamma lower bound
# ---------------------------------------------------------------------------


_TRIGAMMA_GRID = tuple(_log_grid(Fraction(1, 100), Fraction(10), 30))


def verify_trigamma_bound(cfg: OracleConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Certify psi'(x + 1/2) > r(x) for x > 0.

    Exact part: the telescoped difference -1/(x+1/2)^2 - r(x+1) + r(x)
    collapses to a single negative product, so g(x) = psi'(x+1/2) - r(x)
    decreases to 0 along x, x+1, x+2, ... and is therefore positive.
    Numeric part: spot checks of the inequality itself on a log grid.
    """
    c = _Checks("trigamma-bound", cfg)

    r = trigamma_lower_bound()
    x_plus_1 = Polynomial((1, 1))
    half_shift_sq = Polynomial((Fraction(1, 2), 1)) ** 2
    lhs = -RationalFunction(Polynomial.constant(1), half_shift_sq) - r.compose(x_plus_1) + r

    factor_a = Polynomial((375, 0, 9212, 0, 17360, 0, 4928))
    factor_b = Polynomial((31875, 117432, 187292, 168000, 91280, 29568, 4928))
    two_x_plus_1_sq = Polynomial((1, 2)) ** 2
    rhs = RationalFunction(
        Polynomial.constant(-58982400), two_x_plus_1_sq * factor_a * factor_b
    )
    if c.expect(lhs == rhs, "telescoped difference equals the certified product form"):
        c.note("telescoping identity", "cross-multiplied difference = zero polynomial")

    for label, p in (
        ("(2x+1)^2", two_x_plus_1_sq),
        ("first sextic factor", factor_a),
        ("second sextic factor", factor_b),
    ):
        c.expect(
            all(cc >= 0 for cc in p.coeffs) and p.coefficient(0) > 0,
            f"{label} is positive for x > 0 (nonnegative coefficients, positive constant)",
            " ".join(str(cc) for cc in p.coeffs),
        )
    c.note("product numerator", "-58982400 < 0, so the telescoped difference is negative")

    # closed-form anchor: psi'(3/2) = pi^2/2 - 4 exceeds r(1)
    prec = cfg.precision_bits
    psi_32 = trigamma_ref(Fraction(3, 2), cfg)
    closed = pi(prec) * pi(prec) / 2 - 4
    c.expect_zero(psi_32 - closed, "psi'(3/2) matches pi^2/2 - 4")
    r_at_1 = r(1)
    g1 = psi_32 - r_at_1
    c.expect_positive(
        g1, "psi'(3/2) exceeds the bound at x = 1", f"margin {format_sci(g1, 3)}, r(1) = {r_at_1}"
    )

    # decay of the telescoped tail: g(1) > g(51)
    g51 = trigamma_ref(Fraction(103, 2), cfg) - r(51)
    c.expect_positive(g1 - g51, "gap decreases along the shift chain (x=1 vs x=51)")

    for x in _TRIGAMMA_GRID:
        margin = trigamma_ref(x + Fraction(1, 2), cfg) - r(x)
        c.expect_positive(margin, f"psi'(x + 1/2) > r(x) at x = {x}")
    return c.report()


# ---------------------------------------------------------------------------
# csch truncation bound
# ---------------------------------------------------------------------------


def verify_csch_bound(cfg: OracleConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Certify t/sinh t > h(t) > 0 on (0, 1] for the degree-10 minorant h."""
    c = _Checks("csch-bound", cfg)

    printed = (
        Fraction(1),
        Fraction(-1, 6),
        Fraction(7, 360),
        Fraction(-31, 15120),
        Fraction(127, 604800),
        Fraction(-73, 3421440),
    )
    derived = csch_truncation_coefficients()
    for i, (got, want) in enumerate(zip(derived, printed)):
        c.expect(
            got == want,
            f"t^{2 * i} coefficient equals -2(2^{2 * i - 1}-1)B_{2 * i}/({2 * i})!",
            f"derived {got}, published {want}",
        )

    # substitute t^2 = 1 - x: every coefficient of the result is positive,
    # so h > 0 on (0, 1]
    even_part = Polynomial(derived)  # h as a polynomial in u = t^2
    substituted = even_part.compose(Polynomial((1, -1)))
    published_subs = Polynomial(
        (
            Fraction(14556793, 17107200),
            Fraction(15950191, 119750400),
            Fraction(858623, 59875200),
            Fraction(85243, 59875200),
            Fraction(12371, 119750400),
            Fraction(73, 3421440),
        )
    )
    c.expect(
        substituted == published_subs,
        "substituted polynomial matches all six published coefficients",
        " ".join(str(cc) for cc in substituted.coeffs),
    )
    c.expect(
        all(cc > 0 for cc in substituted.coeffs),
        "all substitution coefficients are positive, so h > 0 on (0, 1]",
    )

    h = csch_truncation_poly()
    c.note("h(1)", f"{h(1)} > 0")

    prec = cfg.precision_bits
    for t in (Fraction(1), Fraction(1, 2)):
        tv = PrecisionReal(t, prec)
        c.expect_positive(tv / sinh(tv) - h(t), f"t/sinh t exceeds h(t) at t = {t}")
    return c.report()


# ---------------------------------------------------------------------------
# Curvature polynomials
# ---------------------------------------------------------------------------


def _curvature_closed_form(x: Fraction, cfg: OracleConfig) -> PrecisionReal:
    """Closed form of the second derivative of the w2 log gap.

    psi'(x+1) + 1/(2 x^3 sinh^2(1/x)) - 3/(2x) + 1/(2x^2) - y''(x), with
    y'' the correction's second derivative, evaluated exactly.
    """
    prec = cfg.precision_bits
    xv = PrecisionReal(x, prec)
    s = sinh(1 / xv)
    return (
        trigamma_ref(xv + 1, cfg)
        + 1 / (2 * xv**3 * s * s)
        - Fraction(3, 2) / xv
        + Fraction(1, 2) / (xv * xv)
        - _X_TAIL(x)
    )


_CURVATURE_GRID = _linear_grid(Fraction(1), Fraction(50), 20)


def verify_convexity_polynomials(
    cfg: OracleConfig = DEFAULT_CONFIG,
    expected: Mapping[int, Fraction] = CURVATURE_COEFFS,
) -> VerificationReport:
    """Rebuild the degree-22 curvature numerator and certify its positivity.

    The second derivative of the w2 log gap, after substituting the
    trigamma lower bound and the csch minorant and clearing denominators
    over t = 1/x, has numerator t^11 p(t) with p of degree 22.  This check
    re-expands p from scratch, compares every coefficient with the
    published table, prunes it to the minorant kept by the sign lists,
    and applies the single-probe criterion at t = 1.
    """
    c = _Checks("convexity-polynomials", cfg)

    # the two displayed x-forms that feed the numerator match their sources
    c.expect(
        _X_TAIL == W2_CORRECTION.derivative().derivative(),
        "correction-tail term is the second derivative of the w2 correction",
    )
    c.expect(
        trigamma_lower_bound().compose(Polynomial((Fraction(1, 2), 1))) == _X_BOUND,
        "half-shifted trigamma bound matches its cleared form",
    )

    numerator = rebuild_curvature_numerator()

    low = [numerator.coefficient(k) for k in range(11)]
    if not c.expect(
        all(v == 0 for v in low),
        "cleared numerator is divisible by t^11",
        " ".join(str(v) for v in low),
    ):
        return c.report()
    full = numerator.divided_by_power(11)

    c.expect(full.degree == 22, "quotient has degree 22", str(full.degree))
    for k in range(23):
        got = full.coefficient(k)
        want = expected.get(k, Fraction(0))
        c.expect(
            got == want,
            f"degree-{k} coefficient matches the published table",
            f"computed {got}, expected {want}",
        )

    for k in sorted(_PUBLISHED_POSITIVE_KS | _PUBLISHED_NEGATIVE_KS):
        sign_ok = (
            full.coefficient(k) > 0 if k in _PUBLISHED_POSITIVE_KS else full.coefficient(k) < 0
        )
        c.expect(sign_ok, f"published sign list agrees at degree {k}", str(full.coefficient(k)))
    c.note(
        "degree 5 appears in neither published sign list",
        f"computed coefficient {full.coefficient(5)} > 0; pruning only drops "
        "nonnegative terms, so the omission is harmless",
    )

    pruned = pruned_curvature_minorant(full)
    dropped = full - pruned
    c.expect(
        all(cc >= 0 for cc in dropped.coeffs),
        "every pruned-away term is nonnegative on t > 0",
    )

    value_at_1 = pruned(1)
    c.expect(
        value_at_1 == PRUNED_VALUE_AT_ONE,
        "pruned minorant at t = 1 equals the published rational",
        f"computed {value_at_1}",
    )
    kind = sign_criterion(-pruned, 3, Fraction(1))
    c.expect(
        kind is SignKind.ALL_NEGATIVE_ON_INTERVAL,
        "single-probe criterion: negated minorant is negative on (0, 1)",
        kind.value,
    )
    c.note(
        "conclusion",
        "minorant > 0 on (0, 1], hence the degree-22 numerator is positive there",
    )

    # numeric curvature of the log gap itself, from its closed form
    for x in _CURVATURE_GRID:
        c.expect_positive(
            _curvature_closed_form(x, cfg), f"log-gap curvature is positive at x = {x}"
        )
    return c.report()


# ---------------------------------------------------------------------------
# Sharp constants and the linear-corrected variant
# ---------------------------------------------------------------------------


def correction_defect_derivatives() -> tuple[RationalFunction, RationalFunction, RationalFunction]:
    """Exact first and second x-derivatives of y(x) - ln(1 + y(x)).

    Returns (symbolically assembled first derivative, displayed first
    derivative, displayed second derivative); the assembled form uses
    d/dx [y - ln(1+y)] = y' * y / (1 + y), exact in the field of rational
    functions, with y = W2_CORRECTION.
    """
    y = W2_CORRECTION
    assembled_first = y.derivative() * (y / (1 + y))
    quintic = Polynomial((7, 0, 0, 10692, 0, 11340))
    displayed_first = RationalFunction(
        Fraction(-49, 324) * Polynomial((99, 0, 175)),
        Polynomial.monomial(4) * Polynomial((33, 0, 35)) ** 2 * quintic,
    )
    displayed_second = RationalFunction(
        Fraction(343, 54)
        * Polynomial((2178, 0, 6545, 5821794, 6125, 24992550, 0, 37110150, 0, 18191250)),
        Polynomial.monomial(5) * Polynomial((33, 0, 35)) ** 3 * quintic**2,
    )
    return assembled_first, displayed_first, displayed_second


_SANDWICH_NS = range(1, 21)


def verify_best_constants(cfg: OracleConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Certify the sharp constants and both factorial sandwiches.

    The w2 sandwich: exp(y(n)) < n!/W0(n) < lambda exp(y(n)) with
    lambda = exp(gap at 1); the linear variant uses (1 + y(n)) and
    lambda* = exp(star gap at 1).  Both right-hand sides are attained at
    n = 1 (that is what makes the constants sharp), so the comparison
    there is an equality check within tolerance.
    """
    prec = cfg.precision_bits
    c = _Checks("best-constants", cfg)

    sinh_1 = sinh(PrecisionReal(1, prec))
    half_ln_2pi_sinh1 = ln(2 * pi(prec) * sinh_1) / 2

    beta = w2_log_gap(1, cfg)
    closed_beta = Fraction(22025, 22032) - half_ln_2pi_sinh1
    c.expect_zero(beta - closed_beta, "oracle route matches the closed form for the gap at x = 1")
    c.expect(
        format_sci(beta, 4) == "2.407E-5",
        "gap at 1 displays as 2.407e-5",
        format_sci(beta, 6),
    )

    lam = exp(beta)
    closed_lam = exp(PrecisionReal(Fraction(22025, 22032), prec)) / sqrt(
        2 * pi(prec) * sinh_1
    )
    c.expect_zero(lam - closed_lam, "lambda matches exp(22025/22032)/sqrt(2 pi sinh 1)")
    shown = format_sci(lam, 10)
    c.expect(shown == "1.000024067E+0", "lambda rounds to 1.000024067 at 10 significant digits", shown)

    beta_star = w2star_log_gap(1, cfg)
    closed_beta_star = (
        1 - ln(PrecisionReal(Fraction(22039, 22032), prec)) - half_ln_2pi_sinh1
    )
    c.expect_zero(
        beta_star - closed_beta_star,
        "oracle route matches the closed form for the star gap at x = 1",
    )
    c.expect(
        format_sci(beta_star, 4) == "2.412E-5",
        "star gap at 1 displays as 2.412e-5",
        format_sci(beta_star, 6),
    )

    lam_star = exp(beta_star)
    closed_lam_star = (
        Fraction(22032, 22039) * exp(PrecisionReal(1, prec)) / sqrt(2 * pi(prec) * sinh_1)
    )
    c.expect_zero(lam_star - closed_lam_star, "lambda* matches (22032/22039) e / sqrt(2 pi sinh 1)")
    shown = format_sci(lam_star, 10)
    c.expect(shown == "1.000024117E+0", "lambda* rounds to 1.000024117 at 10 significant digits", shown)

    assembled, displayed_first, displayed_second = correction_defect_derivatives()
    c.expect(
        assembled == displayed_first,
        "correction-defect first derivative matches its displayed closed form",
    )
    c.expect(
        displayed_first.derivative() == displayed_second,
        "correction-defect second derivative matches its displayed closed form",
    )
    c.expect(
        all(cc <= 0 for cc in displayed_first.num.coeffs)
        and not displayed_first.num.is_zero()
        and all(cc >= 0 for cc in displayed_first.den.coeffs),
        "first derivative is negative for x > 0 by coefficient signs",
    )
    c.expect(
        all(cc >= 0 for cc in displayed_second.num.coeffs)
        and not displayed_second.num.is_zero()
        and all(cc >= 0 for cc in displayed_second.den.coeffs),
        "second derivative is positive for x > 0 by coefficient signs",
    )
    c.note("second-derivative numerator endpoints",
           "constant term 2178, leading term 18191250 x^9 (before the 343/54 factor)")

    # factorial sandwiches, n = 1..20
    for n in _SANDWICH_NS:
        gap0 = _log_gap(FormulaId.W0, n, cfg)[0]
        y = W2_CORRECTION(n)
        # sharp: both upper bounds are attained at n = 1
        expect_upper = c.expect_zero if n == 1 else c.expect_positive
        for label, gap, sharp in (
            ("sandwich", gap0 - y, beta),
            ("star-sandwich", gap0 - ln(1 + PrecisionReal(y, prec)), beta_star),
        ):
            c.expect_positive(gap, f"lower {label} bound is strict at n = {n}")
            expect_upper(sharp - gap, f"upper {label} bound holds at n = {n}")

    return c.report()


# ---------------------------------------------------------------------------
# Monotonicity / convexity on a grid
# ---------------------------------------------------------------------------

_GAP_FUNCTIONS: Mapping[str, Callable] = {
    "w2": w2_log_gap,
    "w2star": w2star_log_gap,
}


def verify_monotone_convex(
    which: str | Callable,
    grid: Sequence[Fraction | int],
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> VerificationReport:
    """Check strict decrease, convexity, and range (0, value-at-1] on a grid.

    ``which`` is "w2", "w2star", or any callable (x, cfg) -> PrecisionReal.
    The grid must be strictly increasing with minimum >= 1; convexity is
    asserted through strictly increasing divided differences, so uneven
    grids are fine.
    """
    if isinstance(which, str):
        fn = _GAP_FUNCTIONS.get(which)
        if fn is None:
            raise ValueError(f"unknown gap function {which!r}; use 'w2' or 'w2star'")
        label = which
    else:
        fn = which
        label = getattr(which, "__name__", "custom")
    c = _Checks(f"monotone-convex-{label}", cfg)

    xs = [Fraction(g) for g in grid]
    if len(xs) < 3:
        raise ValueError("grid needs at least three points")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("grid must be strictly increasing")
    if xs[0] < 1:
        raise ValueError("grid minimum must be >= 1")

    values = [fn(x, cfg) for x in xs]
    value_at_1 = values[0] if xs[0] == 1 else fn(Fraction(1), cfg)

    slopes = [
        (v1 - v0) / (x1 - x0)
        for (x0, v0), (x1, v1) in zip(zip(xs, values), zip(xs[1:], values[1:]))
    ]
    for i, s in enumerate(slopes):
        c.expect_positive(-s, f"strictly decreasing on [{xs[i]}, {xs[i + 1]}]", shown=s)
    for x, s0, s1 in zip(xs[1:], slopes, slopes[1:]):
        c.expect_positive(s1 - s0, f"slope increases across {x} (convexity)")
    for x, v in zip(xs, values):
        margin = v - value_at_1 if x == 1 else min(v, value_at_1 - v)
        expect = c.expect_zero if x == 1 else c.expect_positive
        expect(margin, f"value at x = {x} lies in (0, value-at-1]", shown=v)
    return c.report()


# ---------------------------------------------------------------------------
# Published comparison table
# ---------------------------------------------------------------------------


def check_goldens(
    cells: Sequence[GoldenCell] = TABLE_GOLDENS,
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> VerificationReport:
    """Recompute each golden cell and compare it with the published value.

    A cell passes when its relative error, rounded half-even to 4
    significant digits as ``table --format markdown`` prints it, equals the
    published value, or for a misprint its corrected value, which differs
    from the published one.  Each misprint that passes leaves a note.
    """
    c = _Checks("reference-table")
    for cell in cells:
        printed = log_error(cell.formula, cell.x, cfg).format_relative_error(4)
        misprint = cell.corrected_relative_error is not None
        wanted = cell.corrected_relative_error if misprint else Fraction(cell.published)
        ok = Fraction(printed) == wanted
        if ok and not misprint:
            continue
        where = f"(x={cell.x}, {cell.formula.value})"
        # the paper's own digits, in format_sci's capital E
        shown = f"computed {printed}, published {cell.published.upper()}"
        if ok:
            c.note(f"misprint {where}", shown)
        else:
            c.expect(False, f"cell {where} prints {format_sci(wanted, 4)} at 4 significant digits", shown)
    return c.report()


# ---------------------------------------------------------------------------
# Decay-rate constant
# ---------------------------------------------------------------------------

RATE_DECAY_LIMIT = Fraction(869, 2976750)
# rate's default digits: the gap at x = 1000, about 2.9e-31, must resolve
# beside ln Gamma(1001), about 5.9e3
RATE_DIGITS = 60


class RateEstimate(Record):
    """x^9-scaled log gap at the largest abscissa, plus an x^-2 extrapolation."""

    def __init__(
        self,
        formula: FormulaId,
        xs: tuple[Fraction, ...],
        at_largest: PrecisionReal,
        richardson: PrecisionReal,
    ):
        vars(self).update(formula=formula, xs=xs, at_largest=at_largest, richardson=richardson)


def estimate_rate_constant(
    xs: Sequence[Fraction | int],
    formula: FormulaId = FormulaId.W2,
    cfg: OracleConfig = OracleConfig.for_digits(RATE_DIGITS),
) -> RateEstimate:
    """Estimate lim x^9 (ln Gamma(x+1) - ln F(x)) for F in {w2, w2star}.

    Returns the scaled gap at max(xs) together with a Neville
    extrapolation in x^-2 across the whole sequence (the gap expands in
    odd powers of 1/x, so the scaled gap is a series in x^-2).
    """
    if formula.value not in _GAP_FUNCTIONS:
        raise ValueError("rate estimation applies to w2 and w2star only")
    points = [Fraction(x) for x in xs]
    if not points:
        raise ValueError("need at least one abscissa")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError("abscissas must be strictly increasing")
    if points[0] < 10:
        raise ValueError("abscissas below 10 are outside the asymptotic regime")

    scaled = []
    for x in points:
        gap, log_value = _log_gap(formula, x, cfg)
        # the oracle noise scales with ln Gamma(x+1) = gap + ln F(x)
        if abs(gap) <= _resolvable_floor(cfg, (gap + log_value).to_fraction()):
            shown = format_sci(working_argument(x, cfg), 6)
            raise PrecisionError(
                f"log gap at x = {shown} is below the resolvable floor at "
                f"{cfg.target_decimal_digits} digits; raise the precision"
            )
        scaled.append(x**9 * gap)

    us = [Fraction(1) / (x * x) for x in points]
    table = list(scaled)
    for k in range(1, len(table)):
        for i in range(len(table) - k):
            table[i] = (us[i + k] * table[i] - us[i] * table[i + 1]) / (us[i + k] - us[i])
    return RateEstimate(
        formula=formula,
        xs=tuple(points),
        at_largest=scaled[-1],
        richardson=table[0],
    )
