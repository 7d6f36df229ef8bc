"""Windschitl-type gamma approximations with exact certification.

The package evaluates thirteen closed-form gamma approximations at
configurable precision against a Stirling-series reference oracle,
reproduces the published error-comparison table, and certifies the
algebraic machinery behind the exponent-corrected formula's sharp
constants: exact rational-function identities, an exactly re-derived
degree-22 coefficient table, a single-probe polynomial sign criterion,
and numeric inequality suites with explicit tolerances.
"""

from .exact import (
    Polynomial,
    RationalFunction,
    ShapeError,
    SignKind,
    bernoulli,
    sign_criterion,
)
from .formulas import (
    FormulaId,
    LogErrorValue,
    Target,
    W2_CORRECTION,
    log_approximate,
    log_error,
    w2_log_gap,
    w2star_log_gap,
)
from .goldens import TABLE_GOLDENS, GoldenCell
from .precision import (
    MIN_PRECISION_BITS,
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
from .report import (
    TableSpec,
    build_table,
    render_csv,
    render_markdown,
)
from .verify import (
    RATE_DECAY_LIMIT,
    CheckStatus,
    RateEstimate,
    VerificationReport,
    Witness,
    check_goldens,
    estimate_rate_constant,
    verify_best_constants,
    verify_convexity_polynomials,
    verify_csch_bound,
    verify_monotone_convex,
    verify_trigamma_bound,
)

__version__ = "0.1.0"
