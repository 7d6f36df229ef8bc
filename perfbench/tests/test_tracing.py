"""Tracing wraps every binding of a traced function and restores them all."""

from fractions import Fraction

import pytest

import tracing
import windschitl
from windschitl import cli, exact, formulas, precision, report, verify


def _snapshot():
    """Identity of every module global, dict entry and method the tracer may touch."""
    state = {}
    for module in tracing.package_modules():
        for key, value in vars(module).items():
            state[(module.__name__, key)] = id(value)
            if isinstance(value, dict) and not key.startswith("__"):
                for k, v in value.items():
                    state[(module.__name__, key, k)] = id(v)
    for cls in (precision.PrecisionReal, exact.Polynomial, exact.RationalFunction):
        for key, value in vars(cls).items():
            state[(cls.__name__, key)] = id(value)
    return state


def test_every_binding_is_wrapped_while_installed_and_original_after():
    before = _snapshot()
    originals = {
        "ln_gamma_ref": precision.ln_gamma_ref,
        "w2_log_gap": formulas.w2_log_gap,
        "bernoulli": exact.bernoulli,
        "verify_csch_bound": verify.verify_csch_bound,
        "check_goldens": report.check_goldens,
        "__add__": precision.PrecisionReal.__dict__["__add__"],
    }
    tracer = tracing.Tracer().install()
    try:
        for module in (windschitl, formulas, verify):
            assert module.ln_gamma_ref is not originals["ln_gamma_ref"]
        assert precision.ln_gamma_ref.__wrapped__ is originals["ln_gamma_ref"]
        assert precision.bernoulli is not originals["bernoulli"]
        assert verify._GAP_FUNCTIONS["w2"] is not originals["w2_log_gap"]
        assert cli.verify_csch_bound is not originals["verify_csch_bound"]
        assert cli.check_goldens is not originals["check_goldens"]
        assert precision.PrecisionReal.__dict__["__add__"] is not originals["__add__"]
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert windschitl.formulas.ln_gamma_ref is windschitl.precision.ln_gamma_ref
    assert verify.ln_gamma_ref is precision.ln_gamma_ref is originals["ln_gamma_ref"]
    assert verify._GAP_FUNCTIONS["w2"] is formulas.w2_log_gap
    assert precision.bernoulli is exact.bernoulli is windschitl.bernoulli


def test_uninstall_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _snapshot() == before


def test_spans_nest_and_self_times_add_up():
    cfg = precision.OracleConfig.for_digits(50)
    formulas.log_error(formulas.FormulaId.W2, Fraction(3, 2), cfg)  # fill caches
    with tracing.Tracer() as tracer:
        windschitl.log_error(windschitl.FormulaId.W2, Fraction(3, 2), cfg)
        windschitl.w2_log_gap(Fraction(30), cfg)
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["formulas.log_error"]["calls"] == 1
    assert layers["formulas.gap"]["calls"] == 1
    assert layers["precision.ln_gamma_ref"]["calls"] == 2
    assert layers["exact.bernoulli"]["calls"] == 0
    names = {s[0]: s for s in tracer.spans}
    root = names["formulas.log_error"]
    assert root[3] == -1
    child = [s for s in tracer.spans if s[0] == "precision.ln_gamma_ref"][0]
    assert tracer.spans[child[3]][0] == "formulas.log_error"
    total_self = sum(row["self_s"] for row in layers.values())
    assert total_self == pytest.approx(summary["root_s"], rel=1e-9)
    # x + 1 = 5/2 shifts to 25: 23 steps; 31 is past the threshold
    assert summary["counts"]["precision.ln_gamma_ref.shift_steps"] == 23
    assert summary["counts"]["precision.PrecisionReal.arith"] > 0


@pytest.mark.parametrize("x", [Fraction(1), Fraction(3, 2), Fraction(24), Fraction(249, 10),
                               Fraction(25), Fraction(100)])
def test_shift_steps_matches_the_oracle_loop(x):
    threshold, y, steps = 25, x, 0
    while y < threshold:
        y, steps = y + 1, steps + 1
    assert tracing.shift_steps(x, threshold) == steps
    assert tracing.shift_steps(precision.PrecisionReal(x, 128), threshold) == steps
