"""Span and counter tracing around the package's public functions.

``Tracer.install()`` replaces each traced function at every place it is
bound: the defining module, every package module that imported it by
name, the package namespace, and dict-valued module globals that hold it
(such as the gap-function registry in ``verify``).  Methods are replaced
on their class.  ``Tracer.uninstall()`` puts every original object back.

Spans record (name, start, end, parent index) in memory.  Count-only
wrappers are used where a span per call would swamp the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from fractions import Fraction

PACKAGE = "windschitl"

# Traced layers in report order.  Every name here appears in the results,
# with zero calls where a workload never enters the layer.
SPAN_LAYERS = (
    "cli.main",
    "report.build_table",
    "report.render",
    "verify.trigamma-bound",
    "verify.csch-bound",
    "verify.convexity-polynomials",
    "verify.best-constants",
    "verify.monotone-convex-w2",
    "verify.monotone-convex-w2star",
    "verify.reference-table",
    "verify.estimate_rate_constant",
    "formulas.log_error",
    "formulas.log_approximate",
    "formulas.gap",
    "precision.ln_gamma_ref",
    "precision.trigamma_ref",
    "exact.bernoulli",
    "exact.Polynomial.mul",
    "exact.RationalFunction.eq",
    "exact.sign_criterion",
)
COUNT_LAYERS = (
    "exact.Polynomial.eval",
    "precision.PrecisionReal.arith",
    "precision.PrecisionReal.cmp",
    "precision.PrecisionReal.new",
    "precision.elementary",
)
# Extra counters derived from call arguments.
EXTRA_COUNTERS = (
    "exact.bernoulli.max_index",
    "precision.ln_gamma_ref.shift_steps",
    "precision.trigamma_ref.shift_steps",
)

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__")
_CMP = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")
_ELEMENTARY = ("exp", "ln", "sinh", "sqrt", "tanh")
_CHECKS = {
    "verify_trigamma_bound": "verify.trigamma-bound",
    "verify_csch_bound": "verify.csch-bound",
    "verify_convexity_polynomials": "verify.convexity-polynomials",
    "verify_best_constants": "verify.best-constants",
    "estimate_rate_constant": "verify.estimate_rate_constant",
}


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def bindings(target, modules=None):
    """Every (container, key) of the package that holds ``target``.

    A container is a module (set with ``setattr``) or a dict-valued module
    global (set by item).
    """
    found = []
    for module in modules if modules is not None else package_modules():
        for key, value in list(vars(module).items()):
            if value is target:
                found.append((module, key))
            elif isinstance(value, dict) and not key.startswith("__"):
                found.extend((value, k) for k, v in value.items() if v is target)
    return found


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def shift_steps(x, threshold) -> int:
    """Iterations of the oracles' upward shift loop: while y < threshold: y += 1."""
    if hasattr(x, "to_fraction"):
        x = x.to_fraction()
    gap = threshold - Fraction(x)
    if gap <= 0:
        return 0
    steps = gap.numerator // gap.denominator
    return steps + 1 if gap.denominator > 1 else steps


class Tracer:
    """Wraps the package's public functions; records spans and counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name_of, fn, on_call=None):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        counts = self.counts

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(counts, args, kwargs)
            name = name_of if isinstance(name_of, str) else name_of(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, target, wrapper):
        for container, key in bindings(target):
            _set(container, key, wrapper)
            self._undo.append((container, key, target))

    def _replace_method(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    # -- install / uninstall --------------------------------------------

    def install(self):
        from windschitl import cli, exact, formulas, precision, report, verify

        if self._undo:
            raise RuntimeError("tracer already installed")
        default_threshold = precision.OracleConfig.for_digits(precision.DEFAULT_DIGITS).shift_threshold

        def oracle_steps(counter):
            def on_call(counts, args, kwargs):
                cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
                threshold = cfg.shift_threshold if cfg is not None else default_threshold
                counts[counter] += shift_steps(args[0], threshold)
            return on_call

        def bernoulli_index(counts, args, kwargs):
            n = args[0] if args else kwargs["n"]
            if n > counts["exact.bernoulli.max_index"]:
                counts["exact.bernoulli.max_index"] = n

        def monotone_name(args, kwargs):
            which = args[0] if args else kwargs["which"]
            label = which if isinstance(which, str) else getattr(which, "__name__", "custom")
            return f"verify.monotone-convex-{label}"

        spans = [
            (cli.main, "cli.main", None),
            (report.build_table, "report.build_table", None),
            (report.render_csv, "report.render", None),
            (report.render_markdown, "report.render", None),
            (report.check_goldens, "verify.reference-table", None),
            (verify.verify_monotone_convex, monotone_name, None),
            (formulas.log_error, "formulas.log_error", None),
            (formulas.log_approximate, "formulas.log_approximate", None),
            (formulas.w2_log_gap, "formulas.gap", None),
            (formulas.w2star_log_gap, "formulas.gap", None),
            (precision.ln_gamma_ref, "precision.ln_gamma_ref",
             oracle_steps("precision.ln_gamma_ref.shift_steps")),
            (precision.trigamma_ref, "precision.trigamma_ref",
             oracle_steps("precision.trigamma_ref.shift_steps")),
            (exact.bernoulli, "exact.bernoulli", bernoulli_index),
            (exact.sign_criterion, "exact.sign_criterion", None),
        ]
        spans += [(getattr(verify, fn), name, None) for fn, name in _CHECKS.items()]
        for fn, name, on_call in spans:
            self._replace(fn, self._span(name, fn, on_call))
        for fn_name in _ELEMENTARY:
            fn = getattr(precision, fn_name)
            self._replace(fn, self._count("precision.elementary", fn))

        methods = [
            (exact.Polynomial, "__mul__", "exact.Polynomial.mul", True),
            (exact.Polynomial, "__rmul__", "exact.Polynomial.mul", True),
            (exact.Polynomial, "__call__", "exact.Polynomial.eval", False),
            (exact.RationalFunction, "__eq__", "exact.RationalFunction.eq", True),
            (precision.PrecisionReal, "__init__", "precision.PrecisionReal.new", False),
        ]
        methods += [(precision.PrecisionReal, m, "precision.PrecisionReal.arith", False) for m in _ARITH]
        methods += [(precision.PrecisionReal, m, "precision.PrecisionReal.cmp", False) for m in _CMP]
        for cls, attr, name, as_span in methods:
            original = cls.__dict__[attr]
            wrapper = self._span(name, original) if as_span else self._count(name, original)
            self._replace_method(cls, attr, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            container, key, original = self._undo.pop()
            _set(container, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, self and total seconds; the spans themselves."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in SPAN_LAYERS}
        names = [s[0] for s in spans]
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            row = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            # total time counts only the outermost span of a layer
            p = parent
            while p >= 0 and names[p] != name:
                p = spans[p][3]
            if p < 0:
                row["total_s"] += end - start
        counts = {name: self.counts.get(name, 0) for name in COUNT_LAYERS + EXTRA_COUNTERS}
        root_s = sum(end - start for _, start, end, parent in spans if parent < 0)
        return {"layers": layers, "counts": counts, "root_s": root_s, "spans": len(spans)}

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
