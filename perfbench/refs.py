"""Independent references and output checks.

Nothing here calls the package under test.  References come from the
paper's closed forms, its published comparison table, and mpmath run at
a higher precision than the package is asked for.  Every ``check_*``
function returns a list of failure messages; an empty list means the
output is correct.  Checks compare values, never bytes, so added output
lines do not read as failures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath

EXTRA_DIGITS = 20

# The paper's comparison table: |F(x) - Gamma(x+1)| / Gamma(x+1) as printed,
# four significant digits, keyed by (x, formula).
PUBLISHED_TABLE = {
    (1, "nemes2"): "1.114e-4", (1, "chen"): "1.398e-4",
    (1, "w1"): "1.832e-4", (1, "w2"): "2.407e-5",
    (2, "nemes2"): "1.900e-6", (2, "chen"): "2.222e-6",
    (2, "w1"): "2.668e-6", (2, "w2"): "2.308e-7",
    (5, "nemes2"): "4.353e-9", (5, "chen"): "4.956e-9",
    (5, "w1"): "5.743e-9", (5, "w2"): "1.249e-10",
    (10, "nemes2"): "3.609e-11", (10, "chen"): "4.088e-11",
    (10, "w1"): "4.710e-11", (10, "w2"): "2.785e-13",
    (20, "nemes2"): "2.864e-13", (20, "chen"): "3.240e-13",
    (20, "w1"): "3.727e-13", (20, "w2"): "5.634e-16",
    (50, "nemes2"): "4.713e-16", (50, "chen"): "5.330e-16",
    (50, "w1"): "6.129e-16", (50, "w2"): "1.492e-19",
    (100, "nemes2"): "3.684e-18", (100, "chen"): "4.166e-18",
    (100, "w1"): "4.791e-18", (100, "w2"): "2.918e-22",
}
# The published fourth digit follows an unstated rounding rule, so a cell
# must agree to three significant digits (half a unit in the third).
TABLE_SIG_DIGITS = 3

RATE_LIMIT = Fraction(869, 2976750)

VERIFY_CHECKS = frozenset({
    "best-constants",
    "convexity-polynomials",
    "csch-bound",
    "monotone-convex-w2",
    "monotone-convex-w2star",
    "reference-table",
    "trigamma-bound",
})

# Formulas approximating Gamma(x + 1/2); all others approximate Gamma(x + 1).
HALF_SHIFT_FORMULAS = frozenset({"smith", "yangchu1", "yangchu2"})


@lru_cache(maxsize=None)
def context(digits: int) -> mpmath.ctx_mp.MPContext:
    """A private mpmath context, so no global precision is touched.

    Contexts are shared per precision; callers must not change ``dps``.
    """
    ctx = mpmath.MPContext()
    ctx.dps = digits
    return ctx


def to_mpf(ctx, value):
    """Fractions, raw ``libmp`` tuples, numbers and decimal strings as mpf."""
    if isinstance(value, tuple):
        return ctx.make_mpf(value)
    if isinstance(value, Fraction):
        return ctx.mpf(value.numerator) / value.denominator
    return ctx.mpf(value)


# ---------------------------------------------------------------------------
# The thirteen formulas in log space, written from the paper with mpmath
# ---------------------------------------------------------------------------


def ln_formula(ctx, tag: str, x):
    """ln F(x) for the tagged formula, evaluated in ``ctx``."""
    ln, sinh, tanh = ctx.ln, ctx.sinh, ctx.tanh
    ln_sqrt_2pi = ln(2 * ctx.pi) / 2
    half_base = ln_sqrt_2pi + x * ln(x) - x
    stirling = half_base + ln(x) / 2
    core = stirling + (x / 2) * ln(x * sinh(1 / x))
    corr = ctx.mpf(7) / (324 * x**3 * (35 * x**2 + 33))
    if tag == "stirling":
        return stirling
    if tag == "w0":
        return core
    if tag == "w1":
        return stirling + (x / 2) * ln(x * sinh(1 / x) + 1 / (810 * x**6))
    if tag == "w2":
        return core + corr
    if tag == "w2star":
        return core + ln(1 + corr)
    if tag == "lsm":
        arg = 1 / x + 1 / (810 * x**7) - ctx.mpf(67) / (42525 * x**9) + ctx.mpf(19) / (8505 * x**11)
        return stirling + (x / 2) * ln(x * sinh(arg))
    if tag == "ramanujan":
        return ln_sqrt_2pi - ln(2) / 2 + x * ln(x) - x + ln(8 * x**3 + 4 * x**2 + x + ctx.mpf(1) / 30) / 6
    if tag == "smith":
        return half_base + (x / 2) * ln(2 * x * tanh(1 / (2 * x)))
    if tag == "nemes1":
        return stirling + x * ln(1 + 1 / (12 * x**2 - ctx.mpf(1) / 10))
    if tag == "nemes2":
        return stirling + (210 * x**2 + 53) / (360 * x * (7 * x**2 + 2))
    if tag == "chen":
        return stirling + (x**2 + ctx.mpf(53) / 210) * ln(
            1 + 1 / (12 * x**3 + ctx.mpf(24) / 7 * x - ctx.mpf(1) / 2)
        )
    if tag == "yangchu1":
        return half_base - x / (24 * (x**2 + ctx.mpf(7) / 120))
    if tag == "yangchu2":
        return half_base - 1 / (24 * x) + ctx.mpf(7) / 2880 / x / (x**2 + ctx.mpf(31) / 98)
    raise ValueError(f"unknown formula {tag!r}")


def reference_log_gap(ctx, tag: str, x):
    """(ln Gamma(target) - ln F(x), ln Gamma(target)) with mpmath.loggamma."""
    shift = ctx.mpf(1) / 2 if tag in HALF_SHIFT_FORMULAS else 1
    true_ln = ctx.loggamma(x + shift)
    return true_ln - ln_formula(ctx, tag, x), true_ln


# ---------------------------------------------------------------------------
# Closed forms from the paper
# ---------------------------------------------------------------------------


def constants_reference(digits: int) -> dict:
    """beta, lambda, lambda* and the star gap at x = 1, from closed forms."""
    ctx = context(digits + EXTRA_DIGITS)
    half_ln = ctx.ln(2 * ctx.pi * ctx.sinh(1)) / 2
    beta = ctx.mpf(22025) / 22032 - half_ln
    lam_star = ctx.mpf(22032) / 22039 * ctx.e / ctx.sqrt(2 * ctx.pi * ctx.sinh(1))
    return {
        "beta": beta,
        "lambda": ctx.exp(beta),
        "lambda_star": lam_star,
        "w2_log_gap(1)": beta,
        "w2star_log_gap(1)": ctx.ln(lam_star),
    }


def eval_w2_at_one_reference(digits: int) -> dict:
    """W2(1), its relative error and log gap: Gamma(2) = 1, so W2(1) = exp(-beta)."""
    beta = constants_reference(digits)["beta"]
    ctx = context(digits + EXTRA_DIGITS)
    return {
        "value": ctx.exp(-beta),
        "relative_error": -ctx.expm1(-beta),
        "log_gap": beta,
    }


def rate_reference(xs=(100, 1000), digits: int = 80) -> dict:
    """Scaled w2 gap at max(xs) and its x^-2 Neville extrapolation."""
    ctx = context(digits)
    scaled = []
    for x in xs:
        xv = ctx.mpf(x)
        gap, _ = reference_log_gap(ctx, "w2", xv)
        scaled.append(xv**9 * gap)
    us = [ctx.mpf(1) / (ctx.mpf(x) ** 2) for x in xs]
    table = list(scaled)
    for k in range(1, len(table)):
        for i in range(len(table) - k):
            table[i] = (us[i + k] * table[i] - us[i] * table[i + 1]) / (us[i + k] - us[i])
    limit = to_mpf(ctx, RATE_LIMIT)
    return {
        "scaled_gap_largest": scaled[-1],
        "richardson": table[0],
        "limit": limit,
        "relative_deviation": abs(scaled[-1] - limit) / limit,
    }


# ---------------------------------------------------------------------------
# Parsing and comparison helpers
# ---------------------------------------------------------------------------


def key_values(text: str) -> dict:
    """``key = value`` lines; the value is the first whitespace-separated token."""
    out = {}
    for line in text.splitlines():
        key, sep, rest = line.partition("=")
        if sep and rest.split():
            out[key.strip()] = rest.split()[0]
    return out


def printed_ulp(ref, sig_digits: int):
    """One unit in the last printed place of ``ref`` at ``sig_digits`` digits."""
    ctx = ref.context
    exponent = int(ctx.floor(ctx.log10(abs(ref))))
    return ctx.mpf(10) ** (exponent - sig_digits + 1)


def compare_printed(name, text, ref, sig_digits) -> list[str]:
    """The printed decimal must lie within one last-place unit of ``ref``."""
    if text is None:
        return [f"{name}: missing from output"]
    ctx = ref.context
    try:
        got = ctx.mpf(text)
    except (ValueError, TypeError):
        return [f"{name}: not a number: {text!r}"]
    if abs(got - ref) > printed_ulp(ref, sig_digits):
        return [f"{name}: printed {text}, reference {ctx.nstr(ref, sig_digits + 2)}"]
    return []


def within_published_band(computed, published: str, sig_digits=TABLE_SIG_DIGITS) -> bool:
    pub = Fraction(published)
    exponent = len(str(pub.numerator)) - len(str(pub.denominator))
    while Fraction(10) ** exponent > pub:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= pub:
        exponent += 1
    band = Fraction(10) ** exponent / (2 * 10 ** (sig_digits - 1))
    return abs(Fraction(computed) - pub) < band


# ---------------------------------------------------------------------------
# Output checks, one per command
# ---------------------------------------------------------------------------


def check_eval(text: str, digits: int, ref: dict | None = None) -> list[str]:
    """``eval w2 1 --digits d`` against W2(1) = exp(-beta)."""
    ref = ref or eval_w2_at_one_reference(digits)
    kv = key_values(text)
    fails = []
    if kv.get("formula") != "w2" or kv.get("x") != "1":
        fails.append(f"eval: wrong formula or abscissa echoed: {kv}")
    fails += compare_printed("value", kv.get("value"), ref["value"], digits)
    fails += compare_printed("relative_error", kv.get("relative_error"), ref["relative_error"], 6)
    fails += compare_printed("log_gap", kv.get("log_gap"), ref["log_gap"], 6)
    return fails


def check_constants(text: str, digits: int = 12, ref: dict | None = None) -> list[str]:
    ref = ref or constants_reference(digits)
    kv = key_values(text)
    fails = []
    for name, value in ref.items():
        fails += compare_printed(name, kv.get(name), value, digits)
    return fails


def check_rate(text: str, ref: dict | None = None) -> list[str]:
    """``rate`` (w2 at x = 100, 1000) against mpmath and the limit 869/2976750."""
    ref = ref or rate_reference()
    kv = key_values(text)
    fails = []
    if kv.get("formula") != "w2":
        fails.append(f"rate: wrong formula echoed: {kv.get('formula')}")
    for name in ("scaled_gap_largest", "richardson", "limit"):
        fails += compare_printed(name, kv.get(name), ref[name], 12)
    fails += compare_printed(
        "relative_deviation", kv.get("relative_deviation"), ref["relative_deviation"], 3
    )
    return fails


def check_table_csv(text: str, published=None) -> list[str]:
    published = PUBLISHED_TABLE if published is None else published
    ctx = context(30)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].split(",")[:5] != ["x", "formula", "relative_error", "log_gap", "digits"]:
        return [f"table: unexpected header {lines[:1]}"]
    seen = {}
    fails = []
    for line in lines[1:]:
        cols = line.split(",")
        try:
            key = (int(Fraction(cols[0])), cols[1])
            rel, gap = Fraction(cols[2]), ctx.mpf(cols[3])
        except (ValueError, IndexError, ZeroDivisionError):
            fails.append(f"table: unparsable row {line!r}")
            continue
        seen[key] = rel
        if cols[4] != "50":
            fails.append(f"table: row {key} reports {cols[4]} digits, expected 50")
        # relative_error = |exp(-log_gap) - 1|, both printed to 6 digits
        implied = abs(ctx.expm1(-gap))
        if abs(implied - to_mpf(ctx, rel)) > 2 * printed_ulp(implied, 6):
            fails.append(f"table: row {key} relative_error {cols[2]} disagrees with log_gap {cols[3]}")
    for key, value in published.items():
        if key not in seen:
            fails.append(f"table: published cell {key} missing")
        elif not within_published_band(seen[key], value):
            fails.append(f"table: cell {key} = {float(seen[key]):.6g}, published {value}")
    return fails


def check_table_markdown(text: str, published=None) -> list[str]:
    published = PUBLISHED_TABLE if published is None else published
    rows = [
        [c.strip() for c in line.strip().strip("|").split("|")]
        for line in text.splitlines()
        if line.startswith("|")
    ]
    if len(rows) < 2:
        return ["markdown: no table"]
    header = rows[0][1:]
    seen = {}
    fails = []
    for row in rows[2:]:
        try:
            x = int(Fraction(row[0]))
            for tag, cell in zip(header, row[1:], strict=True):
                seen[(x, tag)] = Fraction(cell)
        except (ValueError, ZeroDivisionError):
            fails.append(f"markdown: unparsable row {row!r}")
    for key, value in published.items():
        if key not in seen:
            fails.append(f"markdown: published cell {key} missing")
        elif not within_published_band(seen[key], value):
            fails.append(f"markdown: cell {key} = {float(seen[key]):.4g}, published {value}")
    return fails


def check_verify(returncode: int, text: str, expected=VERIFY_CHECKS) -> list[str]:
    """Exit code 0 and a PASS status line for every check, no FAIL line."""
    status = {}
    for line in text.splitlines():
        word, _, name = line.partition(" ")
        if word in ("PASS", "FAIL"):
            status[name.strip()] = word
    fails = [] if returncode == 0 else [f"verify: exit code {returncode}"]
    for name in sorted(expected):
        if status.get(name) != "PASS":
            fails.append(f"verify: {name} is {status.get(name, 'missing')}")
    fails += [f"verify: {n} is FAIL" for n, s in sorted(status.items()) if s == "FAIL" and n not in expected]
    return fails


def check_log_error(tag: str, x: Fraction, digits: int, log_gap, relative_error, ref_gap=None) -> list[str]:
    """One ``log_error`` result against mpmath.loggamma at higher precision.

    ``log_gap`` and ``relative_error`` are raw ``libmp`` tuples or any
    value :func:`to_mpf` accepts.  Both must lie within the documented
    accuracy 10^-digits * max(1, |ln Gamma|).  ``ref_gap`` replaces the
    mpmath log gap, so a test can supply a wrong reference.
    """
    ctx = context(digits + EXTRA_DIGITS)
    xv = to_mpf(ctx, x)
    gap_ref, true_ln = reference_log_gap(ctx, tag, xv)
    if ref_gap is not None:
        gap_ref = to_mpf(ctx, ref_gap)
    tol = ctx.mpf(10) ** -digits * max(1, abs(true_ln))
    fails = []
    gap = to_mpf(ctx, log_gap)
    if abs(gap - gap_ref) > tol:
        fails.append(f"log_error({tag}, {x}, {digits}): log_gap off by {ctx.nstr(gap - gap_ref, 3)} > {ctx.nstr(tol, 3)}")
    rel = to_mpf(ctx, relative_error)
    rel_ref = abs(ctx.expm1(-gap_ref))
    if abs(rel - rel_ref) > tol:
        fails.append(f"log_error({tag}, {x}, {digits}): relative_error off by {ctx.nstr(rel - rel_ref, 3)}")
    return fails
