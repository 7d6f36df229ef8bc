"""One measured child process.  ``run.py`` starts these one at a time.

    worker.py cli   SPAWN_NS TRACE SPANS_PATH -- CLI ARGS...
    worker.py warm  SPAWN_NS WORKLOAD SEED SECONDS TRACE SPANS_PATH
    worker.py probe SPAWN_NS WORKLOAD

SPAWN_NS is the parent's ``time.monotonic_ns()`` taken just before the
spawn, so set-up time includes interpreter start.  Every time is emitted
twice: as measured, and scaled to the reference speed (see ``calibrate``).
A SPANS_PATH of ``-`` writes no spans.  The worker prints one JSON object on
its last stdout line.

Imports stay inside the functions, so that set-up time is spent on the
package and not on the benchmark's own modules.
"""

import sys
import time

_SPAWN_NS = None


def _ready_s():
    return (time.monotonic_ns() - _SPAWN_NS) / 1e9


def _import_package():
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import windschitl.cli  # noqa: F401  (imports the whole package)

    return sys.modules["windschitl"], sys.modules["windschitl.cli"]


# What calibrate() takes at full speed on the machine the benchmark was
# written on (2-core VM, Python 3.11.7); a fixed constant of the benchmark.
REF_CAL_S = 0.0290
CAL_TERMS = 6000
CAL_PERIOD_S = 0.25  # between calibrations inside a long CLI command


def calibrate():
    """Seconds taken by a fixed piece of Fraction arithmetic the package does not run.

    On a shared host the CPU runs at times up to twice as slowly, for
    under a second to over a minute, because of other tenants.  This
    pure-Python arbitrary-precision arithmetic slows nearly in step with
    the package's code (see "Scaled times" in README.md), so
    REF_CAL_S / calibrate() scales a time measured next to it to what it
    would have been at the reference speed.
    """
    from fractions import Fraction

    t0 = time.perf_counter()
    for k in range(1, CAL_TERMS):
        Fraction(k, k + 1) * Fraction(k + 2, k + 3) + Fraction(1, k)
    return time.perf_counter() - t0


def _maxrss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(obj):
    import json

    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _run_cli(cli, argv):
    """cli.main(argv) with its output captured: (exit code, stdout text)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _tracer():
    from tracing import Tracer

    return Tracer()


def _trace_summary(tracer, spans_path):
    """Write the spans (unless SPANS_PATH is ``-``) and summarise them."""
    if spans_path != "-":
        tracer.dump(spans_path)
    return tracer.summary()


# ---------------------------------------------------------------------------
# cli-cold: one command in this fresh interpreter
# ---------------------------------------------------------------------------


def run_calibrated(fn):
    """Time fn() and scale its time to the reference speed.

    Returns (fn's result, seconds, scaled seconds, the first calibration).
    Calibrates just before and just after fn, and every CAL_PERIOD_S while
    it runs, from a SIGALRM handler that Python runs between fn's bytecodes,
    so that an op longer than a slowed stretch of the host is scaled piece
    by piece.  Each piece of fn's time between two calibrations is scaled by
    REF_CAL_S over their mean; the calibrations' own time is left out.
    """
    import signal

    perf = time.perf_counter
    cals, pieces = [calibrate()], []  # pieces[i] lies between cals[i] and cals[i + 1]
    start = perf()

    def checkpoint(*_):
        nonlocal start
        pieces.append(perf() - start)
        cals.append(calibrate())
        start = perf()

    previous = signal.signal(signal.SIGALRM, checkpoint)
    signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    checkpoint()
    scaled = sum(t * REF_CAL_S / ((a + b) / 2) for t, a, b in zip(pieces, cals, cals[1:]))
    return result, sum(pieces), scaled, cals[0]


def cli_main(argv):
    trace, spans_path, cli_args = argv[0] == "1", argv[1], argv[3:]
    _, cli = _import_package()
    setup_s = _ready_s()
    if trace:  # per-layer shares only, so no calibration inside the traced op
        cal, tracer = calibrate(), _tracer()
        with tracer:
            t0 = time.perf_counter()
            rc, text = _run_cli(cli, cli_args)
            op_s = time.perf_counter() - t0
        op_scaled, summary = None, _trace_summary(tracer, spans_path)
    else:
        (rc, text), op_s, op_scaled, cal = run_calibrated(lambda: _run_cli(cli, cli_args))
        summary = None
    _emit({"setup_s": setup_s, "setup_scaled": setup_s * REF_CAL_S / cal,
           "op_s": op_s, "op_scaled": op_scaled,
           "rc": rc, "stdout": text, "maxrss_mb": _maxrss_mb(), "trace": summary})


# ---------------------------------------------------------------------------
# oracle-warm: one long-lived library process
# ---------------------------------------------------------------------------

ORACLE_DIGITS = (50, 100, 200)
FORMULA_TAGS = ("stirling", "w0", "w1", "w2", "w2star", "lsm", "ramanujan",
                "smith", "nemes1", "nemes2", "chen", "yangchu1", "yangchu2")
MAX_MESSAGES = 20


ORACLE_DECADES = 4  # x strata [1, 10), [10, 100), [100, 1000), [1000, 10^4]


def oracle_stream(seed):
    """Endless seeded (formula, x, digits) calls, in passes.

    Each pass holds one call for every formula, precision and decade of x
    (13 * 3 * 4 = 156 calls) in shuffled order; within its decade x is
    log-uniform with three decimals.  So formula and precision are uniform,
    x is log-uniform on [1, 10^4] (about 40 % of calls fall below the
    oracle's shift threshold at their precision), and every pass holds the
    same mix, which makes passes comparable with one another.
    """
    import random
    from fractions import Fraction

    rng = random.Random(seed)
    while True:
        batch = [(tag, Fraction(max(1000, round(10 ** rng.uniform(decade, decade + 1) * 1000)), 1000), digits)
                 for tag in FORMULA_TAGS for digits in ORACLE_DIGITS for decade in range(ORACLE_DECADES)]
        rng.shuffle(batch)
        yield from batch


class Oracle:
    """log_error(formula, x, cfg) calls, checked against mpmath."""

    pass_ops = len(FORMULA_TAGS) * len(ORACLE_DIGITS) * ORACLE_DECADES  # one pass of oracle_stream

    def __init__(self, pkg):
        self.pkg = pkg
        self.cfgs = {d: pkg.OracleConfig.for_digits(d) for d in ORACLE_DIGITS}

    def warm_up(self):
        from fractions import Fraction

        for cfg in self.cfgs.values():
            for x in (Fraction(3, 2), Fraction(1000)):  # shift loop and series only
                self.pkg.log_error(self.pkg.FormulaId.W2, x, cfg)

    def klass(self, op):
        return f"digits{op[2]}"

    def run(self, op):
        tag, x, digits = op
        return self.pkg.log_error(self.pkg.FormulaId(tag), x, self.cfgs[digits])

    def check(self, op, record):
        import refs

        tag, x, digits = op
        return refs.check_log_error(tag, x, digits, record.log_gap.raw, record.relative_error.raw)


def _workload(name, pkg):
    if name == "oracle-warm":
        return Oracle(pkg), oracle_stream
    raise SystemExit(f"unknown warm workload {name!r}")


def timed_ops(work, ops, keep_ops=False):
    """Run ops closed-loop, timing each; check each outside the timed region.

    A failed or raising op is counted, never retried or dropped, and its
    latency is kept.  Returns (the executed ops if ``keep_ops`` else None,
    latencies per class, failed count, the first failure messages).
    Latencies live in compact arrays, so the process's peak memory hardly
    grows with the number of ops.
    """
    from array import array

    perf = time.perf_counter
    done = [] if keep_ops else None
    latencies, failed, messages = {}, 0, []
    for op in ops:
        t0 = perf()
        try:
            result, error = work.run(op), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, f"{op!r}: {type(exc).__name__}: {exc}"
        elapsed = perf() - t0
        fails = [error] if error else work.check(op, result)
        if keep_ops:
            done.append(op)
        latencies.setdefault(work.klass(op), array("d")).append(elapsed)
        if fails:
            failed += 1
            messages.extend(fails[: max(0, MAX_MESSAGES - len(messages))])
    return done, latencies, failed, messages


def timed_passes(work, stream, seconds, keep_ops=False):
    """Whole passes of ``work.pass_ops`` ops from ``stream`` until ``seconds`` have passed.

    Calibrates before the first pass and after each.  Returns what
    ``timed_ops`` does, with the latencies merged over passes, and, after
    the latencies, each class's mean latency in each pass scaled by
    REF_CAL_S over the mean of the calibrations on either side of the pass,
    and the first calibration.
    """
    from array import array
    from itertools import islice

    deadline = time.perf_counter() + seconds
    done, latencies, scaled, failed, messages = [], {}, {}, 0, []
    first = before = calibrate()
    while time.perf_counter() < deadline:
        ops, lat, pass_failed, pass_messages = timed_ops(work, islice(stream, work.pass_ops), keep_ops=keep_ops)
        after = calibrate()
        scale = REF_CAL_S / ((before + after) / 2)
        for klass, values in lat.items():
            latencies.setdefault(klass, array("d")).extend(values)
            scaled.setdefault(klass, []).append(scale * sum(values) / len(values))
        if keep_ops:
            done.extend(ops)
        failed += pass_failed
        messages.extend(pass_messages[: max(0, MAX_MESSAGES - len(messages))])
        before = after
    return (done if keep_ops else None), latencies, scaled, failed, messages, first


def _as_lists(latencies):
    return {klass: list(values) for klass, values in latencies.items()}


def warm_main(argv):
    name, seed, seconds, trace, spans_path = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    pkg, _ = _import_package()
    work, stream = _workload(name, pkg)
    work.warm_up()
    setup_s = _ready_s()
    if not trace:
        _, latencies, scaled, failed, messages, cal = timed_passes(work, stream(seed), seconds)
        maxrss_mb = _maxrss_mb()
        _emit({"setup_s": setup_s, "setup_scaled": setup_s * REF_CAL_S / cal,
               "latencies": _as_lists(latencies), "scaled": scaled,
               "failed": failed, "messages": messages, "maxrss_mb": maxrss_mb, "trace": None})
        return
    # Traced run: half the time untraced, then the same ops again traced.
    ops, plain, scaled, failed, messages, cal = timed_passes(work, stream(seed), seconds / 2, keep_ops=True)
    tracer = _tracer()
    with tracer:
        _, traced, traced_failed, traced_messages = timed_ops(work, ops)
    _emit({"setup_s": setup_s, "setup_scaled": setup_s * REF_CAL_S / cal,
           "latencies": _as_lists(plain), "scaled": scaled,
           "failed": failed, "traced_latencies": _as_lists(traced), "traced_failed": traced_failed,
           "messages": (messages + traced_messages)[:MAX_MESSAGES], "maxrss_mb": _maxrss_mb(),
           "trace": _trace_summary(tracer, spans_path)})


def probe_main(argv):
    pkg, _ = _import_package()
    work, _ = _workload(argv[0], pkg)
    work.warm_up()
    setup_s = _ready_s()
    _emit({"setup_s": setup_s, "setup_scaled": setup_s * REF_CAL_S / calibrate()})


if __name__ == "__main__":
    mode, _SPAWN_NS, rest = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    if mode == "cli":
        cli_main(rest)
    elif mode == "warm":
        warm_main(rest)
    elif mode == "probe":
        probe_main(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
