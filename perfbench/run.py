"""Benchmark of the windschitl package, driven from outside through its CLI
and public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and needs nothing installed beyond mpmath.  All load is closed
loop from one client: one child process at a time.

Workloads:
  cli-cold      one fresh interpreter per CLI command (eval at 50, 200 and
                500 digits, table as CSV and Markdown, verify, rate,
                constants), in seeded order, cheap commands repeated.
  oracle-warm   one warm library process making seeded log_error calls,
                in passes of equal mix.

Every timing in the metrics is scaled to a reference CPU speed by a
calibration measured next to it (see worker.calibrate), because on a
shared host the CPU's speed changes by up to half for minutes at a time.

Every output is checked against independent references (see refs.py)
outside the timed region.  Human-readable lines come first; the last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a separate traced run (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"
BASELINE = HERE / "baseline.json"

# A run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 170.0
SETUP_PROBES = 3  # fresh set-ups before and again after a warm run's measured process
MIN_SAMPLES = 3  # runs of each CLI command, however long it takes, so its median is of three

CLI_COMMANDS = {
    "eval50": ["eval", "w2", "1"],
    "eval200": ["eval", "w2", "1", "--digits", "200"],
    "eval500": ["eval", "w2", "1", "--digits", "500"],
    "table": ["table"],
    "table-md": ["table", "--format", "markdown"],
    "verify": ["verify"],
    "rate": ["rate"],
    "constants": ["constants"],
}


def _exits_zero_and(check):
    """A check of (exit code, stdout): exit code 0 and ``check(stdout)`` clean."""
    return lambda rc, out: ([f"exit code {rc}"] if rc != 0 else []) + check(out)


CLI_CHECKS = {
    "eval50": _exits_zero_and(lambda out: refs.check_eval(out, 50)),
    "eval200": _exits_zero_and(lambda out: refs.check_eval(out, 200)),
    "eval500": _exits_zero_and(lambda out: refs.check_eval(out, 500)),
    "table": _exits_zero_and(refs.check_table_csv),
    "table-md": _exits_zero_and(refs.check_table_markdown),
    "verify": refs.check_verify,
    "rate": _exits_zero_and(refs.check_rate),
    "constants": _exits_zero_and(refs.check_constants),
}

E2E_METRICS = {  # name: unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms": "ms",
}
# Names the per-op-class medians are printed under, per workload.
CLASS_ALIASES = {
    "cli-cold": {c: f"{c.replace('-', '_')}_s" for c in CLI_COMMANDS},
    "oracle-warm": {"digits50": "op_ms@50", "digits100": "op_ms@100",
                    "digits200": "op_ms@200"},
}
# Workloads whose ops are all of one kind, so a tail over all ops means something.
POOLED_TAIL = {"oracle-warm"}
# Layer self times must add up to the traced op time within this share.
SELF_SUM_TOLERANCE = 0.03


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def layer_metric_units() -> dict:
    """Per-layer metric names and units, in report order."""
    units = {}
    for name in tracing.SPAN_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_pct"] = "%"
        units[f"{name}.total_pct"] = "%"
    for name in tracing.COUNT_LAYERS:
        units[f"{name}.calls"] = "count"
    for name in tracing.EXTRA_COUNTERS:
        units[name] = "count"
    units["precision.ln_gamma_ref.us_per_call"] = "us"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.self_sum_ratio"] = "ratio"
    units["trace.spans"] = "count"
    return units


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Children:
    """Starts workers one at a time, each bounded by the run's budget."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def run(self, mode, *args):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        argv = [sys.executable, str(WORKER), mode, str(time.monotonic_ns()), *args]
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchError(f"worker {mode} {args[:1]} exceeded the run budget") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {mode} {args[:1]} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def spans_path(workload, trace, tag):
    if not trace:
        return "-"
    return str(OUT_DIR / workload / f"spans-{tag}.jsonl")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def cli_cold(seed, seconds, trace):
    """Passes over the commands in seeded order, each in a fresh interpreter.

    The first MIN_SAMPLES passes run every command.  Until the deadline,
    each later pass repeats every command that has used less than an equal
    share of ``seconds``, so cheap commands collect many samples spread over
    the run while eval at 500 digits, which overruns its share at once,
    runs MIN_SAMPLES times.
    In a traced run each command runs twice in a row, untraced then traced.
    """
    import random

    rng = random.Random(seed)
    children = Children()
    names = list(CLI_COMMANDS)
    share = seconds / len(names)
    spent = dict.fromkeys(names, 0.0)
    count = dict.fromkeys(names, 0)
    plain, traced, messages = [], [], []
    deadline = time.monotonic() + seconds

    def due(name):
        return count[name] < MIN_SAMPLES or (spent[name] < share and time.monotonic() < deadline)

    def measure(name):
        for traced_run, sink in [(False, plain)] + ([(True, traced)] if trace else []):
            tag = f"{count[name]}-{name}"
            res = children.run("cli", "1" if traced_run else "0",
                               spans_path("cli-cold", traced_run, tag), "--", *CLI_COMMANDS[name])
            fails = CLI_CHECKS[name](res["rc"], res["stdout"])
            messages.extend(f"{name}: {m}" for m in fails)
            sink.append({"class": name, "op_s": res["op_s"], "op_scaled": res["op_scaled"],
                         "setup_s": res["setup_s"], "setup_scaled": res["setup_scaled"],
                         "failed": bool(fails), "maxrss_mb": res["maxrss_mb"], "trace": res["trace"]})
        spent[name] += plain[-1]["op_s"]
        count[name] += 1

    while any(due(name) for name in names):
        for name in rng.sample(names, len(names)):
            if due(name):
                measure(name)

    def latencies(runs, key="op_s"):
        out = {}
        for r in runs:
            out.setdefault(r["class"], []).append(r[key])
        return out

    return {
        "latencies": latencies(plain),
        "scaled": latencies(plain, "op_scaled"),
        "failed": sum(r["failed"] for r in plain),
        "setup": [r["setup_s"] for r in plain],
        "setup_scaled": [r["setup_scaled"] for r in plain],
        "maxrss_mb": max(r["maxrss_mb"] for r in plain),
        "traced_latencies": latencies(traced),
        "traced_failed": sum(r["failed"] for r in traced),
        "traces": [(r["class"], r["op_s"], r["trace"]) for r in traced],
        "messages": messages,
    }


def warm(workload, seed, seconds, trace):
    children = Children()
    def probes():
        return [children.run("probe", workload) for _ in range(SETUP_PROBES)]

    setups = probes()
    res = children.run("warm", workload, str(seed), str(seconds), "1" if trace else "0",
                       spans_path(workload, trace, f"seed{seed}"))
    setups += [res] + probes()
    traced = res.get("traced_latencies", {})
    return {
        "latencies": res["latencies"],
        "scaled": res["scaled"],
        "failed": res["failed"],
        "setup": [r["setup_s"] for r in setups],
        "setup_scaled": [r["setup_scaled"] for r in setups],
        "maxrss_mb": res["maxrss_mb"],
        "traced_latencies": traced,
        "traced_failed": res.get("traced_failed", 0),
        "traces": [(None, total(traced), res["trace"])] if trace else [],
        "messages": res["messages"],
    }


WORKLOADS = {
    "cli-cold": cli_cold,
    "oracle-warm": lambda seed, seconds, trace: warm("oracle-warm", seed, seconds, trace),
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def total(latencies):
    return sum(sum(values) for values in latencies.values())


def count(latencies):
    return sum(len(values) for values in latencies.values())


def e2e_metrics(result):
    """End-to-end metrics of an untraced run, from its scaled class latencies.

    A class's latency is the median of its scaled samples: each run of a
    command (cli-cold) or each pass's mean (oracle-warm).  ops_per_s is the
    throughput of a mix of one op of each class (the class count over the
    sum of class latencies), dominated by the costliest class; op_ms is
    the geometric mean of the class latencies, which weighs a relative
    change in every class equally.
    """
    latency = [stats.median(v) for v in result["scaled"].values()]
    values = {
        "setup_s": stats.median(result["setup_scaled"]),
        "peak_rss_mb": result["maxrss_mb"],
        "ops_per_s": len(latency) / sum(latency),
        "op_ms": 1e3 * stats.geomean(latency),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS.items()}


def class_lines(workload, latencies, scaled):
    """Per class: the scaled latency the metrics use, then the quartiles and tail
    of its ops as measured."""
    aliases = CLASS_ALIASES[workload]
    lines = ["class        alias                 n  scaled_ms   | as measured: median_ms       q1_ms       q3_ms   tail"]
    for klass, values in sorted(latencies.items(), key=lambda kv: stats.median(kv[1])):
        q1, q2, q3 = stats.quartiles(values) if len(values) > 1 else (float("nan"), values[0], float("nan"))
        tail = stats.tail_percentile(values)
        tail_text = f"p{tail[0]:g} {1e3 * tail[1]:.3f} ms" if tail else "n/a (<10 beyond p50)"
        lines.append(f"{klass:<12} {aliases.get(klass, klass):<18} {len(values):>4} "
                     f"{1e3 * stats.median(scaled[klass]):>10.3f}   "
                     f"{1e3 * q2:>25.3f} {1e3 * q1:>11.3f} {1e3 * q3:>11.3f}   {tail_text}")
    pooled = [t for values in latencies.values() for t in values]
    tail = stats.tail_percentile(pooled)
    if tail and workload in POOLED_TAIL:
        q1, q2, q3 = stats.quartiles(pooled)
        lines.append(f"pooled       op_p{tail[0]:g}_ms          {len(pooled):>4} {'':>10}   "
                     f"{1e3 * q2:>25.3f} {1e3 * q1:>11.3f} {1e3 * q3:>11.3f}   "
                     f"p{tail[0]:g} {1e3 * tail[1]:.3f} ms")
    return lines


def merge_traces(traces):
    layers, counts, spans = {}, {}, 0
    for _klass, _op_s, summary in traces:
        for name, row in summary["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in summary["counts"].items():
            if name.endswith("max_index"):
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        spans += summary["spans"]
    return layers, counts, spans


def layer_metrics(result):
    # A traced run repeats exactly the ops of its untraced half, traced.
    traced_wall = total(result["traced_latencies"])
    plain_wall = total(result["latencies"])
    layers, counts, spans = merge_traces(result["traces"])
    self_sum = sum(row["self_s"] for row in layers.values())
    values = {}
    for name in tracing.SPAN_LAYERS:
        row = layers[name]
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_pct"] = 100.0 * row["self_s"] / traced_wall
        values[f"{name}.total_pct"] = 100.0 * row["total_s"] / traced_wall
    for name in tracing.COUNT_LAYERS:
        values[f"{name}.calls"] = counts[name]
    for name in tracing.EXTRA_COUNTERS:
        values[name] = counts[name]
    lg = layers["precision.ln_gamma_ref"]
    values["precision.ln_gamma_ref.us_per_call"] = 1e6 * lg["total_s"] / lg["calls"] if lg["calls"] else 0.0
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values["trace.self_sum_ratio"] = self_sum / traced_wall
    values["trace.spans"] = spans
    units = layer_metric_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, layers


def layer_lines(workload, result, metrics, layers):
    wall = metrics["trace.wall_s"]["value"]
    lines = [f"layer table ({workload}): traced op time {wall:.3f} s, "
             f"trace.overhead_ratio {metrics['trace.overhead_ratio']['value']:.3f}",
             "layer                              calls      self_s   self%   total_s"]
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<34} {row['calls']:>6} {row['self_s']:>10.4f} "
                     f"{100 * row['self_s'] / wall:>6.1f}% {row['total_s']:>9.4f}")
    for name in tracing.COUNT_LAYERS + tracing.EXTRA_COUNTERS:
        key = f"{name}.calls" if name in tracing.COUNT_LAYERS else name
        lines.append(f"{key:<34} {metrics[key]['value']:>6}")
    ratio = metrics["trace.self_sum_ratio"]["value"]
    verdict = "ok" if abs(ratio - 1) <= SELF_SUM_TOLERANCE else "MISMATCH"
    lines.append(f"layer self times sum to {ratio:.4f} of traced op time "
                 f"(allowed 1 +/- {SELF_SUM_TOLERANCE}): {verdict}")
    if workload == "cli-cold":
        for klass in CLI_COMMANDS:
            rows = [t for t in result["traces"] if t[0] == klass]
            if not rows:
                continue
            op_s = sum(t[1] for t in rows)
            layers_k, _, _ = merge_traces(rows)
            top = max(layers_k.items(), key=lambda kv: kv[1]["self_s"])
            bern = layers_k["exact.bernoulli"]["self_s"]
            lines.append(f"command {klass:<10} traced {op_s:8.3f} s; top self {top[0]} "
                         f"{100 * top[1]['self_s'] / op_s:.1f}%; exact.bernoulli self "
                         f"{100 * bern / op_s:.1f}%")
    return lines, verdict == "ok"


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed):
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def environment_warnings(env):
    """Flag a comparison with the recorded baseline across differing setups."""
    if not BASELINE.is_file():
        return []
    base = json.loads(BASELINE.read_text())["environment"]
    warnings = []
    for key in ("backend", "python", "mpmath", "nproc"):
        if base.get(key) != env.get(key):
            warnings.append(f"WARNING: {key} {env.get(key)} differs from the baseline's "
                            f"{base.get(key)}; its numbers are not comparable with this run")
    return warnings


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "windschitl" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'windschitl'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    trace = args.trace == 1
    if trace:
        shutil.rmtree(OUT_DIR / args.workload, ignore_errors=True)
        (OUT_DIR / args.workload).mkdir(parents=True)
    env = environment(args.seed)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = [f"workload {args.workload}: closed loop, one client; env {json.dumps(env)}"]
    lines += environment_warnings(env)
    attempted = count(result["latencies"]) + count(result["traced_latencies"])
    failed = result["failed"] + result["traced_failed"]
    correct = failed == 0
    if trace:
        metrics, layers = layer_metrics(result)
        table, consistent = layer_lines(args.workload, result, metrics, layers)
        lines += table
        correct = correct and consistent
    else:
        metrics = e2e_metrics(result)
        lines += class_lines(args.workload, result["latencies"], result["scaled"])
        lines.append(f"setup samples {len(result['setup'])}, median {stats.median(result['setup_scaled']):.4f} s "
                     f"scaled, {stats.median(result['setup']):.4f} s as measured")
    lines += [f"FAILED: {m}" for m in result["messages"][:20]]
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
