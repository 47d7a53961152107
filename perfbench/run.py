"""Benchmark for the fatpoints package: one workload, one process, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with a single client and no threads: the
next op starts when the previous one has returned and been checked.  Ops
run in rounds of one input per stratum, until ``--seconds`` have passed at
the end of a round.  Every answer is checked against the corpus.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: exact call counts from two counting passes that
must agree, then spans from traced passes over a fixed prefix of the op list,
alternating with untraced passes over the same prefix.  The record line
gives the traced pass's wall time and each layer time's share of it.

Times are scaled to a reference speed of the host (see speed.py); the raw
values are in the record line.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the seed, nproc, Python and numpy versions, the CPU
model, and the percentile and sample count behind ``tail_ms``.  The exit
code is 0 when every answer matched, 1 when one did not, and 2 when the
benchmark could not start.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
MIN_ROUNDS = 3
TAIL_BEYOND = 10
# Ops run by the counting and traced passes (the first of the op list),
# sized so that one pass takes two to six seconds at the seed commit.
TRACE_OPS = {"sweep": 100, "high-mult": 40, "queries": 500, "oracle": 48}
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


def setup(workload: str, seed: int):
    """Import the package and build the workload's inputs; returns the
    package, the inputs, and the raw and scaled seconds it took."""
    before = speed.calibrate()
    start = time.perf_counter()
    fp = workloads.import_fatpoints()
    inputs = workloads.Inputs(fp, workload, seed)
    raw = time.perf_counter() - start
    return fp, inputs, (raw, raw * speed.factor(before, speed.calibrate()))


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, as a first op would see it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def run_op(fp, op):
    """Call and check one op; returns (raw seconds, error or None)."""
    start = time.perf_counter()
    try:
        result = workloads.call(fp, op)
    except Exception as exc:  # a failing op is counted, not fatal
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, workloads.check(op, result)


def measure(fp, inputs, seconds: float):
    """Whole rounds until ``seconds`` have passed; returns per round the
    [raw, scaled] latency of each op, the failures and the speed factors."""
    rounds: list[list[list[float]]] = []
    failures: list[tuple[str, str]] = []
    run_op(fp, inputs.round(0)[0])  # let lazy imports and first-use costs finish
    scaler = speed.Scaler()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds) < MIN_ROUNDS:
        latencies = []
        for op in inputs.round(len(rounds)):
            elapsed, error = run_op(fp, op)
            latencies.append(scaler.record(elapsed))
            if error is not None:
                failures.append((op.entry_id, error))
        rounds.append(latencies)
    scaler.flush()
    return rounds, failures, scaler.factors


def _latency_metrics(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "p50_ms": statistics.median(ordered) * 1000.0,
        "tail_ms": ordered[len(ordered) - TAIL_BEYOND - 1] * 1000.0,
    }


def end_to_end(rounds, failures, setup_samples, factors) -> tuple[dict, dict]:
    n = sum(len(r) for r in rounds)
    values = _latency_metrics([scaled for r in rounds for _, scaled in r])
    values["setup_s"] = statistics.median(scaled for _, scaled in setup_samples)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_share"] = (n - len(failures)) / n
    raw = _latency_metrics([t for r in rounds for t, _ in r])
    raw["setup_s"] = statistics.median(t for t, _ in setup_samples)
    notes = {
        "rounds": len(rounds),
        "samples": n,
        "tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 3),
        "tail_samples_beyond": TAIL_BEYOND,
        "failed_share": len(failures) / n,
        "raw": raw,
        "speed_factor": {"median": statistics.median(factors), "min": min(factors), "max": max(factors)},
        "setup_samples_s": [list(s) for s in setup_samples],
    }
    return values, notes


def trace_metrics(fp, inputs, seconds: float):
    import tracing

    op_list = itertools.chain.from_iterable(inputs.round(i) for i in itertools.count())
    ops = list(itertools.islice(op_list, TRACE_OPS[inputs.workload]))
    failures: list[tuple[str, str]] = []
    attempted = 0
    start = time.perf_counter()

    counts = []
    for _ in range(2):
        counter = tracing.CallCounter(fp)
        for op in ops:
            error = workloads.check(op, counter.run(op))
            if error is not None:
                failures.append((op.entry_id, error))
        attempted += len(ops)
        counts.append(counter.metrics(ops))
    if counts[0] != counts[1]:
        failures.append(("counting", f"two counting passes differ: {counts[0]} vs {counts[1]}"))

    plain_walls, traced_walls, layers = [], [], []
    tracer = None
    while time.perf_counter() - start < seconds or not traced_walls:
        c0 = speed.calibrate()
        t0 = time.perf_counter()
        results = [workloads.call(fp, op) for op in ops]
        plain_walls.append((time.perf_counter() - t0))
        c1 = speed.calibrate()
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        traced = tracing.run_traced(fp, ops, tracer)
        traced_walls.append(time.perf_counter() - t0)
        c2 = speed.calibrate()
        plain_walls[-1] *= speed.factor(c0, c1)
        f = speed.factor(c1, c2)
        traced_walls[-1] *= f
        layers.append({name: ms * f for name, ms in tracer.layer_times_ms().items()})
        for op, result in itertools.chain(zip(ops, results), zip(ops, traced)):
            error = workloads.check(op, result)
            if error is not None:
                failures.append((op.entry_id, error))
        attempted += 2 * len(ops)

    metrics = {name: statistics.median(sample[name] for sample in layers) for name in layers[0]}
    traced_ms = statistics.median(traced_walls) * 1000.0
    notes = {
        "trace_ops": len(ops),
        "traced_passes": len(traced_walls),
        "traced_pass_ms": traced_ms,
        "layer_share_of_traced_pass": {name: ms / traced_ms for name, ms in metrics.items()},
    }
    metrics.update(counts[0])
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    return metrics, notes, attempted, failures, tracer


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_share"):
        return "share"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def write_spans(tracer, workload: str, seed: int) -> Path:
    """The spans of the last traced pass, as raw wall-clock milliseconds."""
    out = workloads.ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans_{workload}_seed{seed}.json"
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [
        {"name": name, "start_ms": (start - origin) * 1000.0, "end_ms": (end - origin) * 1000.0,
         "parent": parent, "op": op}
        for name, start, end, parent, op in tracer.spans
    ]
    path.write_text(json.dumps(rows))
    return path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fatpoints benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        fp, inputs, own_setup = setup(args.workload, args.seed)
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    if args.trace:
        values, notes, attempted, failures, tracer = trace_metrics(fp, inputs, args.seconds)
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
        notes["spans_file"] = str(write_spans(tracer, args.workload, args.seed).relative_to(workloads.ROOT))
    else:
        setup_samples = [own_setup] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        rounds, failures, factors = measure(fp, inputs, args.seconds)
        attempted = sum(len(r) for r in rounds)
        values, notes = end_to_end(rounds, failures, setup_samples, factors)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        **notes,
    }
    for entry_id, error in failures[:20]:
        print(f"perfbench: FAILED {entry_id}: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
