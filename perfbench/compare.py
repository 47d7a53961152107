"""Compare a parent checkout with a change, workload by workload.

    python3 perfbench/compare.py --parent DIR --change DIR [--workload NAME ...]

Runs ten pairs per workload, both sides on the same seed (101, 102, ...)
and for ``run_seconds`` from BENCHMARK.json, and alternates which side runs
first.  Each side runs its own checkout's ``perfbench/run.py``; a change
that claims a gain does not edit the benchmark, so both run the same
benchmark code.  After the pairs, one traced
run per side gives the per-layer numbers next to each other.

For each workload and end-to-end metric it prints both sides' median and
quartiles and one verdict:

- ``gain``: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's quartile spread;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's own quartile spread, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
- ``better in every run``: as unresolved, but every change run is better;
- ``no regression``: none of the above;
- ``failed``: a change run exited nonzero or the change failed more ops than
  the parent on this workload.  Every metric of the workload gets this
  verdict, and the command exits 1.

All runs are also written to ``.perfbench_out/compare.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "high-mult", "queries", "oracle")
PAIRS = 10
FIRST_SEED = 101


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed no result: {proc.stderr}")
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    result["exit_code"] = proc.returncode
    return result


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, pair wins and the verdict for one metric.
    ``parent[i]`` and ``change[i]`` are the two sides of pair i."""
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    worse_by = (p_med - c_med if better == "higher" else c_med - p_med) / p_med if p_med else 0.0
    if worse_by > bound:
        verdict = "regression"
    elif spread > bound:
        every = all(_better(c, p, better) for p in parent for c in change)
        verdict = "better in every run" if every else "unresolved"
    elif wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q3 - p_q1 and _better(c_med, p_med, better):
        verdict = "gain"
    else:
        verdict = "no regression"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": wins,
        "pairs": len(parent),
        "parent_spread": spread,
        "verdict": verdict,
    }


def change_failed(runs: list[dict]) -> bool:
    """A change run exited nonzero, or the change failed more ops than the parent."""
    failed = {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")}
    return any(r["change"]["exit_code"] != 0 for r in runs) or failed["change"] > failed["parent"]


def report(results: dict, spec: dict) -> tuple[str, bool]:
    """The comparison table, and whether no workload's change failed."""
    lines = []
    ok = True
    for workload, data in results.items():
        runs = data["pairs"]
        failed = change_failed(runs)
        ok = ok and not failed
        lines.append(f"== {workload} ({len(runs)} pairs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["parent"]["metrics"][name]["value"] for r in runs]
            change = [r["change"]["metrics"][name]["value"] for r in runs]
            s = summarize(parent, change, metric["better"], metric["bound"])
            p, c = s["parent"], s["change"]
            lines.append(
                f"{name:12s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {metric['unit']}  "
                f"wins {s['wins']}/{s['pairs']}  {'failed' if failed else s['verdict']}"
            )
        lines.append("per layer (one traced run per side):")
        for metric in spec["per_layer"]:
            name = metric["name"]
            p = data["traced"]["parent"]["metrics"][name]["value"]
            c = data["traced"]["change"]["metrics"][name]["value"]
            lines.append(f"  {name:30s} {p:>14.6g} -> {c:<14.6g} {metric['unit']}")
        lines.append(
            "failed ops: parent {}, change {}".format(
                *(sum(r[side]["failed"] for r in runs) for side in ("parent", "change"))
            )
        )
    return "\n".join(lines), ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results = {}
    for workload in args.workload or WORKLOADS:
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pairs.append({side: run_side(sides[side], workload, FIRST_SEED + i, seconds, 0) for side in order})
            print(f"{workload} pair {i + 1}/{PAIRS} done", file=sys.stderr)
        traced = {side: run_side(sides[side], workload, FIRST_SEED, seconds, 1) for side in sides}
        results[workload] = {"pairs": pairs, "traced": traced}
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(results, indent=1))
    text, ok = report(results, spec)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
