"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

fp = workloads.import_fatpoints()


def _ops(workload: str, seed: int, rounds: int = 1):
    inputs = workloads.Inputs(fp, workload, seed)
    return [op for i in range(rounds) for op in inputs.round(i)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = _ops(workload, 7, rounds=3)
    again = _ops(workload, 7, rounds=3)
    other = _ops(workload, 8, rounds=3)
    key = lambda ops: [(op.entry_id, op.kind, op.mults) for op in ops]  # noqa: E731
    assert key(first) == key(again)
    assert key(first) != key(other)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_runs_one_op_of_each_stratum(workload):
    corpus = workloads.load_corpus(workload)
    strata = {e["id"]: e["stratum"] for e in corpus["entries"]}
    ops = _ops(workload, 3)
    assert sorted(strata[op.entry_id] for op in ops) == sorted(set(strata.values()))


@pytest.mark.parametrize("workload", ["sweep", "oracle", "queries"])
def test_traced_run_gives_the_checked_answers(workload):
    ops = _ops(workload, 5)[:12]
    tracer = tracing.Tracer()
    for op, result in zip(ops, tracing.run_traced(fp, ops, tracer)):
        assert workloads.check(op, result) is None
    names = {span[0] for span in tracer.spans}
    top = {"sweep": "resolution.resolve", "oracle": "oracle.oracle_report", "queries": "cli.run"}
    assert top[workload] in names
    assert "configuration.validate" in names
    if workload != "queries":
        # decompositions run inside the section counts, and get their own spans
        inner = [s for s in tracer.spans if s[0] == "zariski.zariski_decompose"]
        assert inner and all(s[3] >= 0 for s in inner)
    if workload == "oracle":
        assert tracer.layer_times_ms()["oracle.pipeline_ms"] > 0
    # the originals are back once the tracer is gone
    assert fp.cohomology.zariski_decompose is fp.zariski.zariski_decompose
    assert not hasattr(fp.zariski.zariski_decompose, "__wrapped__")
    assert not hasattr(fp.resolve, "__wrapped__")


def test_layer_times_split_self_and_inclusive():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["syzygy.s_dim", 0.0, 10.0, -1, "op"],
        ["zariski.zariski_decompose", 1.0, 5.0, 0, "op"],
        ["cohomology.h0_with_decomposition", 5.0, 9.0, 0, "op"],
        ["zariski.zariski_decompose", 6.0, 8.0, 2, "op"],
    ]
    times = tracer.layer_times_ms()
    assert times["syzygy.ms"] == pytest.approx(10_000.0)
    assert times["zariski.ms"] == pytest.approx(6_000.0)
    assert times["cohomology.self_ms"] == pytest.approx(2_000.0)

    tracer.spans = [
        ["oracle.oracle_report", 0.0, 10.0, -1, "op"],
        ["cohomology.h0_any", 1.0, 3.0, 0, "op"],
        ["syzygy.s_dim", 3.0, 7.0, 0, "op"],
        ["cohomology.h0_any", 4.0, 6.0, 2, "op"],
    ]
    assert tracer.layer_times_ms()["oracle.pipeline_ms"] == pytest.approx(6_000.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload):
    ops = _ops(workload, 2)[:10]
    counts = []
    for _ in range(2):
        counter = tracing.CallCounter(fp)
        for op in ops:
            assert workloads.check(op, counter.run(op)) is None
        counts.append(counter.metrics(ops))
    assert counts[0] == counts[1]
    assert counts[0]["configuration.validate_calls"] > 0


def test_resolve_check_catches_a_wrong_answer():
    op = _ops("sweep", 1)[0]
    report = workloads.call(fp, op)
    assert workloads.check(op, report) is None
    wrong = dict(op.expected, f1=op.expected["f1"] + [[99, 1]])
    assert workloads.check_resolve(report, wrong) is not None


def _copy_checkout(tmp_path: Path, with_src: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True,
        text=True, timeout=170,
    )


def test_planted_wrong_answer_makes_the_run_fail(tmp_path):
    root = _copy_checkout(tmp_path, with_src=True)
    path = root / "perfbench" / "corpus" / "queries.json"
    corpus = json.loads(path.read_text())
    stratum = corpus["entries"][0]["stratum"]
    for entry in corpus["entries"]:
        if entry["stratum"] == stratum:  # every round runs one op of this stratum
            entry["expected"]["planted"] = True
    path.write_text(json.dumps(corpus))
    proc = _run(root, "--workload", "queries", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 1
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert json.loads(lines[-2])["record"]["failed_share"] > 0


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    root = _copy_checkout(tmp_path, with_src=False)
    proc = _run(root, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert compare.summarize(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.summarize(faster, parent, "lower", 0.1)["verdict"] == "regression"
    same = [v + (0.05 if i % 2 else -0.05) for i, v in enumerate(parent)]
    assert compare.summarize(parent, same, "lower", 0.1)["verdict"] == "no regression"
    noisy = [5.0, 15.0, 9.0, 11.0, 4.0, 16.0, 10.0, 10.0, 6.0, 14.0]
    assert compare.summarize(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.summarize(noisy, [1.0] * 10, "lower", 0.1)["verdict"] == "better in every run"


def test_compare_fails_a_change_that_fails_more_ops():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run(value: float, failed: int = 0, exit_code: int = 0) -> dict:
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in spec["end_to_end"]}
        return {"metrics": metrics, "failed": failed, "exit_code": exit_code}

    traced = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["per_layer"]}
    traced = {side: {"metrics": traced} for side in ("parent", "change")}
    good = [{"parent": run(10.0 + i), "change": run(5.0 + i)} for i in range(10)]
    text, ok = compare.report({"sweep": {"pairs": good, "traced": traced}}, spec)
    assert ok and "failed\n" not in text
    for broken in (run(5.0, failed=1, exit_code=1), run(5.0, exit_code=1)):
        pairs = good[:9] + [{"parent": run(10.0), "change": broken}]
        text, ok = compare.report({"sweep": {"pairs": pairs, "traced": traced}}, spec)
        assert not ok
        verdicts = [line.split()[-1] for line in text.splitlines() if "wins" in line]
        assert verdicts == ["failed"] * len(spec["end_to_end"])
