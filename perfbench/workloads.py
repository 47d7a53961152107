"""Workload inputs, the operations run on them, and the answer checks.

Inputs come from the checked-in corpus (``corpus/<workload>.json``), which
pins the expected answer of every entry.  The seed picks half of each
stratum and the order: each round runs one entry of every stratum, so any
run of whole rounds has the same mix of shapes and sizes whatever the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import shapes

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
WORKLOADS = ("sweep", "high-mult", "queries", "oracle")


def import_fatpoints():
    """Import the package from this checkout's ``src``, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import fatpoints
    import fatpoints.cli

    if not Path(fatpoints.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fatpoints was imported from {fatpoints.__file__}, not {src}")
    return fatpoints


def _binom2(a: int) -> int:
    return a * (a - 1) // 2 if a >= 2 else 0


def _module_hilbert(pairs: list[list[int]], n: int) -> int:
    return sum(mult * _binom2(n - d + 2) for d, mult in pairs)


def resolve_answer(report) -> dict:
    """The numbers a resolution report stands for.  The per-degree rule
    notes are left out: they explain the numbers and are expected to change."""
    return {
        "alpha": report.alpha,
        "regularity": report.regularity,
        "cutoff": report.cutoff,
        "f0": [[d, m] for d, m in sorted(report.f0.shifts.items())],
        "f1": [[d, m] for d, m in sorted(report.f1.shifts.items())],
    }


def expected_h_nu(answer: dict, top: int) -> tuple[list[int], list[int]]:
    """Hilbert function and generator counts in degrees 0..top implied by F0
    and F1, computed here rather than by the package."""
    f0 = dict((d, m) for d, m in answer["f0"])
    h = [_module_hilbert(answer["f0"], n) - _module_hilbert(answer["f1"], n) for n in range(top + 1)]
    return h, [f0.get(n, 0) for n in range(top + 1)]


def check_resolve(report, expected: dict) -> str | None:
    got = resolve_answer(report)
    if got != expected:
        return f"resolution {got} differs from the expected {expected}"
    h, nu = expected_h_nu(expected, expected["cutoff"])
    if list(report.h) != h or list(report.nu) != nu:
        return "h or nu does not match F0 and F1"
    return None


def oracle_answer(report) -> dict:
    return {
        "prime": report.prime,
        "seed": report.seed,
        "degrees": list(report.degrees),
        "h": list(report.h_values),
        "nu": list(report.nu_values),
        "pipeline_h": list(report.pipeline_h),
        "pipeline_nu": list(report.pipeline_nu),
    }


def check_oracle(report, op: "Op") -> str | None:
    if not report.all_agree:
        return "oracle and pipeline disagree"
    got = oracle_answer(report)
    h, nu = op.expected["h"], op.expected["nu"]
    want = dict(got, seed=op.args[1], degrees=list(range(op.args[2] + 1)),
                h=h, nu=nu, pipeline_h=h, pipeline_nu=nu)
    return None if got == want else f"oracle report {got} differs from {want}"


def run_cli(fp, path: str, command: str, max_degree=None, target_class=None):
    """One in-process ``fatpoints`` command; returns (exit code, stdout, stderr)."""
    spec = fp.cli.RunSpec(
        command=command,
        input_path=path,
        output_format="machine",
        max_degree=max_degree,
        target_class=target_class,
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fp.cli.run(spec)
    return code, out.getvalue(), err.getvalue()


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def query_answer(command: str, stdout: str) -> dict:
    """The part of a command's machine output that the corpus pins.  For
    ``zariski`` the subtraction trace is left out, since batching the
    subtraction steps changes it without changing the answer."""
    data = json.loads(stdout)
    if command == "hilbert":
        return {"degrees": data["degrees"], "h": data["h"]}
    if command == "zariski":
        keys = ("class", "status", "moving", "fixed")
        return {k: data[k] for k in keys if k in data}
    return {
        "count": len(data["curves"]),
        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
    }


def check_query(result, op: "Op") -> str | None:
    code, out, err = result
    if code != 0 or err:
        return f"exit code {code}: {err.strip()}"
    try:
        got = query_answer(op.args[1], out)
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    if op.args[1] != "zariski" and out != _canonical(json.loads(out)):
        return "output is not canonical JSON"
    return None if got == op.expected else f"answer {got} differs from {op.expected}"


@dataclass(frozen=True)
class Op:
    """One workload operation: ``kind`` names the public call, ``args`` its
    arguments, ``expected`` the pinned answer."""

    entry_id: str
    kind: str
    args: tuple
    expected: dict
    mults: tuple[int, ...]


def call(fp, op: Op):
    if op.kind == "resolve":
        return fp.resolve(op.args[0])
    if op.kind == "oracle":
        scheme, seed, max_degree = op.args
        return fp.oracle_report(scheme, seed=seed, max_degree=max_degree)
    return run_cli(fp, *op.args)


def check(op: Op, result) -> str | None:
    if op.kind == "resolve":
        return check_resolve(result, op.expected)
    if op.kind == "oracle":
        return check_oracle(result, op)
    return check_query(result, op)


def load_corpus(workload: str, corpus_dir: Path = CORPUS_DIR) -> dict:
    return json.loads((corpus_dir / f"{workload}.json").read_text())


def select(corpus: dict, workload: str, seed: int) -> list[list[dict]]:
    """Per stratum (sorted by name), the seeded half of its entries in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    groups: dict[str, list[dict]] = {}
    for entry in corpus["entries"]:
        groups.setdefault(entry["stratum"], []).append(entry)
    return [
        rng.sample(groups[name], (len(groups[name]) + 1) // 2) for name in sorted(groups)
    ]


def make_op(fp, workload: str, entry: dict, configs_dir: Path = CORPUS_DIR / "configs") -> Op:
    """The op of a corpus entry; a queries op reads its config file from
    ``configs_dir``."""
    if workload == "queries":
        path = str(configs_dir / f"{entry['config']}.json")
        args = (path, entry["command"], entry.get("max_degree"), entry.get("class"))
        return Op(entry["id"], "query", args, entry["expected"], ())
    scheme = shapes.scheme_from_config(fp, entry["config"])
    if workload == "oracle":
        args = (scheme, entry["oracle_seed"], entry["max_degree"])
        return Op(entry["id"], "oracle", args, entry["expected"], scheme.multiplicities)
    return Op(entry["id"], "resolve", (scheme,), entry["expected"], scheme.multiplicities)


class Inputs:
    """The seeded operations of one workload, built through the package."""

    def __init__(self, fp, workload: str, seed: int, corpus_dir: Path = CORPUS_DIR):
        self.workload = workload
        self.seed = seed
        chosen = select(load_corpus(workload, corpus_dir), workload, seed)
        self.strata = [
            [make_op(fp, workload, entry, corpus_dir / "configs") for entry in group]
            for group in chosen
        ]

    def round(self, i: int) -> list[Op]:
        """Round i: one op from every stratum, in a seeded order."""
        order = random.Random(f"{self.workload}:{self.seed}:{i}").sample(
            range(len(self.strata)), len(self.strata)
        )
        return [self.strata[s][i % len(self.strata[s])] for s in order]
