"""Golden corpus: the CLI's exact bytes on a fixed set of command lines.

Every case is one command line, run from the repository root, with its exit
code, stdout and stderr as recorded in ``tests/golden/outputs.json``.  The
inputs are the files in ``configs/`` plus the seeded configurations in
``tests/golden/configs/``, which cover all six shapes (line, smooth conic,
two lines, double line, uniform cubic, flex chain) and the error paths.

The unknown-command case prints argparse's own message, which is worded by
the interpreter that captured the corpus (CPython 3.11).

After a deliberate output change, recapture with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``outputs.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path

from fatpoints import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests") / "golden"
OUTPUTS = ROOT / GOLDEN / "outputs.json"


def run_argv(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_outputs(monkeypatch):
    monkeypatch.chdir(ROOT)
    cases = json.loads(OUTPUTS.read_text(encoding="utf-8"))
    assert len(cases) > 100
    changed = [
        case["argv"]
        for case in cases
        if run_argv(case["argv"]) != {k: case[k] for k in ("code", "stdout", "stderr")}
    ]
    assert not changed, f"{len(changed)} of {len(cases)} outputs changed: {changed[:5]}"


# Capture.  Configurations are drawn once from a fixed seed and written to
# tests/golden/configs; the command lines are derived from them.


def _points(parents: list[int | None]) -> list[dict]:
    return [{"id": i} if p is None else {"id": i, "parent": p} for i, p in enumerate(parents, 1)]


def _uniform(r: int, m: int, spec: dict) -> dict:
    return {
        "curve_kind": "cubic_uniform",
        "points": _points([None] * r),
        "lambda_spec": spec,
        "multiplicities": [m] * r,
    }


def _seeded_configs(rng: random.Random) -> dict[str, dict]:
    configs: dict[str, dict] = {}
    for n in range(6):
        r = rng.randint(1, 5)
        near = r >= 2 and rng.random() < 0.5
        mults = sorted((rng.randint(1, 4) for _ in range(r)), reverse=True)
        configs[f"line_{n}"] = {
            "curve_kind": "line",
            "points": _points([None] * (r - 1) + [1 if near else None]),
            "lines": [list(range(1, r + 1))],
            "multiplicities": mults,
        }
    for n in range(6):
        r = rng.randint(1, 7)
        near = r >= 2 and rng.random() < 0.4
        mults = sorted((rng.randint(1, 3) for _ in range(r)), reverse=True)
        configs[f"smooth_{n}"] = {
            "curve_kind": "conic",
            "points": _points([None] * (r - 1) + [1 if near else None]),
            "conic_shape": {"kind": "smooth"},
            "multiplicities": mults,
        }
    for n in range(5):
        a = rng.randint(2, 4)
        b = rng.randint(1, 3)
        shared = rng.random() < 0.5
        r = a + b
        line_a = list(range(1, a + 1))
        line_b = ([1] if shared else []) + list(range(a + 1, r + 1))
        if len(line_b) < 2:
            line_b = [1, r] if shared else line_b + [1]
        configs[f"two_lines_{n}"] = {
            "curve_kind": "conic",
            "points": _points([None] * r),
            "lines": [line_a, line_b],
            "conic_shape": {"kind": "two_lines", "line_a": 0, "line_b": 1},
            "multiplicities": [rng.randint(1, 3) for _ in range(r)],
        }
    for n in range(4):
        r = rng.randint(2, 5)
        configs[f"double_line_{n}"] = {
            "curve_kind": "conic",
            "points": _points([None] * r),
            "lines": [list(range(1, r + 1))],
            "conic_shape": {"kind": "double_line", "line_a": 0},
            "multiplicities": [rng.randint(1, 3) for _ in range(r)],
        }
    for n, r in enumerate((3, 8, 9, 10, 11, 12)):
        mults = sorted((rng.randint(1, 3) for _ in range(r)), reverse=True)
        configs[f"flex_{n}"] = {
            "curve_kind": "cubic_flex",
            "points": _points([None] + list(range(1, r))),
            "multiplicities": mults,
        }
    trivial = {"kind": "trivial"}
    configs.update(
        uniform_r9_order2_m2=_uniform(9, 2, {"kind": "order", "order": 2}),
        uniform_r9_order3_m3=_uniform(9, 3, {"kind": "order", "order": 3}),
        uniform_r9_trivial_m2=_uniform(9, 2, trivial),
        uniform_r10_m1=_uniform(10, 1, trivial),
        uniform_r10_m2=_uniform(10, 2, trivial),
        uniform_r10_members_m2=_uniform(10, 2, {"kind": "members", "members": [{"d": -6, "m": [-2] * 10}]}),
        uniform_r11_m2=_uniform(11, 2, trivial),
        uniform_r12_order2_m2=_uniform(12, 2, {"kind": "order", "order": 2}),
        uniform_r13_m1=_uniform(13, 1, trivial),
        uniform_r8_m1=_uniform(8, 1, trivial),
    )
    return configs


# Error inputs: the parse and schema failures of tests/test_cli.py.
_BAD_FILES = {
    "bad_unknown_key": json.dumps(
        {"curve_kind": "line", "points": [{"id": 1}], "lines": [[1]], "multiplicities": [1], "notes": "hello"}
    ),
    "bad_json": "{oops",
    "bad_bool_multiplicity": json.dumps(
        {"curve_kind": "line", "points": [{"id": 1}], "lines": [[1]], "multiplicities": [True]}
    ),
}


def _classes(data: dict, rng: random.Random) -> list[str]:
    """A few --class values: the scheme's own classes plus random ones."""
    mults = data["multiplicities"]
    r = len(mults)
    top = sum(mults)
    out = [[d] + mults for d in sorted({max(mults) - 1, max(mults), (top + 1) // 2, top})]
    for _ in range(2):
        if data["curve_kind"] == "cubic_uniform":
            m = rng.randint(-1, mults[0] + 1)
            out.append([rng.randint(-1, 3 * m + 4)] + [m] * r)
        else:
            out.append([rng.randint(0, top)] + [rng.randint(0, max(mults)) for _ in range(r)])
    return [",".join(str(v) for v in cls) for cls in out]


def _argv_list(paths: list[Path], rng: random.Random) -> list[list[str]]:
    cases = []
    for path in paths:
        name = str(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        cases.append(["resolve", name, "--format", "machine"])
        cases.append(["hilbert", name, "--format", "machine"])
        cases.append(["hilbert", name, "--format", "machine", "--max-degree", "4"])
        cases.append(["negcurves", name, "--format", "machine"])
        for cls in _classes(data, rng):
            cases.append(["zariski", name, "--format", "machine", f"--class={cls}"])
    u10 = str(GOLDEN / "configs" / "uniform_r10_m1.json")
    u10_members = str(GOLDEN / "configs" / "uniform_r10_members_m2.json")
    u12 = str(GOLDEN / "configs" / "uniform_r12_order2_m2.json")
    u9 = str(GOLDEN / "configs" / "uniform_r9_order2_m2.json")
    flex3 = str(GOLDEN / "configs" / "flex_0.json")
    conic = "configs/conic_example.json"
    cases += [
        # negative multiplicity, t < 0, and an exact multiple of the cubic
        ["zariski", u10, "--format", "machine", "--class", "4," + ",".join(["-1"] * 10)],
        ["zariski", u10, "--format", "machine", "--class", "2," + ",".join(["1"] * 10)],
        ["zariski", u10, "--format", "machine", "--class=-3," + ",".join(["-2"] * 10)],
        ["zariski", u9, "--format", "machine", "--class", "9," + ",".join(["3"] * 9)],
        # restriction degree zero off the multiples of the cubic: kernel membership
        ["zariski", u10, "--format", "machine", "--class", "10," + ",".join(["3"] * 10)],
        ["zariski", u10_members, "--format", "machine", "--class", "10," + ",".join(["3"] * 10)],
        ["zariski", u10_members, "--format", "machine", "--class", "6," + ",".join(["2"] * 10)],
        # an order-only kernel cannot decide this membership: exit 2
        ["zariski", u12, "--format", "machine", "--class", "8," + ",".join(["2"] * 12)],
        # error paths of tests/test_cli.py
        ["zariski", conic, "--class", "5,3"],
        ["resolve", str(GOLDEN / "configs" / "missing.json")],
        ["oracle-check", flex3],
        ["frobnicate", conic],
    ]
    for name in _BAD_FILES:
        cases.append(["resolve", str(GOLDEN / "configs" / f"{name}.json"), "--format", "machine"])
    cases += [["oracle-check", str(path), "--format", "machine"] for path in paths]
    return cases


def capture() -> None:
    os.chdir(ROOT)
    rng = random.Random(20261018)
    config_dir = GOLDEN / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    for name, data in _seeded_configs(rng).items():
        (config_dir / f"{name}.json").write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    for name, text in _BAD_FILES.items():
        (config_dir / f"{name}.json").write_text(text + "\n", encoding="utf-8")
    good = sorted(Path("configs").glob("*.json")) + sorted(
        p for p in config_dir.glob("*.json") if p.stem not in _BAD_FILES
    )
    cases = [dict(argv=argv, **run_argv(argv)) for argv in _argv_list(good, rng)]
    OUTPUTS.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    capture()
