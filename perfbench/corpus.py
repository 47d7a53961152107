"""Build the expected-answer corpus for every workload.

    python3 perfbench/corpus.py

Draws the inputs of all four workloads from a fixed seed, computes each
expected answer, and records where the answer came from:

- ``resolve_line_closed_form``: points on a line, answered by the closed
  formulas, which are a separate route from the lattice pipeline;
- ``oracle-agreement``: the finite-field oracle agreed with the answer at
  every degree through the cutoff (sampling seed and degree recorded);
- ``readme-golden-conic``: the conic worked example of the README;
- ``pinned-at-seed-commit``: computed by the pipeline at the commit named in
  ``PINNED_AT``, with no independent witness.

Each entry also records its cost at the build (``cost_ms``), which only
decides its stratum.  The corpus was built once, at ``PINNED_AT``, and is
checked in.  Rebuilding it at a later commit would re-pin the answers to
that commit, so a change that claims a gain measures against these files.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import shapes  # noqa: E402
import workloads  # noqa: E402

PINNED_AT = "3ac7759"
BUILD_SEED = 9509002
STRATUM_SIZE = 4
# Ten points on a smooth cubic are left out of the resolve and oracle
# workloads.  There the pipeline counts one generator too many in degree
# 3m+1 (r=10, m=1: three in degree 4; the oracle finds two, and 5 sections
# less the 3 multiples of the cubic leave at most two), so a pinned answer
# would be wrong and would turn the fix into a benchmark failure.
UNIFORM_POINT_COUNTS = (9,) + tuple(range(11, 21))
README_GOLDEN = {
    "config": {
        "curve_kind": "conic",
        "points": [{"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}, {"id": 5}, {"id": 6, "parent": 5}],
        "lines": [[1, 2, 3, 4], [1, 5, 6]],
        "conic_shape": {"kind": "two_lines", "line_a": 0, "line_b": 1},
        "multiplicities": [3, 2, 2, 1, 3, 2],
    },
    "f0": [[5, 3], [6, 1], [8, 2]],
    "f1": [[6, 2], [7, 1], [9, 2]],
    "h": {5: 3, 6: 8, 7: 14, 8: 23},
}


def _key(config: dict) -> str:
    return json.dumps(config, sort_keys=True)


def _is_golden(config: dict) -> bool:
    return _key(config) == _key(README_GOLDEN["config"])


def _distinct(draw, count: int) -> list[dict]:
    """Up to ``count`` distinct configs from ``draw``; stops early when the
    space runs out."""
    seen: dict[str, dict] = {}
    misses = 0
    while len(seen) < count and misses < 50 * count:
        config = draw()
        if _key(config) in seen:
            misses += 1
        seen.setdefault(_key(config), config)
    return list(seen.values())


def _flex(rng: random.Random) -> dict:
    mults = [rng.randint(1, 3)] + shapes.descending(rng, rng.randint(8, 11), 0, 3)
    return shapes.cubic_flex(sorted(mults, reverse=True))


def _in_oracle_bounds(config: dict) -> bool:
    """The random oracle families of the acceptance suite."""
    mults = config["multiplicities"]
    kind = config["curve_kind"]
    if kind == "line":
        return len(mults) <= 5 and max(mults) <= 4 and sum(mults) <= 10
    if kind == "conic":
        return len(mults) <= 6 and max(mults) <= 3 and sum(mults) <= 10
    return False


def sweep_configs(rng: random.Random) -> dict[str, list[dict]]:
    """All six shapes at everyday sizes."""
    draws = {
        "line": lambda: shapes.line(shapes.descending(rng, rng.randint(1, 6), 1, 12)),
        "smooth": lambda: shapes.smooth(shapes.descending(rng, rng.randint(2, 12), 1, 5)),
        "two_lines": lambda: shapes.two_lines(
            rng, rng.randint(2, 4), rng.randint(2, 4), rng.randrange(2) == 0, 5
        ),
        "double_line": lambda: shapes.double_line(rng, rng.randint(2, 6), rng.randrange(2) == 0, 5),
        "cubic_uniform": lambda: shapes.cubic_uniform(
            rng.choice(UNIFORM_POINT_COUNTS), rng.randint(1, 6)
        ),
        "cubic_flex": lambda: _flex(rng),
    }
    out = {shape: _distinct(draw, 144) for shape, draw in draws.items()}
    out["two_lines"][0] = README_GOLDEN["config"]
    return out


def high_mult_configs(rng: random.Random) -> dict[str, list[dict]]:
    """Few points with a large leading multiplicity, drawn from four
    geometric bins that together span a factor of four.  Subtraction steps
    grow as m1 squared: the line case (3000, 2) does not finish within 60 s
    at ``PINNED_AT``, so the bins stop at 60."""
    line_bins = [(15, 20), (21, 29), (30, 42), (43, 60)]
    conic_bins = [(10, 13), (14, 19), (20, 28), (29, 40)]

    def two_lines(m1: int) -> dict:
        config = shapes.two_lines(rng, rng.randint(2, 3), 2, rng.randrange(2) == 0, m1 // 2)
        mults = config["multiplicities"]
        mults[0] = m1
        parent = config["points"][-1]["parent"]
        mults[-1] = min(mults[-1], mults[parent - 1])
        return config

    draws = {
        "line2": (line_bins, lambda m1: shapes.line([m1, rng.randint(1, m1)])),
        "line3": (line_bins, lambda m1: shapes.line([m1] + shapes.descending(rng, 2, 1, m1))),
        "smooth": (
            conic_bins,
            lambda m1: shapes.smooth([m1] + shapes.descending(rng, rng.randint(1, 5), 1, m1 // 2)),
        ),
        "two_lines": (conic_bins, two_lines),
    }
    return {
        shape: [
            config
            for lo, hi in bins
            for config in _distinct(lambda: draw(rng.randint(lo, hi)), 20)
        ]
        for shape, (bins, draw) in draws.items()
    }


def oracle_configs(rng: random.Random) -> dict[str, list[dict]]:
    """Schemes inside the oracle's scope at the acceptance-suite bounds."""

    def bounded(draw):
        def pick():
            while True:
                config = draw()
                if _in_oracle_bounds(config):
                    return config
        return pick

    draws = {
        "line": bounded(lambda: shapes.line(shapes.descending(rng, rng.randint(1, 5), 1, 4))),
        "smooth": bounded(lambda: shapes.smooth(shapes.descending(rng, rng.randint(1, 6), 1, 3))),
        "two_lines": bounded(
            lambda: shapes.two_lines(
                rng, rng.randint(2, 3), rng.randint(2, 3), rng.randrange(2) == 0, 3
            )
        ),
        "double_line": bounded(lambda: shapes.double_line(rng, rng.randint(2, 5), True, 3)),
    }
    out = {shape: _distinct(draw, 40) for shape, draw in draws.items()}
    out["two_lines"][0] = README_GOLDEN["config"]
    for m in (1, 2):
        out[f"cubic_uniform_m{m}"] = [
            shapes.cubic_uniform(UNIFORM_POINT_COUNTS[k % 3], m) for k in range(20)
        ]
    return out


def queries_configs(rng: random.Random) -> dict[str, list[dict]]:
    draws = {
        "line": lambda: shapes.line(shapes.descending(rng, rng.randint(1, 6), 1, 8)),
        "smooth": lambda: shapes.smooth(shapes.descending(rng, rng.randint(2, 10), 1, 4)),
        "two_lines": lambda: shapes.two_lines(
            rng, rng.randint(2, 5), rng.randint(2, 5), rng.randrange(2) == 0, 4
        ),
        "double_line": lambda: shapes.double_line(rng, rng.randint(2, 6), rng.randrange(2) == 0, 4),
        "cubic_uniform": lambda: shapes.cubic_uniform(rng.randint(9, 16), rng.randint(1, 4)),
        "cubic_flex": lambda: _flex(rng),
    }
    out = {shape: _distinct(draw, 40) for shape, draw in draws.items()}
    out["two_lines"][0] = README_GOLDEN["config"]
    return out


class Builder:
    def __init__(self, fp, configs_dir: Path):
        self.fp = fp
        self.configs_dir = configs_dir

    def resolve_entry(self, config: dict) -> dict:
        fp = self.fp
        scheme = shapes.scheme_from_config(fp, config)
        report = fp.resolve(scheme)
        answer = workloads.resolve_answer(report)
        if workloads.check_resolve(report, answer) is not None:
            raise RuntimeError(f"pipeline report is inconsistent for {config}")
        entry = {"config": config, "expected": answer, "source": "pinned-at-seed-commit"}
        if _is_golden(config):
            if answer["f0"] != README_GOLDEN["f0"] or answer["f1"] != README_GOLDEN["f1"] or any(
                report.h[d] != v for d, v in README_GOLDEN["h"].items()
            ):
                raise RuntimeError("the pipeline disagrees with the README example")
            entry["source"] = "readme-golden-conic"
        elif config["curve_kind"] == "line":
            if workloads.resolve_answer(fp.resolve_line_closed_form(scheme)) != answer:
                raise RuntimeError(f"closed form and pipeline split on {config}")
            entry["source"] = "resolve_line_closed_form"
        elif _in_oracle_bounds(config):
            entry["oracle_check"] = self.oracle_agreement(scheme, report.cutoff, answer)
            entry["source"] = "oracle-agreement"
        return entry

    def oracle_agreement(self, scheme, top: int, answer: dict) -> dict:
        h, nu = workloads.expected_h_nu(answer, top)
        for seed in range(20):
            rep = self.fp.oracle_report(scheme, seed=seed, max_degree=top)
            if rep.all_agree and list(rep.h_values) == h and list(rep.nu_values) == nu:
                return {"seed": seed, "max_degree": top}
        raise RuntimeError(f"no oracle sample agrees with {scheme}")

    def oracle_entry(self, config: dict, rng: random.Random) -> dict:
        scheme = shapes.scheme_from_config(self.fp, config)
        m = config["multiplicities"]
        max_degree = 4 * m[0] + 3 if config["curve_kind"] == "cubic_uniform" else sum(m) + 1
        for seed in rng.sample(range(10**6), 30):
            try:
                rep = self.fp.oracle_report(scheme, seed=seed, max_degree=max_degree)
            except (ValueError, RuntimeError):
                continue  # a degenerate sample; draw another
            if rep.all_agree:
                break
        else:
            raise RuntimeError(f"no oracle sample agrees with {config}")
        return {
            "config": config,
            "oracle_seed": seed,
            "max_degree": max_degree,
            "expected": {"h": list(rep.h_values), "nu": list(rep.nu_values)},
            "source": "readme-golden-conic" if _is_golden(config) else "oracle-agreement",
        }

    def query_entries(self, configs: dict[str, dict], shape_of: dict[str, str], rng) -> list[dict]:
        by_shape: dict[str, list[str]] = {}
        for name in configs:
            by_shape.setdefault(shape_of[name], []).append(name)
        entries = []
        for command in ("hilbert", "zariski", "negcurves"):
            for shape, names in by_shape.items():
                if command == "negcurves" and shape.startswith("cubic"):
                    continue  # no negative curve list on a cubic: exit code 2
                for _ in range(60):
                    name = rng.choice(names)
                    entry = {"group": f"{command}/{shape}", "config": name, "command": command}
                    mults = configs[name]["multiplicities"]
                    cutoff = sum(mults) + 1
                    if command == "hilbert":
                        entry["max_degree"] = rng.randint(0, cutoff)
                    elif command == "zariski":
                        if shape == "cubic_uniform":
                            m = rng.randint(0, mults[0] + 1)
                            target = [rng.randint(0, 3 * m + 6)] + [m] * len(mults)
                        else:
                            target = [rng.randint(0, cutoff)] + [
                                max(0, v + rng.randint(-1, 1)) for v in mults
                            ]
                        entry["class"] = ",".join(str(v) for v in target)
                    entry.update(self.query_answer(configs[name], entry))
                    entries.append(entry)
        return entries

    def query_answer(self, config: dict, entry: dict) -> dict:
        fp = self.fp
        code, out, err = workloads.run_cli(
            fp, str(self.configs_dir / f"{entry['config']}.json"), entry["command"],
            entry.get("max_degree"), entry.get("class"),
        )
        if code != 0 or err:
            raise RuntimeError(f"query failed at the seed commit: {entry} -> {code} {err}")
        answer = workloads.query_answer(entry["command"], out)
        source = "pinned-at-seed-commit"
        if entry["command"] == "hilbert":
            h = answer["h"]
            if _is_golden(config):
                if any(h[d] != v for d, v in README_GOLDEN["h"].items() if d < len(h)):
                    raise RuntimeError("hilbert disagrees with the README example")
                source = "readme-golden-conic"
            elif config["curve_kind"] == "line":
                closed = fp.resolve_line_closed_form(shapes.scheme_from_config(fp, config))
                if h != list(closed.h[: len(h)]):
                    raise RuntimeError(f"hilbert disagrees with the closed form on {config}")
                source = "resolve_line_closed_form"
        return {"expected": answer, "source": source}

    def assign_strata(self, workload: str, entries: list[dict]) -> None:
        """Sort each group's entries by their cost here and cut them into
        strata of about ``STRATUM_SIZE``.

        A round runs one entry of every stratum, and the entries of a stratum
        cost about the same, so every round costs about the same whichever
        entries the seed picks."""
        groups: dict[str, list[dict]] = {}
        for i, entry in enumerate(entries):
            entry["id"] = f"{workload}-{i:04d}"
            op = workloads.make_op(self.fp, workload, entry, self.configs_dir)
            costs = []
            for _ in range(3):
                start = time.perf_counter()
                workloads.call(self.fp, op)
                costs.append(time.perf_counter() - start)
            entry["cost_ms"] = round(statistics.median(costs) * 1000.0, 3)
            groups.setdefault(entry.pop("group"), []).append(entry)
        for group, members in groups.items():
            members.sort(key=lambda e: (e["cost_ms"], e["id"]))
            n = max(1, round(len(members) / STRATUM_SIZE))
            for i, entry in enumerate(members):
                entry["stratum"] = f"{group}/{i * n // len(members):02d}"


def build(builder: Builder, workload: str, rng: random.Random) -> dict:
    if workload == "queries":
        configs, shape_of = {}, {}
        for shape, members in queries_configs(rng).items():
            for config in members:
                name = f"c{len(configs):03d}"
                configs[name] = config
                shape_of[name] = shape
                (builder.configs_dir / f"{name}.json").write_text(json.dumps(config) + "\n")
        entries = builder.query_entries(configs, shape_of, rng)
        builder.assign_strata(workload, entries)
        return {"entries": entries}
    draw = {"sweep": sweep_configs, "high-mult": high_mult_configs, "oracle": oracle_configs}
    entries = []
    for shape, configs in draw[workload](rng).items():
        for config in configs:
            if workload == "oracle":
                entry = builder.oracle_entry(config, rng)
            else:
                entry = builder.resolve_entry(config)
            entries.append({"group": shape, **entry})
    builder.assign_strata(workload, entries)
    return {"entries": entries}


def main() -> int:
    fp = workloads.import_fatpoints()
    out = workloads.CORPUS_DIR
    (out / "configs").mkdir(parents=True, exist_ok=True)
    builder = Builder(fp, out / "configs")
    for name in workloads.WORKLOADS:
        body = build(builder, name, random.Random(f"{BUILD_SEED}:{name}"))
        doc = {"workload": name, "pinned_at": PINNED_AT, "build_seed": BUILD_SEED, **body}
        path = out / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"{path}: {len(body['entries'])} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
