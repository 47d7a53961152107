import contextlib
import io
import json
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import cli, oracle
from fatpoints.cli import RunSpec, parse_config, run
from fatpoints.configuration import ValidationError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = str(CONFIGS / "conic_example.json")
LINE = str(CONFIGS / "line_321.json")
UNIFORM = str(CONFIGS / "uniform_r12_m2.json")


def run_cli(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out, err = capsys.readouterr()
    return info.value.code, out, err


def test_parse_config_golden():
    config, scheme = parse_config(GOLDEN)
    assert config.curve_kind == "conic"
    assert config.r == 6
    assert scheme.multiplicities == (3, 2, 2, 1, 3, 2)
    assert config.conic_shape.kind == "two_lines"


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "curve_kind": "line",
        "points": [{"id": 1}],
        "lines": [[1]],
        "multiplicities": [1],
        "notes": "hello",
    }))
    with pytest.raises(ValidationError) as err:
        parse_config(str(path))
    assert err.value.rule == "config-schema"


def test_parse_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    with pytest.raises(ValidationError) as err:
        parse_config(str(path))
    assert err.value.rule == "config-parse"


def test_parse_config_rejects_bool_multiplicity(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "curve_kind": "line",
        "points": [{"id": 1}],
        "lines": [[1]],
        "multiplicities": [True],
    }))
    with pytest.raises(ValidationError):
        parse_config(str(path))


def test_resolve_table(capsys):
    code, out, _ = run_cli(capsys, ["resolve", GOLDEN])
    assert code == 0
    assert "F0 = R[-5]^3 + R[-6] + R[-8]^2" in out
    assert "F1 = R[-6]^2 + R[-7] + R[-9]^2" in out
    assert "Betti table:" in out


def test_resolve_machine_round_trips(capsys):
    code, out, _ = run_cli(capsys, ["resolve", GOLDEN, "--format", "machine"])
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 5
    assert payload["f0"] == [[5, 3], [6, 1], [8, 2]]
    assert payload["f1"] == [[6, 2], [7, 1], [9, 2]]
    # canonical form: re-dumping the parsed payload reproduces the bytes
    again = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert again == out


def test_hilbert_command(capsys):
    code, out, _ = run_cli(capsys, ["hilbert", LINE, "--max-degree", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].split() == ["6", "18"]


def test_hilbert_machine(capsys):
    code, out, _ = run_cli(capsys, ["hilbert", LINE, "--max-degree", "4", "--format", "machine"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"degrees": [0, 1, 2, 3, 4], "h": [0, 0, 0, 2, 6]}


def test_zariski_command(capsys):
    code, out, _ = run_cli(
        capsys, ["zariski", GOLDEN, "--class", "5,3,2,2,1,3,2", "--format", "machine"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "decomposed"
    assert payload["moving"] == {"d": 2, "m": [0, 1, 1, 0, 1, 0]}
    assert payload["fixed"] == {"d": 3, "m": [3, 1, 1, 1, 2, 2]}
    assert sum(step["copies"] for step in payload["trace"]) == 3


def test_zariski_not_effective(capsys):
    code, out, _ = run_cli(
        capsys, ["zariski", GOLDEN, "--class", "0,1,0,0,0,0,0", "--format", "machine"]
    )
    assert code == 0
    assert json.loads(out)["status"] == "not_effective"


def test_zariski_bad_class(capsys):
    code, _, err = run_cli(capsys, ["zariski", GOLDEN, "--class", "5,3"])
    assert code == 1
    assert "class-format" in err


def test_negcurves_command(capsys):
    code, out, _ = run_cli(capsys, ["negcurves", GOLDEN, "--format", "machine"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["curves"]) == 11
    labels = [c["label"] for c in payload["curves"]]
    assert "L(1,2,3,4)" in labels
    assert all(c["square"] < 0 for c in payload["curves"])


def test_oracle_check_agreement(capsys):
    code, out, _ = run_cli(capsys, ["oracle-check", LINE])
    assert code == 0
    assert out.strip().endswith("agree at all degrees 0..6")


def test_oracle_check_machine(capsys):
    code, out, _ = run_cli(capsys, ["oracle-check", LINE, "--format", "machine"])
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["h_oracle"] == payload["h_pipeline"]


def test_oracle_mismatch_exit_code(capsys, monkeypatch):
    import fatpoints.cli as climod

    real = climod.oracle_report

    def skewed(scheme, seed=0, p=32003, max_degree=None):
        rep = real(scheme, seed=seed, p=p, max_degree=max_degree)
        wrong = tuple(v + 1 for v in rep.h_values)
        return type(rep)(
            prime=rep.prime,
            seed=rep.seed,
            degrees=rep.degrees,
            h_values=wrong,
            nu_values=rep.nu_values,
            pipeline_h=rep.pipeline_h,
            pipeline_nu=rep.pipeline_nu,
        )

    monkeypatch.setattr(climod, "oracle_report", skewed)
    code, out, _ = run_cli(capsys, ["oracle-check", LINE])
    assert code == 3
    assert "MISMATCH" in out


@pytest.mark.parametrize("prime", ["4294967311", "32001"])
def test_oracle_check_rejects_bad_prime(capsys, prime):
    code, out, err = run_cli(
        capsys, ["oracle-check", GOLDEN, "--prime", prime, "--format", "machine"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error [prime-range]") and prime in err


def test_oracle_check_largest_prime(capsys):
    code, out, _ = run_cli(
        capsys, ["oracle-check", GOLDEN, "--prime", str(2**31 - 1), "--format", "machine"]
    )
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_missing_file_exit_one(capsys):
    code, _, err = run_cli(capsys, ["resolve", "/does/not/exist.json"])
    assert code == 1
    assert "error" in err


def test_unsupported_exit_two(capsys, tmp_path):
    path = tmp_path / "flex.json"
    path.write_text(json.dumps({
        "curve_kind": "cubic_flex",
        "points": [{"id": 1}, {"id": 2, "parent": 1}, {"id": 3, "parent": 2}],
        "multiplicities": [1, 1, 1],
    }))
    code, _, err = run_cli(capsys, ["oracle-check", str(path)])
    assert code == 2
    assert "unsupported" in err


@pytest.mark.parametrize("prime", ["31", "43"])
def test_cubic_sampling_failure_exits_two(capsys, tmp_path, prime):
    """Twelve simple points of the uniform cubic find no sample in general
    position over F_31 or F_43; oracle-check says so and exits 2."""
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({
        "curve_kind": "cubic_uniform",
        "points": [{"id": i} for i in range(1, 13)],
        "lambda_spec": {"kind": "trivial"},
        "multiplicities": [1] * 12,
    }))
    code, out, err = run_cli(capsys, ["oracle-check", str(path), "--prime", prime])
    assert (code, out) == (2, "")
    assert err.startswith(f"unsupported: no 12 points in general position on the cubic over F_{prime} ")
    assert "Traceback" not in err


def test_bad_subcommand_exit_one(capsys):
    code, _, _ = run_cli(capsys, ["frobnicate", GOLDEN])
    assert code == 1


def test_run_spec_direct():
    spec = RunSpec(command="negcurves", input_path=GOLDEN, output_format="machine")
    assert run(spec) == 0


SWEEP_BASES = {
    "uniform-members": {
        "curve_kind": "cubic_uniform",
        "points": [{"id": i} for i in range(1, 11)],
        "lambda_spec": {"kind": "members", "members": [{"d": -6, "m": [-2] * 10}]},
        "multiplicities": [2] * 10,
    },
    "two-lines-near-point": json.loads(Path(GOLDEN).read_text()),
}
SWEEP_VALUES = [None, 5, 2.5, True, "x", {}, [], [None]]


def json_paths(node, prefix=()):
    """The path of every value inside a parsed JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def with_value(document, path, value):
    out = json.loads(json.dumps(document))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("base", list(SWEEP_BASES))
def test_schema_sweep_never_escapes(capsys, tmp_path, base):
    """Every field of a valid config, set to a value of each JSON type, ends in
    a documented exit code.  Only null, an integer or an empty list can still
    be valid."""
    path = tmp_path / "config.json"
    bad = []
    for field in json_paths(SWEEP_BASES[base]):
        for value in SWEEP_VALUES:
            path.write_text(json.dumps(with_value(SWEEP_BASES[base], field, value)))
            for command in ("resolve", "hilbert"):
                valid = value is None or type(value) is int or value == []
                allowed = (0, 1, 2) if valid else (1, 2)
                code = run(RunSpec(command, str(path)))
                if code not in allowed:
                    bad.append((field, value, command, code))
    capsys.readouterr()
    assert bad == []


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    for command in ("resolve", "hilbert"):
        assert run(RunSpec(command, str(path))) == 1
        assert "error [config-parse]" in capsys.readouterr().err


def fuzz_bases():
    """The checked-in configs with at most eight points and multiplicities
    at most twelve, parsed from their JSON."""
    root = Path(__file__).resolve().parent.parent
    golden = root / "tests" / "golden" / "configs"
    paths = sorted([*CONFIGS.glob("*.json"), *golden.glob("*.json")])
    bases = []
    for path in paths:
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        mults = data.get("multiplicities") if isinstance(data, dict) else None
        if isinstance(mults, list) and len(mults) <= 8 and all(
            type(v) is int and v <= 12 for v in mults
        ):
            bases.append(data)
    return bases


FUZZ_BASES = fuzz_bases()
COMMANDS = ("resolve", "hilbert", "zariski", "negcurves", "oracle-check")
HUGE = [2**63, 10**30, -(2**63)]
# no huge value goes where a multiplicity is read: the work bound for large
# multiplicities is a separate matter
SMALL = st.one_of(
    st.integers(-2, 12),
    st.booleans(),
    st.sampled_from([None, 1.5, "x", "line", "conic", "cubic_flex", "cubic_uniform", [], {}]),
)
ANY = st.one_of(SMALL, st.sampled_from(HUGE), st.builds(lambda i: {"id": i}, st.integers(-1, 10)))


@st.composite
def mutated_configs(draw):
    """A checked-in config with one to three mutations: a value replaced by
    one of another type or size, a key or list entry removed, a list entry
    added, or an unknown key added."""
    data = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(data))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        node = data
        for key in path[:-1]:
            node = node[key]
        key = path[-1]
        values = SMALL if "multiplicities" in path else ANY
        action = draw(st.sampled_from(["replace", "remove", "append", "extra-key"]))
        if action == "replace":
            node[key] = draw(values)
        elif action == "remove":
            del node[key]
        elif action == "append" and isinstance(node[key], list):
            node[key].append(draw(st.one_of(values, st.sampled_from(node[key] or [0]))))
        elif action == "extra-key" and isinstance(node, dict):
            node["extra"] = draw(values)
    return data


def test_mutated_configs_end_in_an_exit_code(tmp_path):
    """Every command on a mutated config returns a documented exit code and
    raises nothing."""
    path = tmp_path / "config.json"
    codes = Counter()

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(mutated_configs(), st.data())
    def check(data, draws):
        path.write_text(json.dumps(data))
        # a class of the config's rank most of the time, of any length else
        mults = data.get("multiplicities")
        size = len(mults) + 1 if isinstance(mults, list) else 1
        length = draws.draw(st.sampled_from([size, size, size, 1, size + 1]))
        target = draws.draw(st.lists(st.integers(-3, 12), min_size=length, max_size=length))
        max_degree = draws.draw(st.sampled_from([None, 0, 3, 8]))
        seed = draws.draw(st.integers(0, 3))
        for command in COMMANDS:
            spec = RunSpec(
                command,
                str(path),
                output_format="machine",
                max_degree=max_degree if command == "hilbert" else None,
                seed=seed,
                target_class=",".join(map(str, target)),
            )
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(spec)
            assert code in (0, 1, 2, 3), (command, data)
            codes[command, code] += 1

    check()
    for command in COMMANDS:
        assert codes[command, 0] > 10 and codes[command, 1] > 10, codes


def run_captured(spec):
    """``run`` with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(spec)
    return code, out.getvalue(), err.getvalue()


def command_spec(command, path):
    return RunSpec(command, str(path), output_format="machine", target_class="5,3,2,2,1,3,2")


def golden_with_satellites(path, extras):
    document = json.loads(Path(GOLDEN).read_text())
    path.write_text(json.dumps(dict(document, extra_proximities=extras)))


@pytest.mark.parametrize("extras", [[[6, 5]], [[1, 2, 3]], [["x"]]])
def test_satellite_points_exit_two(tmp_path, extras):
    """Any entry in extra_proximities is refused as unsupported, whatever it
    holds, by every command."""
    path = tmp_path / "config.json"
    golden_with_satellites(path, extras)
    for command in COMMANDS:
        assert run_captured(command_spec(command, path)) == (
            2,
            "",
            "unsupported: satellite proximities\n",
        ), command


def test_empty_satellite_list_changes_nothing(tmp_path):
    path = tmp_path / "config.json"
    for command in COMMANDS:
        path.write_text(Path(GOLDEN).read_text())
        without = run_captured(command_spec(command, path))
        golden_with_satellites(path, [])
        assert run_captured(command_spec(command, path)) == without, command


@pytest.mark.parametrize("extras", [5, {}])
def test_satellite_list_must_be_a_list(tmp_path, extras):
    path = tmp_path / "config.json"
    golden_with_satellites(path, extras)
    for command in COMMANDS:
        code, _, err = run_captured(command_spec(command, path))
        assert code == 1 and err.startswith("error [config-schema]"), command


def test_satellite_point_on_flex_chain_exits_two(tmp_path):
    path = tmp_path / "flex.json"
    path.write_text(json.dumps({
        "curve_kind": "cubic_flex",
        "points": [{"id": 1}, {"id": 2, "parent": 1}, {"id": 3, "parent": 2}],
        "extra_proximities": [[3, 1]],
        "multiplicities": [1, 1, 1],
    }))
    code, _, err = run_captured(RunSpec("resolve", str(path)))
    assert (code, err) == (2, "unsupported: satellite proximities\n")


def sibling_document(curve, parents, mults, **extra):
    points = [{"id": i} if p is None else {"id": i, "parent": p} for i, p in enumerate(parents, 1)]
    return {"curve_kind": curve, "points": points, "multiplicities": mults, **extra}


def test_sibling_near_points_exit_one(tmp_path):
    """Two near points of one point on a smooth branch exit 1 on every
    command and name the rule; one near point on each line at the node of a
    two_lines conic agrees with the oracle."""
    smooth = sibling_document(
        "conic", [None, 1, None, 1], [4, 1, 5, 1], conic_shape={"kind": "smooth"}
    )
    line = sibling_document("line", [None, 1, 1], [2, 1, 1], lines=[[1, 2, 3]])
    node = {"kind": "two_lines", "line_a": 0, "line_b": 1}
    both_lines = sibling_document(
        "conic", [None, 1, 1, None, None], [3, 1, 1, 2, 1],
        lines=[[1, 2, 4], [1, 3, 5]], conic_shape=node,
    )
    path = tmp_path / "config.json"
    for data, pair in ((smooth, "p2 and p4"), (line, "p2 and p3")):
        path.write_text(json.dumps(data))
        for command in COMMANDS:
            code, out, err = run_captured(command_spec(command, path))
            assert (code, out) == (1, ""), command
            assert err.startswith(f"error [sibling-near-points]: {pair} are near points of p1")
    path.write_text(json.dumps(both_lines))
    code, out, _ = run_captured(RunSpec("oracle-check", str(path), output_format="machine"))
    assert code == 0 and json.loads(out)["agree"]


def test_near_point_on_uniform_cubic_exits_two(tmp_path):
    """The uniform cubic's rules cover proper points only: a near point
    there is refused by every command that answers for the scheme."""
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(sibling_document(
        "cubic_uniform", [None, 1] + [None] * 7, [1] * 9, lambda_spec={"kind": "trivial"}
    )))
    refusal = (
        "unsupported: p2 is a near point on the uniform cubic, whose rules cover "
        "proper points only\n"
    )
    for command in ("resolve", "hilbert", "zariski", "oracle-check"):
        spec = RunSpec(command, str(path), output_format="machine", target_class="3" + ",1" * 9)
        assert run_captured(spec) == (2, "", refusal), command


@pytest.mark.parametrize(
    "data, entries",
    [
        (sibling_document("line", [None, None], [10**4, 2], lines=[[1, 2]]), 50005003 * 50035006),
        (sibling_document("conic", [None] * 12, [30] * 12, conic_shape={"kind": "smooth"}), 5580 * 16653),
    ],
    ids=["line", "smooth"],
)
def test_oracle_work_bound_exits_two(tmp_path, monkeypatch, data, entries):
    """oracle-check refuses a report past its work bound within a second,
    before it builds a condition row: rows count m(m+1)/2 per point and
    columns the monomials up to the build degree min(sum(m), tau + 1), tau
    the regularity index (10^4 + 2 on the line, 181 on the smooth conic)."""

    def no_rows(*args):
        raise AssertionError("a condition row was built past the work bound")

    monkeypatch.setattr(oracle, "_rows_for_point", no_rows)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run_captured(RunSpec("oracle-check", str(path), output_format="machine"))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("unsupported: oracle work bound exceeded: ")
    assert f" make {entries} matrix entries, above 10000000\n" in err


@st.composite
def deep_chains(draw):
    """A schema-valid config of up to seven points on a line or a conic whose
    parent tree often runs two or more levels deep, with multiplicities at
    most six.  A near point takes at most what its parent has left; some
    configs then have one multiplicity raised by one or set to -1, so
    they break a proximity inequality."""
    r = draw(st.integers(1, 7))
    parents, roots, mults, left = [], [], [], {}
    for i in range(1, r + 1):
        anywhere = None if i == 1 else draw(st.integers(1, i - 1))
        parent = None if i == 1 else draw(st.sampled_from([i - 1, None, anywhere]))
        parents.append(parent)
        roots.append(i if parent is None else roots[parent - 1])
        if parent is None:
            mults.append(draw(st.integers(0, 6)))
        else:
            mults.append(draw(st.integers(0, left[parent])))
            left[parent] -= mults[-1]
        left[i] = mults[-1]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, r - 1))
        mults[k] = draw(st.sampled_from([-1, min(mults[k] + 1, 6)]))
    every = list(range(1, r + 1))
    shape = draw(st.sampled_from(["line", "smooth", "double_line", "two_lines"]))
    data = {
        "curve_kind": "line" if shape == "line" else "conic",
        "points": [
            {"id": i} if p is None else {"id": i, "parent": p} for i, p in enumerate(parents, 1)
        ],
        "multiplicities": mults,
    }
    if shape in ("line", "double_line"):
        data["lines"] = [every]
    if shape == "double_line":
        data["conic_shape"] = {"kind": "double_line", "line_a": 0}
    elif shape == "smooth":
        data["conic_shape"] = {"kind": "smooth"}
    elif shape == "two_lines":
        # p1 is the node and its tree stays on the first component; every
        # other tree goes with one component
        side = {root: draw(st.booleans()) for root in set(roots)}
        side[1] = True
        data["lines"] = [
            [1] + [i for i in every[1:] if side[roots[i - 1]] is flag] for flag in (True, False)
        ]
        data["conic_shape"] = {"kind": "two_lines", "line_a": 0, "line_b": 1}
    return data


def test_deep_chains_end_in_an_exit_code(tmp_path):
    """Every command on a line or conic config with a deep parent tree returns
    a documented exit code, and resolve answers some trees two levels deep."""
    path = tmp_path / "config.json"
    codes = Counter()

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(deep_chains(), st.data())
    def check(data, draws):
        path.write_text(json.dumps(data))
        parent = {pt["id"]: pt.get("parent") for pt in data["points"]}
        deep = any(parent[p] is not None for p in parent.values() if p is not None)
        size = len(parent) + 1
        target = draws.draw(st.lists(st.integers(-1, 8), min_size=size, max_size=size))
        for command in COMMANDS:
            spec = RunSpec(
                command, str(path), output_format="machine", target_class=",".join(map(str, target))
            )
            code, _, _ = run_captured(spec)
            assert code in (0, 1, 2, 3), (command, data)
            codes[command, code, deep] += 1

    check()
    assert codes["resolve", 0, True] > 10 and codes["resolve", 1, True] > 10, codes
