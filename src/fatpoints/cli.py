"""Command-line front end.

Configurations come in as JSON files; reports go out as aligned tables or as
canonical machine JSON (sorted keys, tight separators, one trailing newline)
that round-trips byte for byte.  Exit statuses: 0 success or full agreement,
1 invalid input, 2 valid input outside the supported rules, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    Point,
    PointConfig,
    UnsupportedRuleError,
    ValidationError,
    validate,
)
from .cohomology import h0_any, make_context, regularity_bound
from .lattice import ClassVector
from .negcurves import negative_curves
from .oracle import DEFAULT_PRIME, check_prime, oracle_report
from .resolution import GradedFreeModule, ResolutionReport, resolve
from .zariski import NotEffective, zariski_decompose


@dataclass(frozen=True)
class RunSpec:
    command: str
    input_path: str
    output_format: str = "table"
    max_degree: int | None = None
    seed: int = 0
    prime: int = DEFAULT_PRIME
    target_class: str | None = None


_TOP_KEYS = {
    "curve_kind",
    "points",
    "lines",
    "extra_proximities",
    "conic_shape",
    "lambda_spec",
    "multiplicities",
}


def _schema_error(message: str) -> ValidationError:
    return ValidationError(message, rule="config-schema")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _schema_error(f"{where} must be an integer, got {value!r}")
    return value


def _as_list(value, message: str) -> list:
    if not isinstance(value, list):
        raise _schema_error(message)
    return value


def _as_int_list(value, where: str) -> list[int]:
    return [_as_int(v, where) for v in _as_list(value, f"{where} must be a list of integers")]


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise _schema_error(f"unknown key {unknown[0]!r} in {where}")


def _parse_points(raw, where: str) -> tuple[Point, ...]:
    points = []
    for entry in _as_list(raw, f"{where} must be a list of point objects"):
        if not isinstance(entry, dict):
            raise _schema_error(f"each entry of {where} must be an object")
        _check_keys(entry, {"id", "parent"}, where)
        if "id" not in entry:
            raise _schema_error(f"point in {where} is missing its id")
        parent = entry.get("parent")
        points.append(
            Point(
                _as_int(entry["id"], f"{where}.id"),
                None if parent is None else _as_int(parent, f"{where}.parent"),
            )
        )
    return tuple(points)


def _parse_conic_shape(raw) -> ConicShape:
    if not isinstance(raw, dict):
        raise _schema_error("conic_shape must be an object")
    _check_keys(raw, {"kind", "line_a", "line_b"}, "conic_shape")
    if "kind" not in raw:
        raise _schema_error("conic_shape is missing its kind")
    line_a = raw.get("line_a")
    line_b = raw.get("line_b")
    return ConicShape(
        raw["kind"],
        None if line_a is None else _as_int(line_a, "conic_shape.line_a"),
        None if line_b is None else _as_int(line_b, "conic_shape.line_b"),
    )


def _parse_lambda_spec(raw) -> LambdaSpec:
    if not isinstance(raw, dict):
        raise _schema_error("lambda_spec must be an object")
    _check_keys(raw, {"kind", "order", "members"}, "lambda_spec")
    if "kind" not in raw:
        raise _schema_error("lambda_spec is missing its kind")
    order = raw.get("order")
    members = []
    for entry in _as_list(raw.get("members", []), "lambda_spec.members must be a list"):
        if not isinstance(entry, dict):
            raise _schema_error("each lambda_spec member must be an object")
        _check_keys(entry, {"d", "m"}, "lambda_spec.members")
        if "d" not in entry or "m" not in entry:
            raise _schema_error("lambda_spec members need both d and m")
        members.append(
            ClassVector(
                _as_int(entry["d"], "lambda_spec.members.d"),
                tuple(_as_int_list(entry["m"], "lambda_spec.members.m")),
            )
        )
    return LambdaSpec(
        raw["kind"],
        None if order is None else _as_int(order, "lambda_spec.order"),
        tuple(members),
    )


def parse_config(path: str) -> tuple[PointConfig, FatPointScheme]:
    """Read and validate a configuration file; returns config and scheme."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            rule="config-parse",
        ) from exc
    except RecursionError as exc:
        raise ValidationError(
            f"{path}: JSON nested too deeply to parse", rule="config-parse"
        ) from exc
    if not isinstance(data, dict):
        raise _schema_error(f"{path}: top level must be an object")
    _check_keys(data, _TOP_KEYS, path)
    for key in ("curve_kind", "points", "multiplicities"):
        if key not in data:
            raise _schema_error(f"{path}: missing required key {key!r}")
    if not isinstance(data["curve_kind"], str):
        raise _schema_error("curve_kind must be a string")

    lines_raw = _as_list(data.get("lines", []), "lines must be a list of id lists")
    lines = tuple(tuple(_as_int_list(line, "lines")) for line in lines_raw)

    satellites = _as_list(
        data.get("extra_proximities", []),
        "extra_proximities must be a list of [point, ancestor] pairs",
    )

    config = PointConfig(
        curve_kind=data["curve_kind"],
        points=_parse_points(data["points"], "points"),
        lines=lines,
        conic_shape=(
            _parse_conic_shape(data["conic_shape"]) if "conic_shape" in data else None
        ),
        lambda_spec=(
            _parse_lambda_spec(data["lambda_spec"]) if "lambda_spec" in data else None
        ),
    )
    validate(config)
    scheme = FatPointScheme(
        config, tuple(_as_int_list(data["multiplicities"], "multiplicities"))
    )
    # a valid config with satellite points is outside the rules: the pipeline
    # reads proximity from the parent tree alone
    if satellites:
        raise UnsupportedRuleError("satellite proximities")
    return config, scheme


def _parse_class(raw: str | None, r: int) -> ClassVector:
    if raw is None:
        raise ValidationError("zariski needs --class d,m1,...,mr", rule="class-format")
    try:
        values = [int(part.strip()) for part in raw.split(",")]
    except ValueError as exc:
        raise ValidationError(
            f"--class wants comma-separated integers, got {raw!r}",
            rule="class-format",
        ) from exc
    if len(values) != r + 1:
        raise ValidationError(
            f"--class wants d plus {r} multiplicities, got {len(values)} values",
            rule="class-format",
        )
    return ClassVector(values[0], tuple(values[1:]))


def _emit_machine(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _class_json(cls: ClassVector) -> dict:
    return {"d": cls.d, "m": list(cls.m)}


def _module_json(module: GradedFreeModule) -> list[list[int]]:
    return [[d, mult] for d, mult in sorted(module.shifts.items())]


def _trace_json(trace) -> list[dict]:
    return [
        {
            "copies": step.copies,
            "kind": step.kind,
            "label": step.label,
            "pairing": step.pairing,
            "rule": step.rule,
            "square": step.square,
            "subtracted": _class_json(step.subtracted),
        }
        for step in trace
    ]


def _betti_table(f0: GradedFreeModule, f1: GradedFreeModule) -> str:
    rows: dict[int, list[int]] = {}
    for d, mult in f0.shifts.items():
        rows.setdefault(d, [0, 0])[0] += mult
    for d, mult in f1.shifts.items():
        rows.setdefault(d - 1, [0, 0])[1] += mult
    if not rows:
        return "(empty)"
    lo, hi = min(rows), max(rows)
    body = [("", "0", "1"), ("total:", str(f0.rank()), str(f1.rank()))]
    for j in range(lo, hi + 1):
        c0, c1 = rows.get(j, (0, 0))
        body.append((f"{j}:", str(c0) if c0 else ".", str(c1) if c1 else "."))
    widths = [max(len(row[i]) for row in body) for i in range(3)]
    return "\n".join(
        " ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in body
    )


def _degree_table(columns: dict[str, list[int]], degrees: list[int]) -> str:
    names = list(columns)
    head = ["degree"] + names
    grid = [head]
    for idx, d in enumerate(degrees):
        grid.append([str(d)] + [str(columns[name][idx]) for name in names])
    widths = [max(len(row[i]) for row in grid) for i in range(len(head))]
    return "\n".join(
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in grid
    )


def _describe_config(config: PointConfig, scheme: FatPointScheme) -> str:
    kind = config.curve_kind
    if config.conic_shape is not None:
        kind += f" ({config.conic_shape.kind})"
    mults = " ".join(str(v) for v in scheme.multiplicities)
    return f"configuration: {kind}, {config.r} points, multiplicities {mults}"


def _print_resolution(report: ResolutionReport, config, scheme, fmt: str) -> None:
    if fmt == "machine":
        _emit_machine(
            {
                "alpha": report.alpha,
                "cutoff": report.cutoff,
                "f0": _module_json(report.f0),
                "f1": _module_json(report.f1),
                "h": list(report.h),
                "nu": list(report.nu),
                "regularity": report.regularity,
                "traces": [
                    {
                        "degree": t.degree,
                        "rules": list(t.rules),
                        "subtracted": list(t.subtracted),
                    }
                    for t in report.traces
                ],
            }
        )
        return
    degrees = list(range(report.cutoff + 1))
    print(_describe_config(config, scheme))
    print(f"regularity bound {report.regularity}, cutoff {report.cutoff}")
    print(f"alpha (least degree with sections): {report.alpha}")
    print()
    print(_degree_table({"h": list(report.h), "nu": list(report.nu)}, degrees))
    print()
    print(f"F0 = {report.f0}")
    print(f"F1 = {report.f1}")
    print()
    print("Betti table:")
    print(_betti_table(report.f0, report.f1))


def _run_resolve(spec: RunSpec) -> int:
    config, scheme = parse_config(spec.input_path)
    report = resolve(scheme)
    _print_resolution(report, config, scheme, spec.output_format)
    return 0


def _run_hilbert(spec: RunSpec) -> int:
    config, scheme = parse_config(spec.input_path)
    # regularity_bound checks the proximity inequalities first
    reg = regularity_bound(scheme)
    top = reg + 2 if spec.max_degree is None else spec.max_degree
    degrees = list(range(top + 1))
    context = make_context(config)
    values = [h0_any(scheme.to_class(d), context).h0 for d in degrees]
    if spec.output_format == "machine":
        _emit_machine({"degrees": degrees, "h": values})
        return 0
    print(_describe_config(config, scheme))
    print(_degree_table({"h": values}, degrees))
    return 0


def _run_zariski(spec: RunSpec) -> int:
    config, _ = parse_config(spec.input_path)
    cls = _parse_class(spec.target_class, config.r)
    dec = zariski_decompose(cls, make_context(config))
    if spec.output_format == "machine":
        if isinstance(dec, NotEffective):
            _emit_machine(
                {
                    "class": _class_json(cls),
                    "reason": dec.reason,
                    "status": "not_effective",
                    "trace": _trace_json(dec.trace),
                }
            )
        else:
            _emit_machine(
                {
                    "class": _class_json(cls),
                    "fixed": _class_json(dec.fixed),
                    "moving": _class_json(dec.moving),
                    "status": "decomposed",
                    "trace": _trace_json(dec.trace),
                }
            )
        return 0
    print(f"class: {cls}")
    if isinstance(dec, NotEffective):
        print("status: not effective")
        print(f"reason: {dec.reason}")
        trace = dec.trace
    else:
        print("status: decomposed")
        print(f"moving part: {dec.moving}")
        print(f"fixed part: {dec.fixed}")
        trace = dec.trace
    if trace:
        print("subtractions:")
        for n, step in enumerate(trace, start=1):
            print(f"  {n}. {step} pairing {step.pairing} rule {step.rule}")
    return 0


def _run_negcurves(spec: RunSpec) -> int:
    config, _ = parse_config(spec.input_path)
    curves = negative_curves(config)
    if spec.output_format == "machine":
        _emit_machine(
            {
                "curves": [
                    {
                        "class": _class_json(entry.cls),
                        "kind": entry.kind,
                        "label": entry.label,
                        "square": entry.cls.square(),
                    }
                    for entry in curves
                ]
            }
        )
        return 0
    print(f"{len(curves)} negative classes")
    for entry in curves:
        print(f"  {entry.label}: {entry.cls} kind={entry.kind} square={entry.cls.square()}")
    return 0


def _run_oracle_check(spec: RunSpec) -> int:
    config, scheme = parse_config(spec.input_path)
    report = oracle_report(scheme, seed=spec.seed, p=spec.prime, max_degree=spec.max_degree)
    if spec.output_format == "machine":
        _emit_machine(
            {
                "agree": report.all_agree,
                "degrees": list(report.degrees),
                "h_oracle": list(report.h_values),
                "h_pipeline": list(report.pipeline_h),
                "nu_oracle": list(report.nu_values),
                "nu_pipeline": list(report.pipeline_nu),
                "prime": report.prime,
                "seed": report.seed,
            }
        )
        return 0 if report.all_agree else 3
    print(_describe_config(config, scheme))
    print(f"prime {report.prime}, seed {report.seed}")
    print(
        _degree_table(
            {
                "h(lattice)": list(report.pipeline_h),
                "h(oracle)": list(report.h_values),
                "nu(lattice)": list(report.pipeline_nu),
                "nu(oracle)": list(report.nu_values),
            },
            list(report.degrees),
        )
    )
    if report.all_agree:
        print(f"agree at all degrees 0..{report.degrees[-1]}")
        return 0
    bad = sorted(
        {d for d, ok in zip(report.degrees, report.h_agreement) if not ok}
        | {d for d, ok in zip(report.degrees, report.nu_agreement) if not ok}
    )
    print(f"MISMATCH at degrees {', '.join(str(d) for d in bad)}")
    return 3


_COMMANDS = {
    "resolve": _run_resolve,
    "hilbert": _run_hilbert,
    "zariski": _run_zariski,
    "negcurves": _run_negcurves,
    "oracle-check": _run_oracle_check,
}


def run(spec: RunSpec) -> int:
    """Execute one command and map failures to the documented exit codes."""
    try:
        check_prime(spec.prime)
        if spec.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {spec.seed}", rule="seed-range")
        if spec.max_degree is not None and spec.max_degree < 0:
            raise ValidationError(
                f"max degree must be nonnegative, got {spec.max_degree}",
                rule="degree-range",
            )
        return _COMMANDS[spec.command](spec)
    except UnsupportedRuleError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error [{exc.rule}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fatpoints",
        description="Hilbert functions and graded resolutions of fat point ideals "
        "for points on a line, a conic, or a smooth cubic.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("config", help="path to a JSON configuration file")
    shared.add_argument(
        "--format",
        choices=("table", "machine"),
        default="table",
        help="output style (default: table)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("resolve", parents=[shared], help="compute the graded resolution")
    hil = sub.add_parser("hilbert", parents=[shared], help="tabulate the Hilbert function")
    hil.add_argument("--max-degree", type=int, help="top degree to tabulate")
    zar = sub.add_parser("zariski", parents=[shared], help="decompose a divisor class")
    zar.add_argument(
        "--class",
        dest="target_class",
        required=True,
        help="the class as d,m1,...,mr",
    )
    sub.add_parser("negcurves", parents=[shared], help="list negative curve classes")
    ora = sub.add_parser(
        "oracle-check", parents=[shared], help="compare against the finite-field oracle"
    )
    ora.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    ora.add_argument(
        "--prime", type=int, default=DEFAULT_PRIME, help=f"field size (default: {DEFAULT_PRIME})"
    )
    return parser


def main(argv: list[str] | None = None) -> None:
    args = _build_parser().parse_args(argv)
    spec = RunSpec(
        command=args.command,
        input_path=args.config,
        output_format=args.format,
        max_degree=getattr(args, "max_degree", None),
        seed=getattr(args, "seed", 0),
        prime=getattr(args, "prime", DEFAULT_PRIME),
        target_class=getattr(args, "target_class", None),
    )
    raise SystemExit(run(spec))


__all__ = ["RunSpec", "main", "parse_config", "run"]


if __name__ == "__main__":
    main()
