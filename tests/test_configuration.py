import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import fatpoints
from fatpoints.cli import RunSpec, run
from fatpoints.configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    LambdaUnderdeterminedError,
    Point,
    PointConfig,
    ValidationError,
    check_proximity,
    conjugate_partition,
    line_partition_data,
    validate,
)
from fatpoints.lattice import ClassVector
from fatpoints.negcurves import KIND_EXCEPTIONAL, negative_curves


def line_config(r, lines=None):
    return PointConfig(
        curve_kind="line",
        points=tuple(Point(i) for i in range(1, r + 1)),
        lines=lines if lines is not None else (tuple(range(1, r + 1)),),
    )


GOLDEN_CONIC = PointConfig(
    curve_kind="conic",
    points=(Point(1), Point(2), Point(3), Point(4), Point(5), Point(6, parent=5)),
    lines=((1, 2, 3, 4), (1, 5, 6)),
    conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
)


def test_golden_conic_validates():
    validate(GOLDEN_CONIC)
    assert GOLDEN_CONIC.r == 6
    assert GOLDEN_CONIC.parent_of(6) == 5
    assert GOLDEN_CONIC.ancestors_of(6) == (5,)
    assert GOLDEN_CONIC.depth_of(6) == 1
    assert GOLDEN_CONIC.depth_of(1) == 0


def test_point_ids_must_be_consecutive():
    cfg = PointConfig(curve_kind="line", points=(Point(1), Point(3)), lines=((1, 3),))
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "point-ids"


def test_parent_must_precede():
    cfg = PointConfig(
        curve_kind="line",
        points=(Point(1, parent=2), Point(2)),
        lines=((1, 2),),
    )
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "parent-precedes"


def test_line_needs_two_members():
    cfg = line_config(3, lines=((1,), (2, 3)))
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "line-two-members"


def test_single_point_line_allowed():
    cfg = line_config(1, lines=((1,),))
    validate(cfg)


def test_lines_share_at_most_one_point():
    cfg = line_config(4, lines=((1, 2, 3), (1, 2, 4)))
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "lines-share-one-point"


def test_line_with_near_point_needs_parent():
    cfg = PointConfig(
        curve_kind="line",
        points=(Point(1), Point(2), Point(3, parent=2)),
        lines=((1, 3),),
    )
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "line-contains-parent"


def test_conic_needs_shape():
    cfg = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, 6)),
        lines=(),
    )
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "conic-shape-required"


def test_smooth_conic_forbids_collinear_triples():
    cfg = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, 6)),
        lines=((1, 2, 3),),
        conic_shape=ConicShape("smooth"),
    )
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "smooth-conic-collinearity"


def test_two_lines_must_cover():
    cfg = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, 6)),
        lines=((1, 2), (3, 4)),
        conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
    )
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "two-lines-cover"


def test_cubic_takes_no_lines():
    cfg = PointConfig(
        curve_kind="cubic_uniform",
        points=tuple(Point(i) for i in range(1, 10)),
        lines=((1, 2),),
        lambda_spec=LambdaSpec("trivial"),
    )
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "cubic-declarations"


def test_flex_chain_shape_enforced():
    pts = (Point(1), Point(2, parent=1), Point(3, parent=1))
    cfg = PointConfig(curve_kind="cubic_flex", points=pts)
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "flex-chain"


def test_unknown_curve_kind():
    cfg = PointConfig(curve_kind="quartic", points=(Point(1),))
    with pytest.raises(ValidationError) as err:
        validate(cfg)
    assert err.value.rule == "curve-kind"


def test_children_of_golden_conic():
    assert GOLDEN_CONIC.children_of(5) == (6,)
    assert GOLDEN_CONIC.children_of(6) == ()
    assert GOLDEN_CONIC.children_of(1) == ()


def random_tree(rng, r, max_depth):
    """Points 1..r whose parents run at most max_depth levels deep."""
    depth = {}
    points = []
    for i in range(1, r + 1):
        open_parents = [j for j in range(1, i) if depth[j] < max_depth]
        parent = rng.choice(open_parents) if open_parents and rng.random() < 0.6 else None
        depth[i] = 0 if parent is None else depth[parent] + 1
        points.append(Point(i, parent))
    return tuple(points), max(depth.values())


def tree_config(kind, points):
    every = (tuple(range(1, len(points) + 1)),)
    if kind == "line":
        return PointConfig("line", points, lines=every)
    if kind == "smooth":
        return PointConfig("conic", points, conic_shape=ConicShape("smooth"))
    return PointConfig("conic", points, lines=every, conic_shape=ConicShape("double_line", 0))


def reference_children(points, i):
    """The ids whose parent is i, read from the points directly."""
    return [q.id for q in points if q.parent == i]


def reference_proximity_rule(points, mults):
    """The rule a scheme breaks: a negative multiplicity first, then a parent
    lighter than its children."""
    if any(v < 0 for v in mults):
        return "multiplicity-nonnegative"
    for pt in points:
        if mults[pt.id - 1] < sum(mults[j - 1] for j in reference_children(points, pt.id)):
            return "proximity-inequality"
    return None


def test_parent_tree_past_depth_one():
    """Over seeded trees up to three levels deep, check_proximity and the
    exceptional components read each point's children and nothing else, and
    validate refuses exactly the trees with two children of one point."""
    rng = random.Random(1517)
    depths = set()
    for _ in range(600):
        kind = rng.choice(["line", "smooth", "double_line"])
        points, depth = random_tree(rng, rng.randint(1, 8), 3)
        depths.add(depth)
        config = tree_config(kind, points)
        if any(len(reference_children(points, pt.id)) > 1 for pt in points):
            assert rule_of(validate, config) == "sibling-near-points"
        else:
            validate(config)
        mults = tuple(rng.randint(-1, 6) for _ in points)
        try:
            check_proximity(FatPointScheme(config, mults))
            rule = None
        except ValidationError as err:
            rule = err.rule
        assert rule == reference_proximity_rule(points, mults), (points, mults)

        if kind == "smooth" and depth >= 2:
            # no declared line can carry a chain two levels deep on a smooth conic
            with pytest.raises(ValidationError) as err:
                negative_curves(config)
            assert err.value.rule == "undeclared-incidence"
            continue
        got = [(c.cls, c.label) for c in negative_curves(config) if c.kind == KIND_EXCEPTIONAL]
        want = []
        for pt in points:
            children = reference_children(points, pt.id)
            m = [1 if j in children else 0 for j in range(1, len(points) + 1)]
            m[pt.id - 1] = -1
            label = f"E{pt.id}" + "".join(f" - E{j}" for j in children)
            want.append((ClassVector(0, tuple(m)), label))
        assert got == want, points
    assert depths == {0, 1, 2, 3}


def test_sibling_near_points_only_at_a_node():
    """A point has at most one near point, except the node of a two_lines
    conic, which may have one on each line."""

    def two_lines(parents, lines):
        points = tuple(Point(i, p) for i, p in enumerate(parents, 1))
        return PointConfig("conic", points, lines=lines, conic_shape=ConicShape("two_lines", 0, 1))

    validate(two_lines([None, 1, 1, None], ((1, 2, 4), (1, 3))))
    validate(two_lines([None, 1, 2, 1, 4], ((1, 2, 3), (1, 4, 5))))
    refused = [
        two_lines([None, 1, 1, None], ((1, 2, 3), (1, 4))),
        two_lines([None, None, 2, 2, None], ((1, 2, 3, 4), (1, 5))),
        two_lines([None, 1, 1, 1], ((1, 2, 4), (1, 3))),
        tree_config("smooth", (Point(1), Point(2, 1), Point(3, 1))),
        tree_config("double_line", (Point(1), Point(2), Point(3, 2), Point(4, 2))),
        PointConfig(
            "cubic_uniform", (Point(1), Point(2, 1), Point(3, 1)), lambda_spec=LambdaSpec("trivial")
        ),
    ]
    for config in refused:
        assert rule_of(validate, config) == "sibling-near-points", config


def test_check_proximity_accepts_golden():
    check_proximity(FatPointScheme(GOLDEN_CONIC, (3, 2, 2, 1, 3, 2)))


def test_check_proximity_rejects_heavier_child():
    scheme = FatPointScheme(GOLDEN_CONIC, (3, 2, 2, 1, 2, 3))
    with pytest.raises(ValidationError) as err:
        check_proximity(scheme)
    assert err.value.rule == "proximity-inequality"


def test_check_proximity_rejects_negative():
    scheme = FatPointScheme(GOLDEN_CONIC, (3, 2, 2, -1, 3, 2))
    with pytest.raises(ValidationError) as err:
        check_proximity(scheme)
    assert err.value.rule == "multiplicity-nonnegative"


def test_scheme_class():
    scheme = FatPointScheme(GOLDEN_CONIC, (3, 2, 2, 1, 3, 2))
    assert scheme.to_class(5) == ClassVector(5, (3, 2, 2, 1, 3, 2))


def test_multiplicity_count_must_match():
    with pytest.raises(ValueError):
        FatPointScheme(GOLDEN_CONIC, (3, 2, 2))


def test_lambda_order_contains_multiples():
    spec = LambdaSpec("order", order=3)
    assert spec.contains_multiple_of_k(0, 9)
    assert spec.contains_multiple_of_k(3, 9)
    assert not spec.contains_multiple_of_k(2, 9)


def test_lambda_trivial_contains_only_zero():
    spec = LambdaSpec("trivial")
    assert spec.contains(ClassVector(0, (0,) * 9))
    assert not spec.contains(ClassVector(3, (1,) * 9))
    assert spec.contains_multiple_of_k(0, 9)
    assert not spec.contains_multiple_of_k(1, 9)


def test_lambda_members_span():
    k9 = ClassVector(-3, (-1,) * 9)
    spec = LambdaSpec("members", members=(-2 * k9,))
    assert spec.contains(-4 * k9)
    assert not spec.contains(-3 * k9)
    assert spec.contains_multiple_of_k(4, 9)
    assert spec.contains_multiple_of_k(2, 9)
    assert not spec.contains_multiple_of_k(3, 9)


def test_lambda_order_underdetermined_off_axis():
    spec = LambdaSpec("order", order=2)
    with pytest.raises(LambdaUnderdeterminedError):
        spec.contains(ClassVector(1, (1, 0, 0, 0, 0, 0, 0, 0, 0)))


@dataclass(frozen=True)
class ReorderResult:
    """Outcome of canonical_reorder.

    permutation[k] is the old id now sitting at position k+1; dropped lists
    the old ids of stripped zero-multiplicity points.
    """

    scheme: FatPointScheme
    permutation: tuple[int, ...]
    dropped: tuple[int, ...]


def canonical_reorder(scheme: FatPointScheme) -> ReorderResult:
    """Stable descending reorder of the points by multiplicity.

    Zero-multiplicity points are stripped (their whole subtrees are zero once
    the proximity inequalities hold).  Proximity order survives because a
    parent's multiplicity is never smaller than its child's and the sort is
    stable, so ancestors keep preceding descendants.
    """
    check_proximity(scheme)
    config, mults = scheme.config, scheme.multiplicities
    keep = [pt.id for pt in config.points if mults[pt.id - 1] > 0]
    order = sorted(keep, key=lambda i: (-mults[i - 1], i))
    dropped = tuple(pt.id for pt in config.points if mults[pt.id - 1] == 0)
    new_id = {old: pos for pos, old in enumerate(order, start=1)}
    for old in order:
        par = config.parent_of(old)
        if par is not None and par not in new_id:
            # Unreachable once check_proximity has passed; kept as a guard.
            raise ValidationError(
                f"cannot drop p{par}: it is the parent of the kept point p{old}",
                rule="reorder-parent-kept",
            )
    points = tuple(
        Point(new_id[old], None if config.parent_of(old) is None else new_id[config.parent_of(old)])
        for old in order
    )
    # A parent always carries at least its child's multiplicity, so the stable
    # sort cannot place a child before its parent; assert all the same.
    for pt in points:
        if pt.parent is not None and pt.parent >= pt.id:
            raise ValidationError(
                f"reorder broke proximity order at new id {pt.id}", rule="reorder-order"
            )
    survivors = [
        (idx, line)
        for idx, line in enumerate(
            tuple(sorted(new_id[i] for i in line if i in new_id)) for line in config.lines
        )
        if len(line) >= 2 or len(order) == 1
    ]
    lines = tuple(line for _, line in survivors)
    # Line indices shift when empty lines vanish, so remap the conic shape.
    shape = config.conic_shape
    if shape is not None and shape.kind != "smooth":
        remap = {old_idx: new_idx for new_idx, (old_idx, _) in enumerate(survivors)}
        shape = ConicShape(
            shape.kind,
            remap.get(shape.line_a) if shape.line_a is not None else None,
            remap.get(shape.line_b) if shape.line_b is not None else None,
        )
    new_config = PointConfig(
        curve_kind=config.curve_kind,
        points=points,
        lines=lines,
        conic_shape=shape,
        lambda_spec=config.lambda_spec,
    )
    new_mults = tuple(mults[old - 1] for old in order)
    return ReorderResult(FatPointScheme(new_config, new_mults), tuple(order), dropped)


def test_canonical_reorder_sorts_proper_points():
    cfg = line_config(4)
    scheme = FatPointScheme(cfg, (1, 3, 2, 2))
    result = canonical_reorder(scheme)
    assert result.scheme.multiplicities == (3, 2, 2, 1)
    assert result.permutation == (2, 3, 4, 1)
    assert result.dropped == ()


def test_canonical_reorder_drops_zeros():
    cfg = line_config(4)
    scheme = FatPointScheme(cfg, (1, 0, 2, 0))
    result = canonical_reorder(scheme)
    assert result.scheme.multiplicities == (2, 1)
    assert result.dropped == (2, 4)


def test_conjugate_partition():
    assert conjugate_partition((3, 2, 1)) == (3, 2, 1)
    assert conjugate_partition((4, 1)) == (2, 1, 1, 1)
    assert conjugate_partition(()) == ()
    rng = random.Random(404)
    for _ in range(500):
        parts = sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 8))), reverse=True)
        mu = tuple(parts)
        assert conjugate_partition(conjugate_partition(mu)) == mu
        assert sum(conjugate_partition(mu)) == sum(mu)


def test_line_partition_data_golden():
    data = line_partition_data((3, 2, 1))
    assert data.mu == (3, 2, 1)
    assert data.a == (6, 4, 3)


def test_line_partition_data_rejects_unsorted():
    with pytest.raises(ValueError):
        line_partition_data((1, 2))
    with pytest.raises(ValueError):
        line_partition_data((2, 0))


def test_scheme_multiplicities_are_ints():
    with pytest.raises(TypeError):
        FatPointScheme(line_config(1), (2.7,))
    scheme = FatPointScheme(line_config(2), (np.int64(3), 2))
    assert scheme.multiplicities == (3, 2)
    assert all(type(v) is int for v in scheme.multiplicities)


def conic_config(r, shape, lines=()):
    points = tuple(Point(i) for i in range(1, r + 1))
    return PointConfig("conic", points, lines=lines, conic_shape=shape)


def uniform_config(lambda_spec):
    return PointConfig("cubic_uniform", (Point(1),), lambda_spec=lambda_spec)


def rule_of(call, *args):
    with pytest.raises(ValidationError) as err:
        call(*args)
    return err.value.rule


def cli_rule(tmp_path, document, command="resolve", **spec):
    """The rule in the CLI's ``error [rule]`` line for one run on document."""
    path = tmp_path / "config.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert run(RunSpec(command, str(path), **spec)) == 1
    return re.match(r"error \[([a-z-]+)\]", err.getvalue()).group(1)


ONE_POINT = {"curve_kind": "line", "points": [{"id": 1}], "lines": [[1]], "multiplicities": [1]}
NEAR_PAIR = PointConfig("line", (Point(1), Point(2, parent=1)), lines=((1, 2),))
SMOOTH_CHAIN = PointConfig(
    "conic", (Point(1), Point(2, parent=1), Point(3, parent=2)), conic_shape=ConicShape("smooth")
)
VALIDATE_CASES = {
    "curve-kind": PointConfig("quartic", (Point(1),)),
    "point-ids": PointConfig("line", (Point(1), Point(3)), lines=((1, 3),)),
    "parent-precedes": PointConfig("line", (Point(1, parent=2), Point(2)), lines=((1, 2),)),
    "line-distinct-members": line_config(2, lines=((1, 1),)),
    "line-member-range": line_config(2, lines=((1, 3),)),
    "line-two-members": line_config(3, lines=((1,), (2, 3))),
    "line-contains-parent": PointConfig(
        "line", (Point(1), Point(2), Point(3, parent=2)), lines=((1, 3),)
    ),
    "lines-share-one-point": line_config(4, lines=((1, 2, 3), (1, 2, 4))),
    "lambda-spec-scope": PointConfig(
        "line", (Point(1),), lines=((1,),), lambda_spec=LambdaSpec("trivial")
    ),
    "conic-shape-scope": PointConfig(
        "line", (Point(1),), lines=((1,),), conic_shape=ConicShape("smooth")
    ),
    "line-declares-all": line_config(3, lines=((1, 2),)),
    "conic-shape-required": conic_config(1, None),
    "conic-shape-kind": conic_config(1, ConicShape("ellipse")),
    "conic-shape-smooth": conic_config(1, ConicShape("smooth", line_a=0)),
    "smooth-conic-collinearity": conic_config(3, ConicShape("smooth"), lines=((1, 2, 3),)),
    "two-lines-components": conic_config(2, ConicShape("two_lines", line_a=0), lines=((1, 2),)),
    "two-lines-distinct": conic_config(2, ConicShape("two_lines", 0, 0), lines=((1, 2),)),
    "two-lines-cover": conic_config(4, ConicShape("two_lines", 0, 1), lines=((1, 2), (1, 3))),
    "double-line-component": conic_config(1, ConicShape("double_line")),
    "double-line-single": conic_config(2, ConicShape("double_line", 0, 0), lines=((1, 2),)),
    "double-line-cover": conic_config(3, ConicShape("double_line", 0), lines=((1, 2),)),
    "cubic-declarations": PointConfig("cubic_flex", (Point(1), Point(2)), lines=((1, 2),)),
    "lambda-spec-required": uniform_config(None),
    "lambda-kind": uniform_config(LambdaSpec("weird")),
    "lambda-order": uniform_config(LambdaSpec("order")),
    "lambda-member-rank": uniform_config(LambdaSpec("members", members=(ClassVector(3, (1, 1)),))),
    "flex-chain": PointConfig("cubic_flex", (Point(1), Point(2))),
    "sibling-near-points": PointConfig(
        "line", (Point(1), Point(2, parent=1), Point(3, parent=1)), lines=((1, 2, 3),)
    ),
}
# every rule, with a minimal violating input reached through the layer that
# checks it; each entry returns the rule it reached
RULE_CASES = {
    **{
        rule: (lambda _, config=config: rule_of(validate, config))
        for rule, config in VALIDATE_CASES.items()
    },
    "multiplicity-count": lambda _: rule_of(FatPointScheme, line_config(2), (1,)),
    "multiplicity-nonnegative": lambda _: rule_of(
        check_proximity, FatPointScheme(NEAR_PAIR, (-1, 0))
    ),
    "proximity-inequality": lambda _: rule_of(check_proximity, FatPointScheme(NEAR_PAIR, (1, 2))),
    "undeclared-incidence": lambda _: rule_of(negative_curves, SMOOTH_CHAIN),
    "config-parse": lambda tmp: cli_rule(tmp, "{oops"),
    "config-schema": lambda tmp: cli_rule(tmp, {"curve_kind": "line"}),
    "class-format": lambda tmp: cli_rule(tmp, ONE_POINT, "zariski", target_class="1"),
    "seed-range": lambda tmp: cli_rule(tmp, ONE_POINT, seed=-1),
    "degree-range": lambda tmp: cli_rule(tmp, ONE_POINT, "hilbert", max_degree=-1),
    "prime-range": lambda tmp: cli_rule(tmp, ONE_POINT, "oracle-check", prime=4),
}


@pytest.mark.parametrize("rule", sorted(RULE_CASES))
def test_every_rule_is_reached(tmp_path, rule):
    assert RULE_CASES[rule](tmp_path) == rule


def test_rule_table_names_every_rule_in_the_source():
    source = Path(fatpoints.__file__).parent
    literals = {
        rule
        for path in source.glob("*.py")
        for rule in re.findall(r'rule="([^"]+)"', path.read_text())
    }
    assert set(RULE_CASES) == literals
