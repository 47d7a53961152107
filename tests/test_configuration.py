import random
from dataclasses import dataclass

import numpy as np
import pytest

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
    proximity_matrix,
    validate,
)
from fatpoints.lattice import ClassVector


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


def is_proximate(prox, j, i):
    """Whether p_j is proximate to p_i in the proximity matrix ``prox``."""
    return prox.entries[j - 1][i - 1]


def test_proximity_matrix_golden_conic():
    prox = proximity_matrix(GOLDEN_CONIC)
    assert is_proximate(prox, 6, 5)
    assert not is_proximate(prox, 5, 6)
    assert not is_proximate(prox, 2, 1)
    assert prox.points_proximate_to(5) == (6,)
    assert prox.points_proximate_to(6) == ()


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
    extras = tuple(
        (new_id[j], new_id[i])
        for j, i in config.extra_proximities
        if j in new_id and i in new_id
    )
    new_config = PointConfig(
        curve_kind=config.curve_kind,
        points=points,
        lines=lines,
        extra_proximities=extras,
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
