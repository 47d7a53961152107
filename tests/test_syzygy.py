import random

import pytest

from fatpoints.cohomology import chi, h0_any, make_context
from fatpoints.configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    Point,
    PointConfig,
    UnsupportedRuleError,
)
from fatpoints.lattice import ClassVector, e0_class, nef_basis_class, zero_class
from fatpoints.syzygy import s_dim, s_of_nef

GOLDEN_CONIC = PointConfig(
    curve_kind="conic",
    points=(Point(1), Point(2), Point(3), Point(4), Point(5), Point(6, parent=5)),
    lines=((1, 2, 3, 4), (1, 5, 6)),
    conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
)
GOLDEN_SCHEME = FatPointScheme(GOLDEN_CONIC, (3, 2, 2, 1, 3, 2))


def uniform_context(r, spec=None):
    cfg = PointConfig(
        curve_kind="cubic_uniform",
        points=tuple(Point(i) for i in range(1, r + 1)),
        lambda_spec=spec if spec is not None else LambdaSpec("trivial"),
    )
    return make_context(cfg)


def flex_context(r):
    pts = [Point(1)] + [Point(i, parent=i - 1) for i in range(2, r + 1)]
    return make_context(PointConfig(curve_kind="cubic_flex", points=tuple(pts)))


def test_golden_generator_counts():
    ctx = make_context(GOLDEN_CONIC)
    # nu_{d+1} = s_dim(d): generators appear at 5 (3 of them), 6, and 8 (2)
    expected = {4: 3, 5: 1, 6: 0, 7: 2, 8: 0, 9: 0}
    for d, want in expected.items():
        ans = s_dim(GOLDEN_SCHEME, d, ctx)
        assert ans.value == want, (d, ans)


def test_golden_rule_labels():
    ctx = make_context(GOLDEN_CONIC)
    assert s_dim(GOLDEN_SCHEME, 4, ctx).rule == "initial-generators"
    assert s_dim(GOLDEN_SCHEME, 7, ctx).rule == "rational-normal-restriction+fixed-part"
    assert s_dim(GOLDEN_SCHEME, 13, ctx).rule == "beyond-regularity"


def test_line_and_conic_nef_classes_generate_nothing():
    ctx = make_context(GOLDEN_CONIC)
    ans = s_of_nef(ClassVector(2, (0, 1, 1, 0, 1, 0)), ctx)
    assert ans.value == 0
    assert ans.rule == "rational-normal-restriction"


def test_uniform_rules():
    ctx12 = uniform_context(12)
    ctx10 = uniform_context(10)
    assert s_of_nef(ClassVector(9, (2,) * 12), ctx12).value == 0
    assert s_of_nef(ClassVector(7, (2,) * 10), ctx10).value == 1
    assert s_of_nef(ClassVector(10, (3,) * 10), ctx10).value == 1
    assert s_of_nef(ClassVector(4, (1,) * 12), ctx12).value == 0
    assert s_of_nef(zero_class(10), ctx10).value == 0
    # the uniform rules cover equal multiplicities only, as in zariski
    with pytest.raises(UnsupportedRuleError):
        s_of_nef(ClassVector(7, (2,) * 9 + (1,)), ctx10)


def test_uniform_kernel_multiples():
    for a, b, want in ((1, 1, 0), (2, 1, 3), (2, 2, 6), (3, 1, 6)):
        ctx = uniform_context(9, LambdaSpec("order", order=a))
        h = ClassVector(3 * a * b, (a * b,) * 9)
        ans = s_of_nef(h, ctx)
        assert ans.value == want
        assert ans.rule == "uniform-kernel-multiple"


def test_flex_rules():
    ctx = flex_context(10)
    h8 = nef_basis_class(8, 10)
    h9 = nef_basis_class(9, 10)
    assert s_of_nef(h8, ctx).value == 1
    assert s_of_nef(h8, ctx).rule == "flex-cubic-pencil"
    assert s_of_nef(2 * h9, ctx).value == 0
    assert s_of_nef(nef_basis_class(1, 10), ctx).value == 0
    assert s_of_nef(2 * h8, ctx).value == 1


def test_flex_composite_rejected_by_nef_rule():
    ctx = flex_context(10)
    composite = nef_basis_class(8, 10) + nef_basis_class(9, 10)
    with pytest.raises(ValueError):
        s_of_nef(composite, ctx)


def test_flex_composite_through_s_dim():
    """Composite pencil classes go through the dedicated counting rule."""
    ctx = flex_context(10)
    pts = ctx.config.points
    scheme = FatPointScheme(ctx.config, (2,) * 3 + (1,) * 7)
    assert len(pts) == 10
    ans = s_dim(scheme, 5, ctx)
    assert ans.value >= 0


def test_moving_part_plus_a_line_is_regular():
    """s_dim takes h0(moving + e0) as chi(moving + e0); decomposing that class
    and applying its case rule gives the same count in every kind."""
    smooth = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, 8)),
        conic_shape=ConicShape("smooth"),
    )
    contexts = [
        make_context(GOLDEN_CONIC),
        make_context(smooth),
        flex_context(9),
        flex_context(11),
        uniform_context(9, LambdaSpec("order", order=2)),
        uniform_context(10),
        uniform_context(12),
    ]
    rng = random.Random(412)
    checked = 0
    for _ in range(500):
        ctx = rng.choice(contexts)
        r = ctx.config.r
        if ctx.config.curve_kind == "cubic_uniform":
            m = rng.randint(0, 4)
            f = ClassVector(rng.randint(0, 16), (m,) * r)
        else:
            f = ClassVector(rng.randint(0, 16), tuple(rng.randint(0, 4) for _ in range(r)))
        moving = h0_any(f, ctx).moving_part
        up = moving + e0_class(r)
        assert h0_any(up, ctx).h0 == chi(up)
        checked += not moving.is_zero()
    assert checked > 200


def test_s_dim_negative_degree_counts_first_sections():
    ctx = make_context(GOLDEN_CONIC)
    ans = s_dim(GOLDEN_SCHEME, -1, ctx)
    assert ans.value == 0  # degree 0 has no sections for a nonempty scheme
    assert ans.rule == "initial-generators"
