import random

import pytest

from fatpoints.cohomology import (
    chi,
    h0_any,
    h0_flex,
    h0_with_decomposition,
    make_context,
    regularity_bound,
)
from fatpoints.configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    Point,
    PointConfig,
    UnsupportedRuleError,
)
from fatpoints.lattice import (
    ClassVector,
    canonical_class,
    intersect,
    nef_basis_class,
    zero_class,
)
from fatpoints.zariski import NotEffective

GOLDEN_CONIC = PointConfig(
    curve_kind="conic",
    points=(Point(1), Point(2), Point(3), Point(4), Point(5), Point(6, parent=5)),
    lines=((1, 2, 3, 4), (1, 5, 6)),
    conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
)
GOLDEN_SCHEME = FatPointScheme(GOLDEN_CONIC, (3, 2, 2, 1, 3, 2))


def uniform_h0(t, m, r, spec=LambdaSpec("trivial")):
    """Sections of t*e0 + m*(-K) for r general points of a smooth cubic."""
    cfg = PointConfig(
        curve_kind="cubic_uniform",
        points=tuple(Point(i) for i in range(1, r + 1)),
        lambda_spec=spec,
    )
    return h0_with_decomposition(ClassVector(t + 3 * m, (m,) * r), make_context(cfg))[0]


def flex_context(r):
    pts = [Point(1)] + [Point(i, parent=i - 1) for i in range(2, r + 1)]
    return make_context(PointConfig(curve_kind="cubic_flex", points=tuple(pts)))


def test_chi_values():
    assert chi(zero_class(3)) == 1
    assert chi(ClassVector(2, (0, 1, 1, 0, 1, 0))) == 3
    assert chi(ClassVector(5, (1,) * 12)) == 9
    assert chi(ClassVector(4, (0,) * 5)) == 15


def test_chi_matches_riemann_roch_reference():
    rng = random.Random(20)
    for _ in range(500):
        r = rng.randint(1, 20)
        f = ClassVector(rng.randint(-50, 50), tuple(rng.randint(-50, 50) for _ in range(r)))
        numerator = f.square() - intersect(canonical_class(r), f)
        assert numerator % 2 == 0
        assert chi(f) == numerator // 2 + 1


def test_regularity_bound_golden():
    assert regularity_bound(GOLDEN_SCHEME) == 12


def test_golden_section_counts():
    ctx = make_context(GOLDEN_CONIC)
    expected = {4: 0, 5: 3, 6: 8, 7: 14, 8: 23}
    for d, want in expected.items():
        ans = h0_any(GOLDEN_SCHEME.to_class(d), ctx)
        assert ans.h0 == want, (d, ans)


def test_golden_moving_parts():
    ctx = make_context(GOLDEN_CONIC)
    moving = {
        5: ClassVector(2, (0, 1, 1, 0, 1, 0)),
        6: ClassVector(4, (1, 1, 1, 0, 2, 1)),
        7: ClassVector(5, (1, 1, 1, 0, 2, 1)),
    }
    for d, want in moving.items():
        ans = h0_any(GOLDEN_SCHEME.to_class(d), ctx)
        assert ans.moving_part == want


def test_not_effective_answer_shape():
    ctx = make_context(GOLDEN_CONIC)
    ans = h0_any(ClassVector(0, (1, 0, 0, 0, 0, 0)), ctx)
    assert ans.h0 == 0
    assert ans.h1 is None
    assert ans.moving_part is not None and ans.moving_part.is_zero()
    assert any("not effective" in note for note in ans.notes)


def test_h0_h1_difference_is_chi():
    """h0 - h1 must equal the Euler characteristic of the queried class."""
    rng = random.Random(407)
    ctx = make_context(GOLDEN_CONIC)
    checked = 0
    for _ in range(500):
        f = ClassVector(
            rng.randint(0, 14),
            tuple(rng.randint(0, 6) for _ in range(6)),
        )
        ans, dec = h0_with_decomposition(f, ctx)
        if isinstance(dec, NotEffective):
            assert ans.h0 == 0 and ans.h1 is None
            continue
        checked += 1
        assert ans.h0 - ans.h1 == chi(f)
        assert ans.h0 >= 0 and ans.h1 >= 0
    assert checked > 100


def test_adding_a_line_never_drops_sections():
    rng = random.Random(408)
    ctx = make_context(GOLDEN_CONIC)
    e0 = ClassVector(1, (0,) * 6)
    for _ in range(500):
        f = ClassVector(
            rng.randint(0, 10),
            tuple(rng.randint(0, 5) for _ in range(6)),
        )
        assert h0_any(f + e0, ctx).h0 >= h0_any(f, ctx).h0


def test_uniform_examples():
    triv = LambdaSpec("trivial")
    assert uniform_h0(0, 2, 12, triv).h0 == 1
    ans = uniform_h0(2, 2, 12, triv)
    assert ans.h0 == 9
    assert ans.moving_part == ClassVector(5, (1,) * 12)
    assert uniform_h0(0, 3, 9, LambdaSpec("order", order=2)).h0 == 2


def test_uniform_zero_multiplicity():
    ans = uniform_h0(4, 0, 9)
    assert ans.h0 == chi(ClassVector(4, (0,) * 9)) == 15
    assert ans.h1 == 0


def test_uniform_needs_nine_points():
    with pytest.raises(UnsupportedRuleError):
        uniform_h0(1, 1, 8, LambdaSpec("trivial"))


def test_uniform_not_effective():
    ans = uniform_h0(-1, 2, 9, LambdaSpec("trivial"))
    assert ans.h0 == 0
    assert ans.h1 is None


def test_flex_pencil_values():
    h8 = nef_basis_class(8, 10)
    h9 = nef_basis_class(9, 10)
    assert h0_flex(h8).h0 == 2
    for s in (1, 2, 3):
        assert h0_flex(s * h9).h0 == 1 + s
    assert h0_flex(zero_class(10)).h0 == 1


def test_flex_rejects_non_nef():
    with pytest.raises(ValueError):
        h0_flex(ClassVector(3, (1,) * 8 + (0, 1)))


def test_flex_pipeline_invariant():
    rng = random.Random(409)
    ctx = flex_context(10)
    checked = 0
    for _ in range(400):
        # descending chains keep the proximity inequalities satisfiable
        m = sorted((rng.randint(0, 3) for _ in range(10)), reverse=True)
        d = rng.randint(0, 11)
        f = ClassVector(d, tuple(m))
        ans, dec = h0_with_decomposition(f, ctx)
        if isinstance(dec, NotEffective):
            continue
        checked += 1
        assert ans.h0 - ans.h1 == chi(f)
        assert ans.h0 >= 0 and ans.h1 >= 0
    assert checked > 50


def test_uniform_pipeline_full_answer():
    cfg = PointConfig(
        curve_kind="cubic_uniform",
        points=tuple(Point(i) for i in range(1, 13)),
        lambda_spec=LambdaSpec("trivial"),
    )
    ctx = make_context(cfg)
    scheme = FatPointScheme(cfg, (2,) * 12)
    ans = h0_any(scheme.to_class(8), ctx)
    assert ans.h0 == 9
    assert ans.moving_part == ClassVector(5, (1,) * 12)
    assert ans.h0 - ans.h1 == chi(scheme.to_class(8))
