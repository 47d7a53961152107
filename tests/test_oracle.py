import random

import pytest

from fatpoints.configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    Point,
    PointConfig,
    UnsupportedRuleError,
)
from fatpoints.oracle import (
    DEFAULT_PRIME,
    hilbert_oracle,
    nu_oracle,
    oracle_report,
    sample_coordinates,
)
from fatpoints.resolution import binom2

GOLDEN_CONIC = PointConfig(
    curve_kind="conic",
    points=(Point(1), Point(2), Point(3), Point(4), Point(5), Point(6, parent=5)),
    lines=((1, 2, 3, 4), (1, 5, 6)),
    conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
)
GOLDEN_SCHEME = FatPointScheme(GOLDEN_CONIC, (3, 2, 2, 1, 3, 2))

LINE_321 = FatPointScheme(
    PointConfig(
        curve_kind="line",
        points=(Point(1), Point(2), Point(3)),
        lines=((1, 2, 3),),
    ),
    (3, 2, 1),
)


def test_sample_respects_declared_lines():
    coords = sample_coordinates(GOLDEN_CONIC, seed=3)
    p = coords.prime
    pts = coords.points
    # line (1,2,3,4) is y = 0 in the sampler's chart
    for i in (1, 2, 3, 4):
        assert pts[i - 1].y == 0
    # line (1,5,6): p1 and p5 share x = 0
    assert pts[0].x == 0 and pts[4].x == 0
    assert pts[5].parent == 5


def test_sample_all_coordinates_distinct():
    coords = sample_coordinates(GOLDEN_CONIC, seed=9)
    proper = [(pt.x, pt.y) for pt in coords.points if pt.parent is None]
    assert len(set(proper)) == len(proper)


def test_smooth_conic_points_on_parabola():
    cfg = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, 6)),
        conic_shape=ConicShape("smooth"),
    )
    coords = sample_coordinates(cfg, seed=1)
    p = coords.prime
    for pt in coords.points:
        assert pt.y % p == (pt.x * pt.x) % p


def test_simple_points_hilbert():
    """r simple general points impose exactly r conditions in high degree."""
    rng = random.Random(412)
    cfg = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, 6)),
        conic_shape=ConicShape("smooth"),
    )
    for seed in range(5):
        coords = sample_coordinates(cfg, seed=seed)
        for d in (3, 4, 5):
            assert hilbert_oracle(coords, (1,) * 5, d) == binom2(d + 2) - 5


def test_double_point_conditions():
    cfg = PointConfig(curve_kind="line", points=(Point(1),), lines=((1,),))
    coords = sample_coordinates(cfg, seed=0)
    # a double point imposes three conditions from degree 2 on
    assert hilbert_oracle(coords, (2,), 1) == 0
    assert hilbert_oracle(coords, (2,), 2) == 6 - 3
    assert hilbert_oracle(coords, (2,), 3) == 10 - 3


def test_near_point_tangency_condition():
    """A near point forces the curve tangent along its parent's direction:
    through degree 1 only the carrier line passes, not a generic line."""
    cfg = PointConfig(
        curve_kind="line",
        points=(Point(1), Point(2, parent=1)),
        lines=((1, 2),),
    )
    coords = sample_coordinates(cfg, seed=0)
    # lines through both points: just the carrier, so h = 3 - 2 = 1
    assert hilbert_oracle(coords, (1, 1), 1) == 1
    # conics containing the length-2 jet: 6 - 2 = 4
    assert hilbert_oracle(coords, (1, 1), 2) == 4


def test_line321_oracle_agreement():
    rep = oracle_report(LINE_321, seed=0)
    assert rep.degrees == tuple(range(7))
    assert rep.all_agree
    assert rep.h_values == rep.pipeline_h
    assert rep.nu_values == rep.pipeline_nu


def test_line321_nu_convention():
    coords = sample_coordinates(LINE_321.config, seed=0)
    mults = LINE_321.multiplicities
    # generators live in degrees 3 (two of them) and 4; none in degree 5
    assert nu_oracle(coords, mults, 2) == 2
    assert nu_oracle(coords, mults, 3) == 1
    assert nu_oracle(coords, mults, 4) == 0
    assert nu_oracle(coords, mults, 5) == 1


def test_golden_conic_oracle_agreement():
    rep = oracle_report(GOLDEN_SCHEME, seed=0, max_degree=14)
    assert rep.all_agree


def test_oracle_seed_variation():
    for seed in range(1, 4):
        rep = oracle_report(GOLDEN_SCHEME, seed=seed, max_degree=9)
        assert rep.all_agree, seed


def test_uniform_cubic_oracle():
    # ten points reach the boundary case: degree 3m+1 meets a zero moving part
    for r, m, top in ((12, 1, 7), (10, 1, 7), (10, 2, 8)):
        cfg = PointConfig(
            curve_kind="cubic_uniform",
            points=tuple(Point(i) for i in range(1, r + 1)),
            lambda_spec=LambdaSpec("trivial"),
        )
        rep = oracle_report(FatPointScheme(cfg, (m,) * r), seed=0, max_degree=top)
        assert rep.all_agree, (r, m)


def test_cubic_prime_must_fit_square_roots():
    cfg = PointConfig(
        curve_kind="cubic_uniform",
        points=tuple(Point(i) for i in range(1, 10)),
        lambda_spec=LambdaSpec("trivial"),
    )
    scheme = FatPointScheme(cfg, (1,) * 9)
    with pytest.raises(ValueError):
        oracle_report(scheme, seed=0, p=13, max_degree=3)


def test_flex_sampling_unsupported():
    pts = [Point(1)] + [Point(i, parent=i - 1) for i in range(2, 11)]
    cfg = PointConfig(curve_kind="cubic_flex", points=tuple(pts))
    with pytest.raises(UnsupportedRuleError):
        sample_coordinates(cfg, seed=0)


def test_deep_chain_sampling_unsupported():
    cfg = PointConfig(
        curve_kind="conic",
        points=(Point(1), Point(2, parent=1), Point(3, parent=2)),
        conic_shape=ConicShape("smooth"),
    )
    with pytest.raises(UnsupportedRuleError):
        sample_coordinates(cfg, seed=0)


def test_near_point_over_node_follows_its_component():
    cfg = PointConfig(
        curve_kind="conic",
        points=(Point(1), Point(2), Point(3), Point(4, parent=1)),
        lines=((1, 2, 4), (1, 3)),
        conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
    )
    coords = sample_coordinates(cfg, seed=0)
    p4 = coords.points[3]
    assert p4.parent == 1
    assert p4.tangent == (1, 0)  # along the first component
    scheme = FatPointScheme(cfg, (2, 1, 1, 1))
    rep = oracle_report(scheme, seed=0)
    assert rep.all_agree


def test_prime_bound_enforced():
    with pytest.raises(ValueError):
        oracle_report(LINE_321, seed=0, p=11)
