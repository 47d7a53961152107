import pytest

from fatpoints.configuration import (
    ConicShape,
    Point,
    PointConfig,
    UnsupportedRuleError,
    ValidationError,
)
from fatpoints.lattice import ClassVector, canonical_class
from fatpoints.negcurves import (
    enumerate_negative_curves,
    flex_candidate_fixed_classes,
)

GOLDEN_CONIC = PointConfig(
    curve_kind="conic",
    points=(Point(1), Point(2), Point(3), Point(4), Point(5), Point(6, parent=5)),
    lines=((1, 2, 3, 4), (1, 5, 6)),
    conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
)


def test_golden_conic_negative_classes():
    curves = enumerate_negative_curves(GOLDEN_CONIC)
    expected = {
        "E1": ClassVector(0, (-1, 0, 0, 0, 0, 0)),
        "E2": ClassVector(0, (0, -1, 0, 0, 0, 0)),
        "E3": ClassVector(0, (0, 0, -1, 0, 0, 0)),
        "E4": ClassVector(0, (0, 0, 0, -1, 0, 0)),
        "E5 - E6": ClassVector(0, (0, 0, 0, 0, -1, 1)),
        "E6": ClassVector(0, (0, 0, 0, 0, 0, -1)),
        "L(1,2,3,4)": ClassVector(1, (1, 1, 1, 1, 0, 0)),
        "L(1,5,6)": ClassVector(1, (1, 0, 0, 0, 1, 1)),
        "L(2,5)": ClassVector(1, (0, 1, 0, 0, 1, 0)),
        "L(3,5)": ClassVector(1, (0, 0, 1, 0, 1, 0)),
        "L(4,5)": ClassVector(1, (0, 0, 0, 1, 1, 0)),
    }
    got = {entry.label: entry.cls for entry in curves}
    assert got == expected
    assert len(curves) == 11


def test_all_entries_have_negative_square():
    for entry in enumerate_negative_curves(GOLDEN_CONIC):
        assert entry.cls.square() < 0


def test_near_pair_without_relation_spans_no_line():
    # p6 sits over p5; pairs (2,6), (3,6), (4,6) give no line
    labels = {entry.label for entry in enumerate_negative_curves(GOLDEN_CONIC)}
    assert "L(2,6)" not in labels
    assert "L(4,6)" not in labels


def test_first_order_child_pair_spans_tangent_line():
    cfg = PointConfig(
        curve_kind="conic",
        points=(Point(1), Point(2), Point(3), Point(4, parent=3)),
        conic_shape=ConicShape("smooth"),
    )
    labels = {entry.label for entry in enumerate_negative_curves(cfg)}
    # p4 rides over p3, so the pair spans the tangent line at p3; the other
    # near pairs have no line through them
    assert "L(3,4)" in labels
    assert "L(1,2)" in labels
    assert "L(1,4)" not in labels
    assert "L(2,4)" not in labels


def test_covered_deep_chain_is_fine():
    cfg = PointConfig(
        curve_kind="conic",
        points=(Point(1), Point(2), Point(3, parent=2), Point(4, parent=3)),
        lines=((1, 2), (2, 3, 4)),
        conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
    )
    labels = {entry.label for entry in enumerate_negative_curves(cfg)}
    assert "L(2,3,4)" in labels


def test_undeclared_chain_incidence_is_an_error():
    cfg_bad = PointConfig(
        curve_kind="conic",
        points=(Point(1), Point(2, parent=1), Point(3, parent=2)),
        conic_shape=ConicShape("smooth"),
    )
    with pytest.raises(ValidationError) as err:
        enumerate_negative_curves(cfg_bad)
    assert err.value.rule == "undeclared-incidence"


def test_smooth_conic_class_appears_from_five_points():
    for r, want in ((4, False), (5, True), (6, True)):
        cfg = PointConfig(
            curve_kind="conic",
            points=tuple(Point(i) for i in range(1, r + 1)),
            conic_shape=ConicShape("smooth"),
        )
        labels = {entry.label for entry in enumerate_negative_curves(cfg)}
        assert ("Q" in labels) == want
        if want:
            q = next(e for e in enumerate_negative_curves(cfg) if e.label == "Q")
            assert q.cls == ClassVector(2, (1,) * r)


def test_single_point_has_one_class():
    cfg = PointConfig(curve_kind="line", points=(Point(1),), lines=((1,),))
    curves = enumerate_negative_curves(cfg)
    assert [entry.label for entry in curves] == ["E1"]


def test_cubic_kind_is_not_enumerable():
    cfg = PointConfig(
        curve_kind="cubic_flex",
        points=(Point(1), Point(2, parent=1), Point(3, parent=2)),
    )
    with pytest.raises(UnsupportedRuleError):
        enumerate_negative_curves(cfg)


def test_flex_candidates_small():
    curves = flex_candidate_fixed_classes(3)
    labels = [entry.label for entry in curves]
    assert labels == ["L(1,2,3)", "E1 - E2", "E2 - E3", "E3"]
    tangent = next(e.cls for e in curves if e.label == "L(1,2,3)")
    assert tangent == ClassVector(1, (1, 1, 1))


def test_flex_candidates_include_cubic_past_nine():
    for r in (9, 10, 12):
        curves = flex_candidate_fixed_classes(r)
        labels = [entry.label for entry in curves]
        assert ("D" in labels) == (r > 9)
        assert len(curves) == (r + 2 if r > 9 else r + 1)
        if r > 9:
            # its copies are taken before any other candidate's
            assert labels[0] == "D"
            d = curves.entries[0].cls
            assert d == -canonical_class(r)
            assert d.square() == 9 - r


def test_flex_needs_three_points():
    with pytest.raises(UnsupportedRuleError):
        flex_candidate_fixed_classes(2)
