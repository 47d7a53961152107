import itertools
import random
import sys
from pathlib import Path

import pytest

from fatpoints import zariski
from fatpoints.cli import parse_config
from fatpoints.cohomology import h0_any, make_context
from fatpoints.configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    Point,
    PointConfig,
)
from fatpoints.resolution import (
    GradedFreeModule,
    binom2,
    free_module_from_hilbert,
    line_hilbert_condensed,
    line_hilbert_direct,
    resolve,
    resolve_line_closed_form,
)
from fatpoints.lattice import ClassVector
from fatpoints.syzygy import s_dim

ROOT = Path(__file__).resolve().parent.parent

GOLDEN_CONIC = PointConfig(
    curve_kind="conic",
    points=(Point(1), Point(2), Point(3), Point(4), Point(5), Point(6, parent=5)),
    lines=((1, 2, 3, 4), (1, 5, 6)),
    conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
)
GOLDEN_SCHEME = FatPointScheme(GOLDEN_CONIC, (3, 2, 2, 1, 3, 2))


def line_scheme(mults):
    r = len(mults)
    cfg = PointConfig(
        curve_kind="line",
        points=tuple(Point(i) for i in range(1, r + 1)),
        lines=(tuple(range(1, r + 1)),) if r else (),
    )
    return FatPointScheme(cfg, tuple(mults))


def test_binom2():
    assert [binom2(n) for n in range(-2, 6)] == [0, 0, 0, 0, 1, 3, 6, 10]


def test_graded_free_module():
    mod = GradedFreeModule({5: 3, 6: 1, 8: 2})
    assert mod.rank() == 6
    assert str(mod) == "R[-5]^3 + R[-6] + R[-8]^2"
    assert mod.hilbert(5) == 3
    assert mod.hilbert(6) == 3 * 3 + 1
    assert str(GradedFreeModule({})) == "0"


def test_graded_free_module_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        GradedFreeModule({5: 0})


def test_free_module_from_hilbert():
    mod = GradedFreeModule({3: 2, 4: 1})
    values = {n: mod.hilbert(n) for n in range(0, 9)}
    assert free_module_from_hilbert(values) == mod


def test_free_module_from_hilbert_rejects_excess():
    # h drops from one degree to the next, impossible for a free module
    with pytest.raises(ValueError):
        free_module_from_hilbert({0: 0, 1: 1, 2: 0})


def test_golden_resolution():
    report = resolve(GOLDEN_SCHEME)
    assert report.alpha == 5
    assert report.regularity == 12
    assert list(report.h[:9]) == [0, 0, 0, 0, 0, 3, 8, 14, 23]
    assert list(report.nu[5:9]) == [3, 1, 0, 2]
    assert report.f0 == GradedFreeModule({5: 3, 6: 1, 8: 2})
    assert report.f1 == GradedFreeModule({6: 2, 7: 1, 9: 2})
    assert report.f0.rank() - report.f1.rank() == 1


def test_golden_traces_cover_every_degree():
    report = resolve(GOLDEN_SCHEME)
    assert [t.degree for t in report.traces] == list(range(report.cutoff + 1))
    d5 = report.traces[5]
    assert any("generator rule" in rule for rule in d5.rules)


def test_line_closed_form_golden():
    scheme = line_scheme((3, 2, 1))
    rep = resolve_line_closed_form(scheme)
    assert rep.f0 == GradedFreeModule({3: 2, 4: 1, 6: 1})
    assert rep.f1 == GradedFreeModule({4: 1, 5: 1, 7: 1})
    assert rep.alpha == 3
    assert rep.h[3] == 2


def test_line_closed_form_formulas_agree():
    mults = (4, 2, 2, 1)
    top = sum(mults) + 3
    for n in range(top + 1):
        assert line_hilbert_direct(mults, n) == line_hilbert_condensed(mults, n)


def test_line_closed_form_matches_pipeline_small():
    rng = random.Random(410)
    for _ in range(30):
        r = rng.randint(1, 5)
        mults = sorted((rng.randint(1, 4) for _ in range(r)), reverse=True)
        scheme = line_scheme(tuple(mults))
        closed = resolve_line_closed_form(scheme)
        pipeline = resolve(scheme)
        assert closed.f0 == pipeline.f0, mults
        assert closed.f1 == pipeline.f1, mults
        assert closed.h == pipeline.h


def test_hilbert_function_matches_module_difference():
    report = resolve(GOLDEN_SCHEME)
    ctx = make_context(GOLDEN_CONIC)
    for n in range(report.cutoff + 1):
        expect = binom2(n + 2) - report.f0.hilbert(n) + report.f1.hilbert(n)
        ideal_dim = binom2(n + 2) - report.h[n]
        assert h0_any(GOLDEN_SCHEME.to_class(n), ctx).h0 == report.h[n]
        assert report.h[n] == binom2(n + 2) - ideal_dim
        assert report.f0.hilbert(n) - report.f1.hilbert(n) == report.h[n]


def test_uniform_resolution_displays():
    cfg = PointConfig(
        curve_kind="cubic_uniform",
        points=tuple(Point(i) for i in range(1, 13)),
        lambda_spec=LambdaSpec("trivial"),
    )
    for m in (1, 2, 3, 4):
        report = resolve(FatPointScheme(cfg, (m,) * 12))
        want_f0 = {3 * m: 1}
        want_f1 = {}
        for i in range(1, m + 1):
            want_f0[3 * m + i + 1] = 3
            want_f1[3 * m + i + 2] = 3
        assert report.f0 == GradedFreeModule(want_f0), m
        assert report.f1 == GradedFreeModule(want_f1), m


def test_flex_resolution_consistency():
    pts = [Point(1)] + [Point(i, parent=i - 1) for i in range(2, 11)]
    cfg = PointConfig(curve_kind="cubic_flex", points=tuple(pts))
    rng = random.Random(411)
    for _ in range(20):
        mults = sorted((rng.randint(0, 3) for _ in range(10)), reverse=True)
        scheme = FatPointScheme(cfg, tuple(mults))
        report = resolve(scheme)
        assert report.f0.rank() - report.f1.rank() == 1
        for n in range(report.cutoff + 1):
            assert report.f0.hilbert(n) - report.f1.hilbert(n) == report.h[n]


def test_empty_scheme_resolves_to_ring():
    scheme = line_scheme(())
    report = resolve(scheme)
    assert report.f0 == GradedFreeModule({0: 1})
    assert report.f1.rank() == 0
    assert report.alpha == 0


@pytest.fixture
def decompositions(monkeypatch):
    """The classes passed to zariski_decompose, wherever the package calls it."""
    calls = []
    original = zariski.zariski_decompose

    def counted(f, context):
        calls.append(f)
        return original(f, context)

    for name, module in list(sys.modules.items()):
        if name.startswith("fatpoints") and getattr(module, "zariski_decompose", None) is original:
            monkeypatch.setattr(module, "zariski_decompose", counted)
    return calls


def test_resolve_decomposes_each_degree_once(decompositions):
    smooth = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, 13)),
        conic_shape=ConicShape("smooth"),
    )
    _, golden = parse_config(str(ROOT / "configs" / "conic_example.json"))
    for scheme in (golden, FatPointScheme(smooth, (5,) * 12)):
        decompositions.clear()
        report = resolve(scheme)
        assert 0 < len(decompositions) <= report.cutoff + 4


def test_resolve_counts_match_s_dim():
    """The table resolve builds and the public s_dim give the same counts."""
    flex = PointConfig(
        curve_kind="cubic_flex",
        points=(Point(1),) + tuple(Point(i, parent=i - 1) for i in range(2, 11)),
    )
    uniform = PointConfig(
        curve_kind="cubic_uniform",
        points=tuple(Point(i) for i in range(1, 11)),
        lambda_spec=LambdaSpec("trivial"),
    )
    schemes = (
        GOLDEN_SCHEME,
        line_scheme((5, 3, 1)),
        FatPointScheme(flex, (3, 3, 2, 2, 2, 1, 1, 1, 1, 1)),
        FatPointScheme(uniform, (2,) * 10),
    )
    for scheme in schemes:
        report = resolve(scheme)
        ctx = make_context(scheme.config)
        for d, trace in enumerate(report.traces):
            count = s_dim(scheme, d - 1, ctx)
            assert count.value == report.nu[d]
            assert f"generator rule: {count.rule}" in trace.rules


def test_subtraction_steps_do_not_grow_with_multiplicity():
    lengths = []
    for m1 in (30, 3000):
        ctx = make_context(line_scheme((m1, m1)).config)
        # sheds m1 - 5 copies of the line through both points
        dec = zariski.zariski_decompose(ClassVector(m1 + 5, (m1, m1)), ctx)
        assert dec.moving == ClassVector(10, (5, 5))
        # a point of multiplicity above the degree: not effective
        low = zariski.zariski_decompose(ClassVector(m1 - 1, (m1, 2)), ctx)
        assert isinstance(low, zariski.NotEffective)
        lengths.append((len(dec.trace), len(low.trace)))
    assert lengths[0] == lengths[1]


def test_line_3000_resolves_like_closed_form():
    scheme = line_scheme((3000, 2))
    closed = resolve_line_closed_form(scheme)
    pipeline = resolve(scheme)
    assert (pipeline.alpha, pipeline.h, pipeline.nu) == (closed.alpha, closed.h, closed.nu)
    assert (pipeline.f0, pipeline.f1) == (closed.f0, closed.f1)
