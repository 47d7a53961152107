import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from fatpoints import cli, cohomology, lattice, syzygy, zariski
from fatpoints.cli import RunSpec, parse_config
from fatpoints.cohomology import h0_any, make_context, regularity_index
from fatpoints.configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    Point,
    PointConfig,
    UnsupportedRuleError,
    ValidationError,
)
from fatpoints.resolution import (
    GradedFreeModule,
    binom2,
    line_hilbert_condensed,
    line_hilbert_direct,
    resolve,
    resolve_line_closed_form,
)
from fatpoints.lattice import ClassVector
from fatpoints.oracle import oracle_report
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


def uniform_config(r):
    return PointConfig(
        curve_kind="cubic_uniform",
        points=tuple(Point(i) for i in range(1, r + 1)),
        lambda_spec=LambdaSpec("trivial"),
    )


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


def test_graded_free_module_refuses_floats():
    for shifts in ({2.5: 1.7}, {2: 1.7}, {2.5: 1}):
        with pytest.raises(TypeError):
            GradedFreeModule(shifts)


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
        h0 = h0_any(GOLDEN_SCHEME.to_class(n), ctx).h0
        assert h0 == report.h[n]
        assert binom2(n + 2) - expect == h0


def test_uniform_resolution_displays():
    for m in (1, 2, 3, 4):
        report = resolve(FatPointScheme(uniform_config(12), (m,) * 12))
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


def test_resolve_decomposes_each_degree_once(decompositions, monkeypatch, capsys):
    """resolve decomposes each degree below the nef tail degree t once, and
    no degree from t on: min(t, top + 1) decompositions in all.  So do cli
    hilbert (default top and a top past t), oracle_report, and s_dim over
    its two degrees."""
    smooth = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, 13)),
        conic_shape=ConicShape("smooth"),
    )
    flex = PointConfig(
        curve_kind="cubic_flex",
        points=(Point(1),) + tuple(Point(i, parent=i - 1) for i in range(2, 13)),
    )
    _, golden = parse_config(str(ROOT / "configs" / "conic_example.json"))
    schemes = (
        golden,
        FatPointScheme(smooth, (5,) * 12),
        line_scheme((5, 3, 1)),
        FatPointScheme(flex, (3,) * 12),
    )

    def taken():
        """The degrees decomposed since the last call, in order."""
        degrees = sorted(f.d for f in decompositions)
        decompositions.clear()
        return degrees

    for scheme in schemes:
        kind = scheme.config.curve_kind
        tail = zariski.nef_tail_degree(scheme, make_context(scheme.config))
        decompositions.clear()
        report = resolve(scheme)
        top = report.cutoff + 3
        assert 0 < tail <= top, kind
        assert taken() == list(range(min(tail, top + 1))), kind

        monkeypatch.setattr(cli, "parse_config", lambda path: (scheme.config, scheme))
        for max_degree in (None, tail + 5):
            spec = RunSpec("hilbert", "scheme.json", output_format="machine", max_degree=max_degree)
            assert cli.run(spec) == 0
            top = json.loads(capsys.readouterr().out)["degrees"][-1]
            assert taken() == list(range(min(tail, top + 1))), (kind, max_degree)

        if kind != "cubic_flex":
            top = oracle_report(scheme).degrees[-1]
            assert taken() == list(range(min(tail, top + 1))), kind

        for d in range(report.regularity + 2):
            s_dim(scheme, d)
            below = [e for e in (d, d + 1) if e < tail and d <= report.regularity]
            assert taken() == below, (kind, d)


def count_package_calls(monkeypatch, originals):
    """Calls of each of ``originals``, by name, wherever the package calls it."""
    calls = Counter()
    for original in originals:

        def counted(*args, original=original):
            calls[original.__name__] += 1
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("fatpoints") and getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    return calls


@pytest.fixture
def class_builders(monkeypatch):
    """Calls of canonical_class and e0_class, wherever the package calls them."""
    return count_package_calls(monkeypatch, (lattice.canonical_class, lattice.e0_class))


def test_resolve_builds_no_class_per_degree(class_builders):
    """Only the candidate list builds -K or e0, so the count does not grow
    with the cutoff."""
    flex = PointConfig(
        curve_kind="cubic_flex",
        points=(Point(1),) + tuple(Point(i, parent=i - 1) for i in range(2, 13)),
    )
    uniform = FatPointScheme(uniform_config(12), (2,) * 12)
    for base in (GOLDEN_SCHEME, FatPointScheme(flex, (3,) * 12), uniform):
        counts = []
        for k in (1, 3):
            class_builders.clear()
            resolve(FatPointScheme(base.config, tuple(k * v for v in base.multiplicities)))
            counts.append(dict(class_builders))
        assert counts[0] == counts[1]


def test_syzygies_come_with_the_section_answers(monkeypatch):
    """Each degree's syzygy count rides on its section answer: resolve and
    oracle_report make no s_of_nef call, and on a flex chain each h0_flex
    call is the one nef-basis solve of its degree."""
    calls = count_package_calls(
        monkeypatch, (syzygy.s_of_nef, cohomology.h0_flex, lattice.nef_basis_coefficients)
    )
    flex = PointConfig(
        curve_kind="cubic_flex",
        points=(Point(1),) + tuple(Point(i, parent=i - 1) for i in range(2, 13)),
    )
    resolve(FatPointScheme(flex, (3,) * 12))
    assert calls["nef_basis_coefficients"] == calls["h0_flex"] == 32
    uniform = FatPointScheme(uniform_config(10), (1,) * 10)
    for scheme in (GOLDEN_SCHEME, line_scheme((5, 3, 1)), uniform):
        calls.clear()
        resolve(scheme)
        oracle_report(scheme)
        assert calls["s_of_nef"] == 0, scheme.config.curve_kind


def test_resolve_counts_match_s_dim():
    """The table resolve builds and the public s_dim give the same counts."""
    flex = PointConfig(
        curve_kind="cubic_flex",
        points=(Point(1),) + tuple(Point(i, parent=i - 1) for i in range(2, 11)),
    )
    schemes = (
        GOLDEN_SCHEME,
        line_scheme((5, 3, 1)),
        FatPointScheme(flex, (3, 3, 2, 2, 2, 1, 1, 1, 1, 1)),
        FatPointScheme(uniform_config(10), (2,) * 10),
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


def test_no_sections_below_the_largest_multiplicity():
    """A form of degree d vanishing to order m > d at a point vanishes on
    every line through it, so it is zero.  For every valid line and conic
    config, each degree below the largest multiplicity has no sections, and
    its trace is one step: the pencil of lines through the first proper point
    of multiplicity above the degree."""
    dirs = (ROOT / "configs", ROOT / "tests" / "golden" / "configs")
    checked = 0
    for path in sorted(p for d in dirs for p in d.glob("*.json")):
        try:
            config, scheme = parse_config(str(path))
        except ValidationError:
            continue
        if config.curve_kind not in ("line", "conic"):
            continue
        report = resolve(scheme)
        top = max(scheme.multiplicities)
        proper = [
            (pt.id, m) for pt, m in zip(config.points, scheme.multiplicities) if pt.parent is None
        ]
        assert top <= len(report.h) and report.alpha >= top, path.name
        for d in range(top):
            assert report.h[d] == 0, (path.name, d)
            first = next(i for i, m in proper if m > d)
            (step,) = report.traces[d].subtracted
            assert step.endswith(f" [L({first})]"), (path.name, d, step)
        checked += 1
    assert checked > 20


def test_generators_and_relations_end_at_the_regularity_index():
    """Let tau be the regularity index, the least degree from which
    h1(d) = h(d) - chi(d) stays 0.  Generators of I_Z lie in degrees <= tau + 1 and relations in degrees
    <= tau + 2, on every valid checked-in config; on most of them tau + 2
    lies below the cutoff, so the report's table runs past its last shift."""
    dirs = (
        ROOT / "configs",
        ROOT / "tests" / "golden" / "configs",
        ROOT / "perfbench" / "corpus" / "configs",
    )
    checked = below_cutoff = 0
    for path in sorted(p for d in dirs for p in d.glob("*.json")):
        try:
            _, scheme = parse_config(str(path))
            report = resolve(scheme)
        except (ValidationError, UnsupportedRuleError):
            continue
        tau = regularity_index(scheme, report.h)
        assert not any(report.nu[tau + 2 :]), path.name
        assert max(report.f1.shifts, default=0) <= tau + 2, path.name
        checked += 1
        below_cutoff += tau + 2 < report.cutoff
    assert checked > 250
    assert below_cutoff > 150


def test_line_3000_resolves_like_closed_form():
    scheme = line_scheme((3000, 2))
    closed = resolve_line_closed_form(scheme)
    pipeline = resolve(scheme)
    assert (pipeline.alpha, pipeline.h, pipeline.nu) == (closed.alpha, closed.h, closed.nu)
    assert (pipeline.f0, pipeline.f1) == (closed.f0, closed.f1)


def greedy_free_module_reference(values):
    """The free module whose Hilbert function is ``values``, greedily from
    the bottom: what the lower generators cannot explain at a degree must be
    new generators there."""
    shifts = {}
    for n, target in enumerate(values):
        residual = target - sum(mult * binom2(n - d + 2) for d, mult in shifts.items())
        assert residual >= 0, f"excess {-residual} at degree {n}"
        if residual:
            shifts[n] = residual
    return GradedFreeModule(shifts)


def near_points(rng, r, hi):
    """r proper points, then first-order near points over a random nonempty
    subset of them; returns the points and the multiplicities."""
    mults = sorted((rng.randint(1, hi) for _ in range(r)), reverse=True)
    points = [Point(i) for i in range(1, r + 1)]
    for parent in sorted(rng.sample(range(1, r + 1), rng.randint(1, r))):
        points.append(Point(len(points) + 1, parent=parent))
        mults.append(rng.randint(1, mults[parent - 1]))
    return tuple(points), tuple(mults)


def seeded_line(rng):
    return line_scheme(sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 6))), reverse=True))


def seeded_smooth_conic(rng):
    r = rng.randint(1, 9)
    cfg = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, r + 1)),
        conic_shape=ConicShape("smooth"),
    )
    return FatPointScheme(cfg, tuple(rng.randint(1, 5) for _ in range(r)))


def seeded_two_lines(rng):
    node = bool(rng.randrange(2))
    na, nb = rng.randint(2, 4), rng.randint(2, 4)
    first = 2 if node else 1
    line_a = ([1] if node else []) + list(range(first, first + na))
    line_b = ([1] if node else []) + list(range(first + na, first + na + nb))
    r = line_b[-1]
    mults = [rng.randint(1, 4) for _ in range(r)]
    host = line_a if rng.randrange(2) else line_b
    parent = rng.choice(host)
    host.append(r + 1)
    mults.append(rng.randint(1, mults[parent - 1]))
    cfg = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, r + 1)) + (Point(r + 1, parent=parent),),
        lines=(tuple(line_a), tuple(line_b)),
        conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
    )
    return FatPointScheme(cfg, tuple(mults))


def seeded_double_line(rng):
    points, mults = near_points(rng, rng.randint(1, 5), 4)
    cfg = PointConfig(
        curve_kind="conic",
        points=points,
        lines=(tuple(range(1, len(points) + 1)),),
        conic_shape=ConicShape("double_line", line_a=0),
    )
    return FatPointScheme(cfg, mults)


def seeded_uniform(rng):
    r = rng.randint(9, 20)
    return FatPointScheme(uniform_config(r), (rng.randint(1, 4),) * r)


def seeded_flex(rng):
    r = rng.randint(3, 12)
    cfg = PointConfig(
        curve_kind="cubic_flex",
        points=(Point(1),) + tuple(Point(i, parent=i - 1) for i in range(2, r + 1)),
    )
    return FatPointScheme(cfg, tuple(sorted((rng.randint(0, 4) for _ in range(r)), reverse=True)))


def test_f1_matches_greedy_reference():
    """F1 from the third difference of h equals the greedy free module on
    f0.hilbert(n) - h(n), over 210 seeded schemes of all six shapes."""
    rng = random.Random(606)
    makers = (
        seeded_line,
        seeded_smooth_conic,
        seeded_two_lines,
        seeded_double_line,
        seeded_uniform,
        seeded_flex,
    )
    for make in makers:
        for _ in range(35):
            scheme = make(rng)
            report = resolve(scheme)
            delta = [report.f0.hilbert(n) - h for n, h in enumerate(report.h)]
            assert report.f1 == greedy_free_module_reference(delta), scheme


def test_assembly_expands_no_free_module(monkeypatch):
    """Assembly costs one pass over the degrees: resolve never sums a free
    module's Hilbert function over its shifts."""
    calls = []
    original = GradedFreeModule.hilbert

    def counted(self, n):
        calls.append(n)
        return original(self, n)

    monkeypatch.setattr(GradedFreeModule, "hilbert", counted)
    report = resolve(FatPointScheme(uniform_config(20), (300,) * 20))
    assert calls == []
    # the modules the greedy assembly gave: a period of 11 degrees
    f0, f1 = {900: 1}, {}
    for k in range(0, 1100, 11):
        f0.update({904 + k: 1, 905 + k: 1, 908 + k: 2, 912 + k: 3})
        f1.update({906 + k: 2, 909 + k: 1, 910 + k: 1, 913 + k: 3})
    assert report.f0 == GradedFreeModule(f0)
    assert report.f1 == GradedFreeModule(f1)
