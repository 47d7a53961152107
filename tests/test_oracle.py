import json
import random
import signal
from pathlib import Path

import pytest
import sympy

from fatpoints import oracle
from fatpoints.cli import parse_config
from fatpoints.cohomology import regularity_bound
from fatpoints.configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    Point,
    PointConfig,
    UnsupportedRuleError,
    ValidationError,
)
from fatpoints.oracle import (
    DEFAULT_PRIME,
    check_prime,
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


def within_a_second(call):
    """call(), failed with TimeoutError if it runs past one second."""

    def expire(signum, frame):
        raise TimeoutError("still running after a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


SEVEN_ON_A_LINE = FatPointScheme(
    PointConfig("line", tuple(Point(i) for i in range(1, 8)), (tuple(range(1, 8)),)),
    (1,) * 7,
)


def two_lines_config(on_a, on_b):
    """A two_lines conic with its node, on_a more points on the first line
    and on_b on the second."""
    line_a = tuple(range(1, on_a + 2))
    line_b = (1,) + tuple(range(on_a + 2, on_a + on_b + 2))
    return PointConfig(
        "conic",
        tuple(Point(i) for i in range(1, on_a + on_b + 2)),
        (line_a, line_b),
        ConicShape("two_lines", line_a=0, line_b=1),
    )


def test_sampler_refuses_more_points_than_parameters():
    """Seven points of a line need seven distinct parameters, and F_5 has
    five: the report and the sampler refuse at once instead of drawing
    forever.  On two_lines a component has only the p - 1 nonzero ones."""
    with pytest.raises(UnsupportedRuleError, match="7 proper points .* only 5 "):
        within_a_second(lambda: oracle_report(SEVEN_ON_A_LINE, seed=0, p=5, max_degree=1))
    with pytest.raises(UnsupportedRuleError, match="7 proper points .* only 5 "):
        within_a_second(lambda: sample_coordinates(SEVEN_ON_A_LINE.config, seed=0, p=5))
    with pytest.raises(UnsupportedRuleError, match="5 proper points .* only 4 "):
        within_a_second(lambda: sample_coordinates(two_lines_config(5, 1), seed=0, p=5))
    with pytest.raises(UnsupportedRuleError, match="5 proper points .* only 4 "):
        within_a_second(lambda: sample_coordinates(two_lines_config(2, 5), seed=0, p=5))


def test_sampler_uses_every_parameter():
    """A component may take as many points as it has parameters."""
    five = PointConfig("line", tuple(Point(i) for i in range(1, 6)), ((1, 2, 3, 4, 5),))
    coords = within_a_second(lambda: sample_coordinates(five, seed=0, p=5))
    assert sorted(pt.x for pt in coords.points) == list(range(5))
    coords = within_a_second(lambda: sample_coordinates(two_lines_config(4, 4), seed=0, p=5))
    assert sorted(pt.x for pt in coords.points[1:5]) == [1, 2, 3, 4]
    assert sorted(pt.y for pt in coords.points[5:]) == [1, 2, 3, 4]


ROOT = Path(__file__).resolve().parent.parent
CHECKED_IN = sorted(
    path
    for d in ("configs", "tests/golden/configs", "perfbench/corpus/configs")
    for path in (ROOT / d).glob("*.json")
)


def test_checked_in_reports_stay_inside_the_work_bound():
    """Every checked-in config's oracle report, at its default top degree
    sum(m), has under a tenth of the work bound's matrix entries."""
    largest = 0
    for path in CHECKED_IN:
        try:
            mults = json.loads(path.read_text())["multiplicities"]
        except (ValueError, KeyError):
            continue
        top = sum(mults)
        rows = sum(m * (m + 1) // 2 for m in mults if m > 0)
        largest = max(largest, rows * (top + 1) * (top + 2) // 2)
    assert 0 < largest < oracle._WORK_BOUND // 10


def test_report_matches_a_full_elimination_on_checked_in_configs():
    """The report reduces at most to the regularity index + 1 and answers
    later degrees from its full-rank degree; at every degree its h and nu
    equal those of one reduction at the top degree, on every checked-in
    config with sum(m) <= 30 that the oracle accepts."""
    checked = 0
    for path in CHECKED_IN:
        try:
            _, scheme = parse_config(str(path))
            if sum(scheme.multiplicities) > 30:
                continue
            rep = oracle_report(scheme, seed=0)
        except (ValidationError, UnsupportedRuleError):
            continue
        coords = sample_coordinates(scheme.config, seed=0)
        full = oracle._eliminate(coords, scheme.multiplicities, rep.degrees[-1])
        assert rep.h_values == tuple(full.hilbert(d) for d in rep.degrees), path.name
        assert rep.nu_values == tuple(full.generators(d) for d in rep.degrees), path.name
        checked += 1
    assert checked > 150


def test_benchmark_oracle_corpus_answers(tmp_path):
    """Every entry of the benchmark's oracle corpus, at its own seed and top
    degree, gives the pinned oracle h and nu."""
    corpus = json.loads((ROOT / "perfbench/corpus/oracle.json").read_text())
    path = tmp_path / "config.json"
    for entry in corpus["entries"]:
        path.write_text(json.dumps(entry["config"]))
        _, scheme = parse_config(str(path))
        rep = oracle_report(scheme, seed=entry["oracle_seed"], max_degree=entry["max_degree"])
        assert list(rep.h_values) == entry["expected"]["h"], entry["id"]
        assert list(rep.nu_values) == entry["expected"]["nu"], entry["id"]
    assert len(corpus["entries"]) == 200


def smooth_conic(r, m):
    cfg = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, r + 1)),
        conic_shape=ConicShape("smooth"),
    )
    return FatPointScheme(cfg, (m,) * r)


def test_report_builds_once_at_the_regularity_index(monkeypatch):
    """On twelve 5-fold points of a smooth conic tau = 30: the conditions
    are built once, at degree 31, though the table runs to sum(m) = 60."""
    built = []
    conditions = oracle._conditions_matrix

    def recorded(coords, mults, d):
        built.append(d)
        return conditions(coords, mults, d)

    monkeypatch.setattr(oracle, "_conditions_matrix", recorded)
    rep = oracle_report(smooth_conic(12, 5), seed=0)
    assert rep.degrees == tuple(range(61)) and rep.all_agree
    assert built == [31]


@pytest.mark.parametrize("scheme", [LINE_321, GOLDEN_SCHEME, smooth_conic(6, 2)])
def test_report_rebuilds_when_not_full_rank_at_the_build_degree(monkeypatch, scheme):
    """With the pipeline's tau taken one lower, the first reduction reaches
    full rank only in its own top degree, too late to answer the degree
    above; the report reduces again at the top degree and answers as before."""
    want = oracle_report(scheme, seed=0)
    index = oracle.regularity_index
    monkeypatch.setattr(oracle, "regularity_index", lambda *args: index(*args) - 1)
    eliminated = []
    eliminate = oracle._eliminate

    def counted(coords, mults, d):
        eliminated.append(d)
        return eliminate(coords, mults, d)

    monkeypatch.setattr(oracle, "_eliminate", counted)
    assert oracle_report(scheme, seed=0) == want
    top = want.degrees[-1]
    assert len(eliminated) == 2 and eliminated[1] == top and eliminated[0] < top


def test_prime_bound_enforced():
    with pytest.raises(ValueError):
        oracle_report(LINE_321, seed=0, p=11)


@pytest.mark.parametrize("p", [4294967311, 32001, 2**31, 4, 2047, 1373653, 25326001])
def test_prime_rule_rejects(p):
    # 2047, 1373653 and 25326001 are strong pseudoprimes to the bases 2, 2-3
    # and 2-3-5; only the base 7 round catches the last
    with pytest.raises(ValidationError) as err:
        oracle_report(GOLDEN_SCHEME, seed=0, p=p, max_degree=3)
    assert err.value.rule == "prime-range"
    assert str(p) in str(err.value)


def test_prime_rule_matches_sympy():
    rng = random.Random(31)
    samples = list(range(5, 2000)) + [rng.randrange(2**31) for _ in range(2000)]
    for n in samples + [2**31 - 1, 2**31 - 19]:
        try:
            check_prime(n)
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == (n >= 5 and sympy.isprime(n)), n


def test_largest_prime_agrees_on_golden_conic():
    top = regularity_bound(GOLDEN_SCHEME) + 2
    for seed in range(3):
        rep = oracle_report(GOLDEN_SCHEME, seed=seed, p=2**31 - 1, max_degree=top)
        assert rep.all_agree, seed


def assert_family_agrees(make_scheme, runs, rng_seed):
    """Seeded oracle agreement through regularity + 2, as in criterion 3."""
    rng = random.Random(rng_seed)
    for seed in range(runs):
        scheme = make_scheme(rng)
        rep = oracle_report(scheme, seed=seed, max_degree=regularity_bound(scheme) + 2)
        assert rep.all_agree, (seed, scheme)


def descending(rng, r, hi):
    return sorted((rng.randint(1, hi) for _ in range(r)), reverse=True)


def with_near_points(rng, r, hi):
    """r proper points and first-order near points over a random subset of
    them; returns the points and the multiplicities."""
    mults = descending(rng, r, hi)
    points = [Point(i) for i in range(1, r + 1)]
    for parent in sorted(rng.sample(range(1, r + 1), rng.randint(1, r))):
        points.append(Point(len(points) + 1, parent=parent))
        mults.append(rng.randint(1, mults[parent - 1]))
    return tuple(points), tuple(mults)


def test_two_lines_oracle_family():
    def make(rng):
        node = bool(rng.randrange(2))
        na, nb = rng.randint(2, 4), rng.randint(2, 4)
        first = 2 if node else 1
        line_a = ([1] if node else []) + list(range(first, first + na))
        line_b = ([1] if node else []) + list(range(first + na, first + na + nb))
        r = line_b[-1]
        mults = [rng.randint(1, 3) for _ in range(r)]
        points = [Point(i) for i in range(1, r + 1)]
        if rng.randrange(2):
            host = line_a if rng.randrange(2) else line_b
            parent = rng.choice(host)
            points.append(Point(r + 1, parent=parent))
            host.append(r + 1)
            mults.append(rng.randint(1, mults[parent - 1]))
        cfg = PointConfig(
            curve_kind="conic",
            points=tuple(points),
            lines=(tuple(line_a), tuple(line_b)),
            conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
        )
        return FatPointScheme(cfg, tuple(mults))

    assert_family_agrees(make, 40, 2001)


def test_double_line_oracle_family():
    def make(rng):
        r = rng.randint(1, 5)
        if rng.randrange(2):
            points, mults = with_near_points(rng, r, 3)
        else:
            points, mults = tuple(Point(i) for i in range(1, r + 1)), tuple(descending(rng, r, 3))
        cfg = PointConfig(
            curve_kind="conic",
            points=points,
            lines=(tuple(range(1, len(points) + 1)),),
            conic_shape=ConicShape("double_line", line_a=0),
        )
        return FatPointScheme(cfg, mults)

    assert_family_agrees(make, 40, 2002)


def test_line_near_point_oracle_family():
    def make(rng):
        points, mults = with_near_points(rng, rng.randint(1, 4), 4)
        cfg = PointConfig(
            curve_kind="line", points=points, lines=(tuple(range(1, len(points) + 1)),)
        )
        return FatPointScheme(cfg, mults)

    assert_family_agrees(make, 40, 2003)


def test_smooth_conic_near_point_oracle_family():
    def make(rng):
        points, mults = with_near_points(rng, rng.randint(1, 5), 3)
        cfg = PointConfig(curve_kind="conic", points=points, conic_shape=ConicShape("smooth"))
        return FatPointScheme(cfg, mults)

    assert_family_agrees(make, 40, 2004)


def test_uniform_cubic_oracle_family():
    def make(rng):
        r = rng.randint(9, 12)
        cfg = PointConfig(
            curve_kind="cubic_uniform",
            points=tuple(Point(i) for i in range(1, r + 1)),
            lambda_spec=LambdaSpec("trivial"),
        )
        return FatPointScheme(cfg, (rng.randint(1, 2),) * r)

    assert_family_agrees(make, 40, 2005)
