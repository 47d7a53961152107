import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fatpoints import zariski
from fatpoints.cli import parse_config
from fatpoints.cohomology import h0_any, h0_nef, make_context, regularity_bound
from fatpoints.configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    LambdaUnderdeterminedError,
    Point,
    PointConfig,
    UnsupportedRuleError,
    ValidationError,
)
from fatpoints.lattice import (
    ClassVector,
    canonical_class,
    intersect,
    nef_basis_class,
    nef_basis_coefficients,
    zero_class,
)
from fatpoints.syzygy import s_of_nef
from fatpoints.zariski import (
    NotEffective,
    SubtractionStep,
    ZariskiDecomposition,
    is_nef,
    kernel_multiple_data,
    nef_tail_degree,
    zariski_decompose,
)

GOLDEN_CONIC = PointConfig(
    curve_kind="conic",
    points=(Point(1), Point(2), Point(3), Point(4), Point(5), Point(6, parent=5)),
    lines=((1, 2, 3, 4), (1, 5, 6)),
    conic_shape=ConicShape("two_lines", line_a=0, line_b=1),
)


def uniform_config(r, spec=None):
    return PointConfig(
        curve_kind="cubic_uniform",
        points=tuple(Point(i) for i in range(1, r + 1)),
        lambda_spec=spec if spec is not None else LambdaSpec("trivial"),
    )


def flex_config(r):
    pts = [Point(1)] + [Point(i, parent=i - 1) for i in range(2, r + 1)]
    return PointConfig(curve_kind="cubic_flex", points=tuple(pts))


def test_golden_decomposition():
    dec = zariski_decompose(ClassVector(5, (3, 2, 2, 1, 3, 2)), make_context(GOLDEN_CONIC))
    assert dec.moving == ClassVector(2, (0, 1, 1, 0, 1, 0))
    assert dec.fixed == ClassVector(3, (3, 1, 1, 1, 2, 2))
    assert dec.moving + dec.fixed == ClassVector(5, (3, 2, 2, 1, 3, 2))


def test_golden_not_effective():
    dec = zariski_decompose(ClassVector(0, (1, 0, 0, 0, 0, 0)), make_context(GOLDEN_CONIC))
    assert isinstance(dec, NotEffective)


def test_nef_input_passes_through():
    f = ClassVector(2, (0, 1, 1, 0, 1, 0))
    dec = zariski_decompose(f, make_context(GOLDEN_CONIC))
    assert dec.moving == f
    assert dec.fixed.is_zero()
    assert dec.trace == ()


def test_is_nef_golden_cases():
    ctx = make_context(GOLDEN_CONIC)
    assert is_nef(ClassVector(2, (0, 1, 1, 0, 1, 0)), ctx)
    assert not is_nef(ClassVector(5, (3, 2, 2, 1, 3, 2)), ctx)
    assert not is_nef(ClassVector(-1, (0,) * 6), ctx)
    assert is_nef(zero_class(6), ctx)


def smooth_conic_config(r):
    return PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, r + 1)),
        conic_shape=ConicShape("smooth"),
    )


def flex_nef_reference(f):
    """The flex chain's nef cone in its own basis: nonnegative coordinates
    and a nonnegative pairing with the anticanonical class."""
    coeffs = nef_basis_coefficients(f)
    return min(coeffs.a) >= 0 and coeffs.minus_k_pairing >= 0


def pairing_nef_reference(f, ctx):
    return f.d >= 0 and all(intersect(f, entry.cls) >= 0 for entry in ctx.candidates)


def test_is_nef_matches_reference_predicates():
    """is_nef, the scan that ends the subtraction loop, agrees with the nef
    basis criterion on flex chains and with the full pairing test on conics."""
    flex = [make_context(flex_config(r)) for r in range(3, 15)]
    conics = [make_context(GOLDEN_CONIC), make_context(smooth_conic_config(12))]
    rng = random.Random(408)
    outcomes = Counter()
    for _ in range(500):
        on_flex = rng.random() < 0.5
        ctx = rng.choice(flex if on_flex else conics)
        r = ctx.config.r
        if on_flex:
            # a nonnegative mix of the nef basis, nudged off it half the time
            f = zero_class(r)
            for i in rng.sample(range(r + 1), rng.randint(1, 3)):
                f = f + rng.randint(1, 3) * nef_basis_class(i, r)
            if rng.random() < 0.5:
                f = f - ClassVector(rng.randint(-1, 1), tuple(rng.randint(-1, 1) for _ in range(r)))
            want = flex_nef_reference(f)
        else:
            f = ClassVector(rng.randint(-2, 14), tuple(rng.randint(0, 4) for _ in range(r)))
            if rng.random() < 0.5:
                dec = zariski_decompose(f, ctx)
                f = f if isinstance(dec, NotEffective) else dec.moving
            want = pairing_nef_reference(f, ctx)
        assert is_nef(f, ctx) == want, (f, ctx.config.curve_kind)
        outcomes[on_flex, want] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_nef_class_is_paired_with_each_candidate_once(monkeypatch):
    """A nef class costs one sparse pairing pass over the candidates and one
    ample pairing: the scan that ends the loop also decides nefness."""
    ctx = make_context(smooth_conic_config(12))
    calls = Counter()
    originals = {"intersect": zariski.intersect, "_pairings": zariski._pairings}
    for name, original in originals.items():

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(zariski, name, counted)
    f = ClassVector(6, (1,) * 12)
    dec = zariski_decompose(f, ctx)
    assert dec.moving == f and dec.trace == ()
    assert calls == {"_pairings": 1, "intersect": 1}


def test_pairings_match_intersect():
    """The sparse pass pairs a class with every candidate exactly as
    intersect does, for every kind of candidate."""
    contexts = [
        make_context(GOLDEN_CONIC),
        make_context(smooth_conic_config(12)),
        make_context(flex_config(5)),
        make_context(flex_config(9)),
        make_context(flex_config(12)),
    ]
    labels = {entry.label for ctx in contexts for entry in ctx.candidates}
    # pencils, an exceptional component with a proximate child, declared and
    # two-point lines, the conic, and the flex chain's classes with D
    for label in ("L(1)", "E5 - E6", "L(1,2,3,4)", "L(2,5)", "Q", "L(1,2,3)", "E4 - E5", "E9", "D"):
        assert label in labels, label
    rng = random.Random(409)
    for _ in range(500):
        ctx = rng.choice(contexts)
        f = ClassVector(
            rng.randint(-5, 20), tuple(rng.randint(-3, 6) for _ in range(ctx.config.r))
        )
        want = [intersect(f, entry.cls) for entry in ctx.candidates]
        assert zariski._pairings(f, ctx) == want, f


def ray_schemes():
    """Every valid line, conic and flex scheme among the checked-in configs,
    with its context and top resolve degree."""
    root = Path(__file__).resolve().parent.parent
    dirs = (
        root / "configs",
        root / "tests" / "golden" / "configs",
        root / "perfbench" / "corpus" / "configs",
    )
    for path in sorted(p for d in dirs for p in d.glob("*.json")):
        try:
            config, scheme = parse_config(str(path))
            if config.curve_kind == "cubic_uniform":
                continue
            ctx = make_context(config)
            reg = regularity_bound(scheme)
        except (ValidationError, UnsupportedRuleError):
            continue
        yield scheme, ctx, reg + 5


def test_nef_tail_matches_scan_down():
    """The closed-form tail degree is the least degree from which is_nef
    holds up to the top resolve degree, and there the nef rule gives the
    answer of the decomposition path, with an empty trace."""
    checked = in_tail = 0
    for scheme, ctx, top in ray_schemes():
        tail = nef_tail_degree(scheme, ctx)
        assert tail is not None
        reference = top + 1
        while reference > 0 and is_nef(scheme.to_class(reference - 1), ctx):
            reference -= 1
        assert min(tail, top + 1) == reference, scheme
        for d in range(tail, top + 1):
            f = scheme.to_class(d)
            answer = h0_nef(f, ctx)
            assert answer == h0_any(f, ctx)
            assert answer.trace == ()
        checked += 1
        in_tail += max(top + 1 - tail, 0)
    assert checked > 200
    assert in_tail > 1000


def test_nef_tail_absent():
    """No tail for the uniform cubic, which has no loop, nor when a degree-0
    candidate meets every degree negatively (here E5 - E6, as p6 is
    infinitely near p5 with a larger multiplicity)."""
    uniform = FatPointScheme(uniform_config(12), (2,) * 12)
    assert nef_tail_degree(uniform, make_context(uniform.config)) is None
    unproximate = FatPointScheme(GOLDEN_CONIC, (0, 0, 0, 0, 1, 2))
    assert nef_tail_degree(unproximate, make_context(GOLDEN_CONIC)) is None


def test_trace_certificates_and_idempotence():
    """Each subtraction is certified by a negative pairing against a class of
    negative square, and the moving part decomposes to itself."""
    rng = random.Random(405)
    ctx = make_context(GOLDEN_CONIC)
    checked = 0
    for _ in range(500):
        f = ClassVector(
            rng.randint(0, 12),
            tuple(rng.randint(0, 5) for _ in range(6)),
        )
        dec = zariski_decompose(f, ctx)
        if isinstance(dec, NotEffective):
            continue
        checked += 1
        assert dec.moving + dec.fixed == f
        assert is_nef(dec.moving, ctx)
        for step in dec.trace:
            assert step.pairing < 0
            assert step.square < 0
            # every copy is forced: the pairing before the last one is negative
            assert step.copies >= 1
            assert step.pairing - (step.copies - 1) * step.square < 0
        again = zariski_decompose(dec.moving, ctx)
        assert again.moving == dec.moving
        assert again.fixed.is_zero()
    assert checked > 100


def one_copy_reference(f, ctx):
    """The subtraction loop one copy per step: the forced cubic past nine
    flex points, else the first candidate met negatively.  Returns the moving
    part, the fixed part and the copies per label, or None when the degree
    turns negative."""
    minus_k = -canonical_class(f.r)
    forced_cubic = ctx.config.curve_kind == "cubic_flex" and f.r > 9
    current, copies = f, Counter()
    while current.d >= 0:
        if forced_cubic and intersect(minus_k, current) < 0:
            cls, label = minus_k, "D"
        else:
            hit = next((c for c in ctx.candidates if intersect(current, c.cls) < 0), None)
            if hit is None:
                return current, f - current, copies
            cls, label = hit.cls, hit.label
        current = current - cls
        copies[label] += 1
    return None


def test_batched_subtraction_matches_one_copy_loop():
    """Taking every forced copy of a class at once gives the moving part,
    the fixed part and the copies per class of one copy per step."""
    golden = Path(__file__).resolve().parent / "golden" / "configs"
    configs = [
        parse_config(str(path))[0]
        for shape in ("line", "smooth", "two_lines", "double_line", "flex")
        for path in sorted(golden.glob(f"{shape}_*.json"))
    ]
    contexts = [make_context(cfg) for cfg in configs + [flex_config(10), flex_config(12)]]
    rng = random.Random(407)
    decomposed = batched = 0
    for _ in range(500):
        ctx = rng.choice(contexts)
        top = rng.choice((3, 8, 20))
        f = ClassVector(
            rng.randint(0, 3 * top), tuple(rng.randint(0, top) for _ in range(ctx.config.r))
        )
        dec = zariski_decompose(f, ctx)
        want = one_copy_reference(f, ctx)
        if want is None:
            assert isinstance(dec, NotEffective)
            continue
        moving, fixed, copies = want
        assert dec.moving == moving
        assert dec.fixed == fixed
        got = Counter()
        for step in dec.trace:
            got[step.label] += step.copies
        assert got == copies
        decomposed += 1
        batched += any(step.copies > 1 for step in dec.trace)
    assert decomposed > 150
    assert batched > 50


def class_loop_reference(f, ctx):
    """The subtraction loop on classes: pair the class with every candidate,
    take the forced copies of the first one met negatively off the class,
    and pair what is left with the ample witness again."""
    ample = ctx.ample
    current, steps = f, []
    potential = intersect(current, ample)
    while True:
        if current.d < 0:
            reason = "subtracting forced fixed classes drove the degree negative"
            return NotEffective(reason, tuple(steps))
        pairings = [intersect(current, entry.cls) for entry in ctx.candidates]
        index = next((i for i, pairing in enumerate(pairings) if pairing < 0), None)
        if index is None:
            return ZariskiDecomposition(current, f - current, tuple(steps))
        entry, pairing = ctx.candidates[index], pairings[index]
        square = entry.cls.square()
        copies = -(pairing // -square) if square < 0 else current.d // entry.cls.d + 1
        rule = "forced-anticanonical" if entry.kind == "cubic" else "negative-pairing"
        steps.append(
            SubtractionStep(entry.cls, entry.kind, entry.label, pairing, square, rule, copies)
        )
        current = current - copies * entry.cls
        next_potential = intersect(current, ample)
        assert next_potential < potential
        potential = next_potential


def test_pairing_vector_loop_matches_class_loop():
    """The loop on a pairing vector takes the same steps, with the same
    certificates and trace text, and ends in the same moving and fixed parts
    or the same reason as the loop on classes."""
    golden = Path(__file__).resolve().parent / "golden" / "configs"
    configs = [
        parse_config(str(path))[0]
        for shape in ("line", "smooth", "two_lines", "double_line")
        for path in sorted(golden.glob(f"{shape}_*.json"))
    ]
    configs += [GOLDEN_CONIC, smooth_conic_config(12)]
    configs += [flex_config(r) for r in range(3, 13)]
    contexts = [make_context(cfg) for cfg in configs]
    rng = random.Random(410)
    labels, outcomes = Counter(), Counter()
    for _ in range(800):
        ctx = rng.choice(contexts)
        top = rng.choice((3, 8, 20, 60))
        f = ClassVector(
            rng.randint(-1, 3 * top),
            tuple(rng.randint(-1, top) for _ in range(ctx.config.r)),
        )
        got = zariski_decompose(f, ctx)
        want = class_loop_reference(f, ctx)
        assert got == want, (f, ctx.config)
        assert list(map(str, got.trace)) == list(map(str, want.trace))
        outcomes[type(got).__name__, bool(got.trace)] += 1
        labels.update(step.label for step in got.trace)
    # decompositions with and without steps, and not-effective classes with steps
    for outcome in (("ZariskiDecomposition", True), ("ZariskiDecomposition", False)):
        assert outcomes[outcome] > 150, outcomes
    assert outcomes["NotEffective", True] > 150, outcomes
    # pencils, an exceptional component with a proximate child, declared and
    # two-point lines, the conic, and the flex chain's classes with D
    for label in ("L(1)", "E5 - E6", "L(1,2,3,4)", "L(2,5)", "Q", "L(1,2,3)", "E4 - E5", "E9", "D"):
        assert labels[label] > 0, (label, labels)


def test_steps_update_pairings_without_class_arithmetic(monkeypatch):
    """A decomposition makes one sparse pairing pass for the class and one
    per candidate it first subtracts in the context, and builds no class per
    step; a second decomposition on the context computes no row again."""
    ctx = make_context(smooth_conic_config(12))
    calls = Counter()
    originals = {
        (zariski, "_pairings"): zariski._pairings,
        (ClassVector, "__sub__"): ClassVector.__sub__,
        (ClassVector, "__mul__"): ClassVector.__mul__,
        (ClassVector, "__rmul__"): ClassVector.__rmul__,
    }
    for (owner, name), original in originals.items():

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    f = ClassVector(25, (12, 12, 11, 10, 9, 8, 6, 2, 2, 1, 0, 0))
    dec = zariski_decompose(f, ctx)
    distinct = {step.label for step in dec.trace}
    assert len(dec.trace) > len(distinct) > 1
    assert dec.moving + dec.fixed == f
    assert calls == {"_pairings": 1 + len(distinct)}
    calls.clear()
    assert zariski_decompose(f, ctx) == dec
    assert calls == {"_pairings": 1}


DOUBLE_LINE_NEAR = PointConfig(
    curve_kind="conic",
    points=(Point(1), Point(2), Point(3), Point(4, parent=2)),
    lines=((1, 2, 3, 4),),
    conic_shape=ConicShape("double_line", line_a=0),
)


def test_pencil_exit_matches_class_loop(monkeypatch):
    """A class of degree d >= 0 below a proper point's multiplicity is
    answered from the pencils with no pairing pass, in the step, certificate,
    trace text and reason of the loop on classes; every other class, and
    every class on a flex chain, which has no pencils, goes through the loop
    with its pairing pass."""
    golden = Path(__file__).resolve().parent / "golden" / "configs"
    configs = [
        parse_config(str(path))[0]
        for shape in ("line", "smooth", "two_lines", "double_line")
        for path in sorted(golden.glob(f"{shape}_*.json"))
    ]
    configs += [GOLDEN_CONIC, DOUBLE_LINE_NEAR, smooth_conic_config(12)]
    configs += [flex_config(r) for r in (3, 6, 9, 10, 12)]
    contexts = [make_context(cfg) for cfg in configs]
    calls = Counter()
    original = zariski._pairings

    def counted(*args):
        calls["_pairings"] += 1
        return original(*args)

    monkeypatch.setattr(zariski, "_pairings", counted)
    rng = random.Random(414)
    outcomes = Counter()
    for _ in range(700):
        ctx = rng.choice(contexts)
        config = ctx.config
        on_loop_case = config.curve_kind in ("line", "conic")
        proper = [pt.id - 1 for pt in config.points if pt.parent is None and on_loop_case]
        assert ctx.pencils == tuple(enumerate(proper))
        top = rng.choice((3, 8, 25))
        m = tuple(rng.randint(-3, top) for _ in range(config.r))
        draw = rng.random()
        if draw < 0.6 and max(m) > 0:
            d = rng.randint(0, max(m) - 1)
        elif draw < 0.7:
            d = rng.randint(-2, -1)
        else:
            d = rng.randint(max(max(m), 0), 3 * top)
        f = ClassVector(d, m)
        calls.clear()
        got = zariski_decompose(f, ctx)
        want = class_loop_reference(f, ctx)
        assert got == want, (f, config)
        assert list(map(str, got.trace)) == list(map(str, want.trace))
        head = d >= 0 and any(m[j] > d for j in proper)
        if head:
            assert calls["_pairings"] == 0
            first = next(j for j in proper if m[j] > d)
            (step,) = got.trace
            assert (step.label, step.pairing, step.square, step.copies) == (
                f"L({first + 1})",
                d - m[first],
                0,
                d + 1,
            )
        else:
            assert calls["_pairings"] >= 1
        outcomes[config.curve_kind, config.r == 1, head, type(got).__name__] += 1
    for kind in ("line", "conic"):
        # heads at one point and at several, classes past the head or of
        # negative degree, and effective classes
        assert outcomes[kind, True, True, "NotEffective"] > 10, outcomes
        assert outcomes[kind, False, True, "NotEffective"] > 40, outcomes
        assert outcomes[kind, False, False, "NotEffective"] > 5, outcomes
        assert outcomes[kind, False, False, "ZariskiDecomposition"] > 20, outcomes
    # flex classes below the largest multiplicity, not answered by any exit
    assert outcomes["cubic_flex", False, False, "NotEffective"] > 30, outcomes


def test_pencil_exit_makes_no_pairing(monkeypatch):
    """A class below a proper point's multiplicity costs no sparse pass, no
    ample pairing and no candidate row: its one step comes from the pencil
    of lines through the first such point."""
    ctx = make_context(smooth_conic_config(12))
    calls = Counter()
    originals = {
        "intersect": zariski.intersect,
        "_pairings": zariski._pairings,
        "_row": zariski._row,
    }
    for name, original in originals.items():

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(zariski, name, counted)
    f = ClassVector(5, (3, 7, 6, 2, 9, 0, 0, 0, 1, 1, 1, 1))
    dec = zariski_decompose(f, ctx)
    assert isinstance(dec, NotEffective)
    assert dec.reason == zariski.REASON_DEGREE_NEGATIVE
    (step,) = dec.trace
    assert (step.label, step.pairing, step.square, step.copies, step.rule) == (
        "L(2)",
        -2,
        0,
        6,
        "negative-pairing",
    )
    assert str(step) == "6 x (1; 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) [L(2)]"
    assert calls == {} and ctx.rows == {}


def test_reorder_invariance_of_nef_degree():
    """Permuting proper points permutes the decomposition accordingly: the
    moving part's degree and the fixed part's degree are invariant."""
    base = PointConfig(
        curve_kind="conic",
        points=tuple(Point(i) for i in range(1, 6)),
        conic_shape=ConicShape("smooth"),
    )
    ctx = make_context(base)
    rng = random.Random(406)
    for _ in range(300):
        m = tuple(rng.randint(0, 4) for _ in range(5))
        d = rng.randint(0, 10)
        perm = list(range(5))
        rng.shuffle(perm)
        dec_a = zariski_decompose(ClassVector(d, m), ctx)
        dec_b = zariski_decompose(ClassVector(d, tuple(m[i] for i in perm)), ctx)
        if isinstance(dec_a, NotEffective):
            assert isinstance(dec_b, NotEffective)
            continue
        assert dec_a.moving.d == dec_b.moving.d
        assert sorted(dec_a.moving.m) == sorted(dec_b.moving.m)


def test_uniform_r9_multiples_of_cubic():
    cfg = uniform_config(9, LambdaSpec("order", order=2))
    f = ClassVector(9, (3,) * 9)  # 3 * (-K), restriction degree zero
    dec = zariski_decompose(f, make_context(cfg))
    # one cubic splits off; two more stay mobile since 2 divides 2
    assert dec.fixed == ClassVector(3, (1,) * 9)
    assert dec.moving == ClassVector(6, (2,) * 9)


def test_uniform_r9_positive_degree_is_nef():
    cfg = uniform_config(9)
    f = ClassVector(10, (3,) * 9)
    dec = zariski_decompose(f, make_context(cfg))
    assert dec.moving == f
    assert dec.fixed.is_zero()


def test_uniform_r12_kernel_membership():
    cfg = uniform_config(12)  # trivial kernel
    # 6e0 - 2 sum e_i: restriction degree u = 18 - 24 < 0, lands on 0
    dec = zariski_decompose(ClassVector(6, (2,) * 12), make_context(cfg))
    assert dec.moving.is_zero()
    assert dec.fixed == ClassVector(6, (2,) * 12)


def test_uniform_r12_off_lattice_extra_cubic():
    cfg = uniform_config(12)
    # 8e0 - 2 sum: u = 24 - 24 = 0 but 8e0-2sum is not a multiple of K and
    # the kernel is trivial, so one more cubic comes off
    dec = zariski_decompose(ClassVector(8, (2,) * 12), make_context(cfg))
    assert dec.moving == ClassVector(5, (1,) * 12)
    assert dec.fixed == ClassVector(3, (1,) * 12)


def test_uniform_underdetermined_membership():
    cfg = uniform_config(12, LambdaSpec("order", order=2))
    # u = 0 with a class that is not an exact multiple of K: the order-only
    # spec cannot decide membership
    with pytest.raises(LambdaUnderdeterminedError):
        zariski_decompose(ClassVector(8, (2,) * 12), make_context(cfg))


def test_uniform_negative_multiplicity_rounds_up():
    cfg = uniform_config(10)
    dec = zariski_decompose(ClassVector(4, (-1,) * 10), make_context(cfg))
    assert dec.moving == ClassVector(4, (0,) * 10)
    assert all(step.kind == "exceptional_component" for step in dec.trace)


def test_uniform_not_effective():
    cfg = uniform_config(10)
    dec = zariski_decompose(ClassVector(2, (1,) * 10), make_context(cfg))
    assert isinstance(dec, NotEffective)


def test_flex_forced_cubic_past_nine():
    # past nine points the anticanonical cubic has negative square, so its
    # multiples shed every copy into the fixed part
    cfg = flex_config(10)
    k = canonical_class(10)
    dec = zariski_decompose(-2 * k, make_context(cfg))
    assert dec.moving.is_zero()
    assert dec.fixed == -2 * k
    assert all(step.rule == "forced-anticanonical" for step in dec.trace)
    assert sum(step.copies for step in dec.trace) == 2


def test_flex_chain_step():
    f = ClassVector(3, (1, 1, 1, 1, 1, 1, 1, 1, 0, 1))
    cfg = flex_config(10)
    dec = zariski_decompose(f, make_context(cfg))
    assert dec.moving == ClassVector(3, (1,) * 9 + (0,))
    assert dec.fixed == ClassVector(0, (0,) * 8 + (-1, 1))
    assert is_nef(dec.moving, make_context(cfg))


def test_flex_nef_passthrough():
    cfg = flex_config(10)
    f = ClassVector(3, (1,) * 9 + (0,))
    dec = zariski_decompose(f, make_context(cfg))
    assert dec.fixed.is_zero()


def test_kernel_multiple_data():
    spec = LambdaSpec("order", order=3)
    s, multiple = kernel_multiple_data(7, spec, 9)
    assert (s, multiple) == (1, 2)
    s, multiple = kernel_multiple_data(6, spec, 9)
    assert (s, multiple) == (0, 2)
    s, multiple = kernel_multiple_data(0, LambdaSpec("trivial"), 9)
    assert (s, multiple) == (0, 0)
    s, multiple = kernel_multiple_data(5, LambdaSpec("trivial"), 9)
    assert (s, multiple) == (5, 0)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        zariski_decompose(ClassVector(1, (1,)), make_context(GOLDEN_CONIC))



def non_int_classes(r):
    """Classes of rank r that a coercing constructor would have accepted."""
    m = (1,) * r
    return {
        "float-d": ClassVector(3.0, m),
        "float-m": ClassVector(3, (1.5,) + m[1:]),
        "bool-d": ClassVector(True, m),
        "bool-m": ClassVector(3, (True,) + m[1:]),
        "numpy-d": ClassVector(np.int64(3), m),
        "numpy-m": ClassVector(3, (np.int64(1),) + m[1:]),
        "list-m": ClassVector(3, list(m)),
    }


@pytest.mark.parametrize("kind", list(non_int_classes(1)))
def test_non_int_class_rejected(kind):
    """Classes are never coerced: each public call with a context refuses them."""
    for config in (GOLDEN_CONIC, uniform_config(10), flex_config(6)):
        f = non_int_classes(config.r)[kind]
        ctx = make_context(config)
        for call in (zariski_decompose, h0_any, is_nef, s_of_nef):
            with pytest.raises(ValueError):
                call(f, ctx)
