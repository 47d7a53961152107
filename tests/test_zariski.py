import random
from collections import Counter
from pathlib import Path

import pytest

from fatpoints import zariski
from fatpoints.cli import parse_config
from fatpoints.cohomology import make_context
from fatpoints.configuration import (
    ConicShape,
    LambdaSpec,
    LambdaUnderdeterminedError,
    Point,
    PointConfig,
)
from fatpoints.lattice import (
    ClassVector,
    canonical_class,
    intersect,
    nef_basis_class,
    nef_basis_coefficients,
    zero_class,
)
from fatpoints.zariski import (
    NotEffective,
    is_nef,
    kernel_multiple_data,
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
    """A nef class costs one ample pairing plus one scan of the candidates:
    the scan that ends the loop also decides nefness."""
    ctx = make_context(smooth_conic_config(12))
    calls = []
    original = zariski.intersect

    def counted(f, g):
        calls.append((f, g))
        return original(f, g)

    monkeypatch.setattr(zariski, "intersect", counted)
    f = ClassVector(6, (1,) * 12)
    dec = zariski_decompose(f, ctx)
    assert dec.moving == f and dec.trace == ()
    assert len(calls) == len(ctx.candidates) + 1


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
