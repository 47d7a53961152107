"""Section counts of divisor classes, case by case.

Every path reduces to the Euler characteristic of a nef moving part plus a
correction known in closed form, so the only arithmetic is exact pairing
evaluations.  The same case rule gives the moving part's minimal syzygy
count.  The answers carry short notes naming the rule that produced
them, which the CLI surfaces in traces.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .configuration import FatPointScheme, LambdaSpec, PointConfig, check_proximity, validate
from .lattice import (
    ClassVector,
    anticanonical_degree,
    nef_basis_coefficients,
    zero_class,
)
from .zariski import (
    CaseContext,
    NotEffective,
    SubtractionStep,
    ZariskiDecomposition,
    kernel_multiple_data,
    loop_candidates,
    nef_tail_degree,
    uniform_cubic_rule,
    zariski_decompose,
)

RULE_FLEX_COMPOSITE = "flex-composite"


@dataclass(frozen=True)
class SyzygyAnswer:
    value: int
    rule: str


RATIONAL_NORMAL_SYZYGIES = SyzygyAnswer(0, "rational-normal-restriction")


@dataclass(frozen=True)
class CohomologyAnswer:
    """h0/h1 of a class, the nef moving part used, rule notes, the minimal
    syzygy count of the moving part from the same case rule, and the steps of
    the decomposition behind it (none when the nef rule answered the class).

    h1 and syzygies are None when the class is not effective (nothing forces
    a value there).  Whenever h1 is reported, h0 - h1 equals the Euler
    characteristic of the queried class.
    """

    h0: int
    h1: int | None
    moving_part: ClassVector
    notes: tuple[str, ...]
    syzygies: SyzygyAnswer | None
    trace: tuple[SubtractionStep, ...] = ()


def make_context(config: PointConfig) -> CaseContext:
    """Validate ``config`` and collect the candidates its decompositions
    subtract, once for every class of the case."""
    validate(config)
    return CaseContext(config, loop_candidates(config))


def chi(f: ClassVector) -> int:
    """Euler characteristic (F.F - K.F)/2 + 1."""
    # the numerator d(d+3) - sum(m(m+1)) is a sum of even products
    return (f.square() + anticanonical_degree(f)) // 2 + 1


def regularity_bound(scheme: FatPointScheme) -> int:
    """Degree bound past which the ideal sheaf twist has no first cohomology."""
    check_proximity(scheme)
    return sum(scheme.multiplicities) - 1


def regularity_index(scheme: FatPointScheme, h0s: Sequence[int]) -> int:
    """The least degree from which h1 = h0 - chi stays 0, where ``h0s[d]``
    is the scheme's section count in degree d."""
    return max(
        (d + 1 for d, h0 in enumerate(h0s) if h0 != chi(scheme.to_class(d))), default=0
    )


def uniform_syzygies(h: ClassVector, spec: LambdaSpec) -> SyzygyAnswer:
    """Syzygy count for a nef uniform class on a smooth cubic with kernel
    ``spec``."""
    mk = anticanonical_degree(h)
    if mk < 0:
        raise ValueError(f"s_of_nef expects a nef class, got {h}")
    if mk > 1:
        return SyzygyAnswer(0, "uniform-ample-restriction")
    if mk == 1:
        return SyzygyAnswer(1, "uniform-degree-one-restriction")
    if h.is_zero():
        return SyzygyAnswer(0, "uniform-zero-class")
    if h.r == 10:
        return SyzygyAnswer(1, "uniform-ten-point-boundary")
    if h.r > 10:
        return SyzygyAnswer(0, "uniform-trivial-restriction")
    # r == 9 and mk == 0 force a multiple (3c; c^9) of the cubic.
    c = h.m[0]
    if c < 0:
        raise ValueError(f"s_of_nef expects a moving part, got {h}")
    shift, multiple = kernel_multiple_data(c, spec, 9)
    if shift:
        raise ValueError(f"{h} is not a moving part for the given kernel")
    # c is `multiple` times the least kernel order, and each multiple adds
    # 3 * (order - 1) syzygies
    return SyzygyAnswer(3 * (c - multiple), "uniform-kernel-multiple")


def _flex_syzygies(a: tuple[int, ...], mk: int) -> SyzygyAnswer:
    """The fixed-locus rule for a composite nef flex class with nef-basis
    coordinates ``a`` and -K pairing ``mk``, else the nef table."""
    r = len(a) - 1
    # a is nonnegative, so any() tests for a positive coordinate
    if r >= 9 and a[8] == 1 and any(a[9:11]) and not any(a[:8] + a[11:]):
        return SyzygyAnswer(a[9] + 1, RULE_FLEX_COMPOSITE)
    j = max((i for i, v in enumerate(a) if v > 0), default=0)
    boundary = mk == 1 or (mk == 0 and j == 10)
    if any(a[:8]):
        if boundary:
            return SyzygyAnswer(1, "flex-low-index-boundary")
        return SyzygyAnswer(0, "flex-low-index")
    b8 = a[8] if r >= 8 else 0
    if b8 == 0:
        return SyzygyAnswer(0, "flex-kernel-multiples")
    if b8 == 1:
        return SyzygyAnswer(1, "flex-cubic-pencil")
    if boundary:
        return SyzygyAnswer(2, "flex-high-index-boundary")
    return SyzygyAnswer(1, "flex-high-index")


def _flex_base_locus_note(f: ClassVector, a: tuple[int, ...], mk: int) -> str:
    r = f.r
    positive = [i for i, v in enumerate(a) if v > 0]
    if not positive:
        return "base-point free"
    j = max(positive)

    def only(indices: tuple[int, ...]) -> bool:
        return all(v == 0 for i, v in enumerate(a) if i not in indices)

    if r >= 10 and a[8] == 1 and a[10] == 1 and only((8, 9, 10)):
        return "base locus is the component E9 - E10"
    if r >= 9 and a[8] == 1 and a[9] > 0 and only((8, 9)):
        return "base locus is the exceptional divisor E9"
    if r >= 8 and a[8] == 1 and only((8,)):
        return "nonempty base locus: pencil of cubics through the chain"
    if mk == 1:
        if j == r:
            return "base locus is one point"
        return f"base locus is the exceptional divisor E{j + 1}"
    return "base-point free"


def h0_flex(f: ClassVector) -> CohomologyAnswer:
    """Sections and syzygy count of a nef class for a chain of points at a
    flex of a cubic."""
    coeffs = nef_basis_coefficients(f)
    mk = coeffs.minus_k_pairing
    if min(coeffs.a) < 0 or mk < 0:
        raise ValueError(f"h0_flex requires a nef class, got {f}")
    if mk >= 1:
        h1 = 0
        note = "nef with positive restriction degree"
    elif f.square() > 0:
        h1 = 1
        note = "nef with restriction degree zero and positive square"
    else:
        # f is m[0] copies of the nine-point cubic class, and h1 is f.E1
        h1 = f.m[0]
        note = "multiple of the nine-point cubic class"
    h0 = chi(f) + h1
    if h0 < 0:
        raise RuntimeError(f"internal error: negative section count for {f}")
    notes = (note, _flex_base_locus_note(f, coeffs.a, mk))
    return CohomologyAnswer(h0, h1, f, notes, _flex_syzygies(coeffs.a, mk))


def h0_nef(f: ClassVector, context: CaseContext) -> CohomologyAnswer:
    """The nef rule of a line, conic or flex chain, for a class known to be
    nef there: chi on a line or conic, ``h0_flex`` on a flex chain."""
    if context.config.curve_kind == "cubic_flex":
        return h0_flex(f)
    return CohomologyAnswer(
        chi(f), 0, f, ("nef moving part is regular",), RATIONAL_NORMAL_SYZYGIES
    )


def h0_with_decomposition(
    f: ClassVector, context: CaseContext
) -> tuple[CohomologyAnswer, ZariskiDecomposition | NotEffective]:
    """One decomposition pass feeding the section and syzygy counts and the trace."""
    if context.config.curve_kind == "cubic_uniform":
        rule = uniform_cubic_rule(f, context)
        dec = rule.decomposition
        if isinstance(dec, NotEffective):
            return CohomologyAnswer(0, None, zero_class(f.r), rule.notes, None, dec.trace), dec
        h0, notes = chi(dec.moving) + rule.extra_sections, rule.notes
        syzygies = uniform_syzygies(dec.moving, context.config.lambda_spec)
    else:
        dec = zariski_decompose(f, context)
        if isinstance(dec, NotEffective):
            notes = (f"not effective: {dec.reason}",)
            return CohomologyAnswer(0, None, zero_class(f.r), notes, None, dec.trace), dec
        base = h0_nef(dec.moving, context)
        h0, notes, syzygies = base.h0, base.notes, base.syzygies
    h1 = h0 - chi(f)
    if h1 < 0:
        raise RuntimeError(f"internal error: negative h1 for {f}")
    return CohomologyAnswer(h0, h1, dec.moving, notes, syzygies, dec.trace), dec


def h0_any(f: ClassVector, context: CaseContext) -> CohomologyAnswer:
    return h0_with_decomposition(f, context)[0]


def section_answers(
    scheme: FatPointScheme, context: CaseContext, degrees: Iterable[int]
) -> list[CohomologyAnswer]:
    """The section answers of the scheme's classes in ``degrees``, the one
    per-degree path: each degree below ``nef_tail_degree`` is decomposed once,
    through ``h0_any``, and from it on the nef rule answers with no trace."""
    tail = nef_tail_degree(scheme, context)
    return [
        (h0_any if tail is None or d < tail else h0_nef)(scheme.to_class(d), context)
        for d in degrees
    ]


__all__ = [
    "CaseContext",
    "CohomologyAnswer",
    "SyzygyAnswer",
    "chi",
    "h0_any",
    "h0_flex",
    "h0_nef",
    "h0_with_decomposition",
    "make_context",
    "regularity_bound",
    "regularity_index",
    "section_answers",
]
