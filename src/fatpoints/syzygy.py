"""Counts of minimal first-syzygy generators degree by degree.

The dimension in question is the cokernel rank of the multiplication map from
sections in one degree (tensored with the linear forms) to sections one degree
up.  For nef classes the case rules give it outright; for everything else a
fixed-part bookkeeping identity reduces to the nef answer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .configuration import FatPointScheme, UnsupportedRuleError
from .lattice import ClassVector, anticanonical_degree, nef_basis_coefficients
from .cohomology import (
    CaseContext,
    CohomologyAnswer,
    chi,
    h0_any,
    make_context,
    regularity_bound,
)
from .zariski import check_rank, check_uniform_class, kernel_multiple_data

RULE_BEYOND_REGULARITY = "beyond-regularity"
RULE_INITIAL_GENERATORS = "initial-generators"
RULE_FLEX_COMPOSITE = "flex-composite"


@dataclass(frozen=True)
class SyzygyAnswer:
    value: int
    rule: str


def _uniform_nef_answer(h: ClassVector, context: CaseContext) -> SyzygyAnswer:
    check_uniform_class(h)
    r = h.r
    mk = anticanonical_degree(h)
    if mk < 0:
        raise ValueError(f"s_of_nef expects a nef class, got {h}")
    if mk > 1:
        return SyzygyAnswer(0, "uniform-ample-restriction")
    if mk == 1:
        return SyzygyAnswer(1, "uniform-degree-one-restriction")
    if h.is_zero():
        return SyzygyAnswer(0, "uniform-zero-class")
    if r == 10:
        return SyzygyAnswer(1, "uniform-ten-point-boundary")
    if r > 10:
        return SyzygyAnswer(0, "uniform-trivial-restriction")
    # r == 9 and mk == 0 force a multiple (3c; c^9) of the cubic.
    c = h.m[0]
    if c < 0:
        raise ValueError(f"s_of_nef expects a moving part, got {h}")
    shift, multiple = kernel_multiple_data(c, context.config.lambda_spec, 9)
    if shift:
        raise ValueError(f"{h} is not a moving part for the given kernel")
    # c is `multiple` times the least kernel order, and each multiple adds
    # 3 * (order - 1) syzygies
    return SyzygyAnswer(3 * (c - multiple), "uniform-kernel-multiple")


def _is_flex_composite(a: tuple[int, ...], r: int) -> bool:
    if r < 9 or a[8] != 1:
        return False
    tail = a[9] + (a[10] if r >= 10 else 0)
    if tail == 0:
        return False
    return all(v == 0 for i, v in enumerate(a) if i not in (8, 9, 10))


def _flex_nef_answer(h: ClassVector) -> SyzygyAnswer:
    """The fixed-locus rule for a composite nef flex class, else the nef
    table, both from one solve for the nef-basis coordinates."""
    coeffs = nef_basis_coefficients(h)
    a, mk, r = coeffs.a, coeffs.minus_k_pairing, h.r
    if min(a) < 0 or mk < 0:
        raise ValueError(f"s_of_nef expects a nef class, got {h}")
    if _is_flex_composite(a, r):
        return SyzygyAnswer(a[9] + 1, RULE_FLEX_COMPOSITE)
    j = max((i for i, v in enumerate(a) if v > 0), default=0)
    boundary = mk == 1 or (mk == 0 and j == 10)
    if any(a[i] > 0 for i in range(min(8, r + 1))):
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


def s_of_nef(h: ClassVector, context: CaseContext) -> SyzygyAnswer:
    """Syzygy count for a nef moving part, straight from the case rules."""
    check_rank(h, context.config)
    kind = context.config.curve_kind
    if kind in ("line", "conic"):
        return SyzygyAnswer(0, "rational-normal-restriction")
    if kind == "cubic_uniform":
        return _uniform_nef_answer(h, context)
    if kind == "cubic_flex":
        answer = _flex_nef_answer(h)
        if answer.rule == RULE_FLEX_COMPOSITE:
            raise ValueError(
                f"{h} is a cubic pencil class plus kernel multiples; its syzygy "
                "count comes from the fixed-locus rule, not the nef table"
            )
        return answer
    raise UnsupportedRuleError(f"no syzygy rules for curve kind {kind}")


def s_dim(scheme: FatPointScheme, d: int, context: CaseContext | None = None) -> SyzygyAnswer:
    """Number of minimal syzygies in degree d+1 of the scheme's ideal."""
    if context is None:
        context = make_context(scheme.config)
    # regularity_bound checks the proximity inequalities first
    reg = regularity_bound(scheme)
    if d > reg:
        return SyzygyAnswer(0, RULE_BEYOND_REGULARITY)
    up = h0_any(scheme.to_class(d + 1), context).h0
    f = scheme.to_class(d)
    return _generator_count(f, h0_any(f, context), up, context, reg)


def generator_counts(
    scheme: FatPointScheme,
    answers: Sequence[CohomologyAnswer],
    context: CaseContext,
    reg: int,
) -> tuple[SyzygyAnswer, ...]:
    """Minimal generators in each degree d, where ``answers[d]`` is the
    section answer of the scheme's degree-d class.

    The count in degree d is ``s_dim`` at d - 1.  No class of negative
    degree is effective, so degree zero's generators are its sections.
    """
    counts = [SyzygyAnswer(answers[0].h0, RULE_INITIAL_GENERATORS)]
    counts += (
        _generator_count(scheme.to_class(d), here, up.h0, context, reg)
        for d, (here, up) in enumerate(zip(answers, answers[1:]))
    )
    return tuple(counts)


def _generator_count(
    f: ClassVector, here: CohomologyAnswer, up: int, context: CaseContext, reg: int
) -> SyzygyAnswer:
    """Syzygies in degree f.d + 1 from the section answer ``here`` of the
    degree-d class f, the sections ``up`` in degree d+1, and the regularity
    bound ``reg``."""
    if f.d > reg:
        return SyzygyAnswer(0, RULE_BEYOND_REGULARITY)
    if here.h1 is None:
        # not effective
        return SyzygyAnswer(up, RULE_INITIAL_GENERATORS)
    moving = here.moving_part
    if context.config.curve_kind == "cubic_flex":
        base = _flex_nef_answer(moving)
    else:
        base = s_of_nef(moving, context)
    # moving + e0 is nef and regular: on a line or conic every nef class is,
    # and on the cubic it has restriction degree at least 3, where the cubic
    # rules give h1 = 0 too.  So its sections are chi, with no decomposition,
    # and adding e0 raises chi by d + 2.
    moving_up = chi(moving) + moving.d + 2
    value = base.value + up - moving_up
    if value < 0:
        raise RuntimeError(f"internal error: negative syzygy count at degree {f.d}")
    rule = base.rule if moving == f else base.rule + "+fixed-part"
    return SyzygyAnswer(value, rule)


__all__ = [
    "SyzygyAnswer",
    "s_dim",
    "s_of_nef",
]
