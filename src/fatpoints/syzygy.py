"""Counts of minimal first-syzygy generators degree by degree.

The dimension in question is the cokernel rank of the multiplication map from
sections in one degree (tensored with the linear forms) to sections one degree
up.  Each section answer carries the count for its nef moving part, from the
case rule that gave its sections; a fixed-part bookkeeping identity turns that
into the count for the class itself.
"""

from __future__ import annotations

from collections.abc import Sequence

from .configuration import FatPointScheme
from .lattice import ClassVector
from .cohomology import (
    CaseContext,
    CohomologyAnswer,
    SyzygyAnswer,
    chi,
    make_context,
    regularity_bound,
    section_answers,
)

RULE_BEYOND_REGULARITY = "beyond-regularity"
RULE_INITIAL_GENERATORS = "initial-generators"


def s_of_nef(h: ClassVector, context: CaseContext) -> SyzygyAnswer:
    """Syzygy count for a nef moving part, straight from the case rules."""
    context.check(h)
    return context.syzygies(h)


def s_dim(scheme: FatPointScheme, d: int, context: CaseContext | None = None) -> SyzygyAnswer:
    """Number of minimal syzygies in degree d+1 of the scheme's ideal."""
    if context is None:
        context = make_context(scheme.config)
    # regularity_bound checks the proximity inequalities first
    reg = regularity_bound(scheme)
    if d > reg:
        return SyzygyAnswer(0, RULE_BEYOND_REGULARITY)
    here, up = section_answers(scheme, context, range(d, d + 2))
    return _generator_count(d, scheme.multiplicities, here, up.h0, reg)


def generator_counts(
    scheme: FatPointScheme, answers: Sequence[CohomologyAnswer], reg: int
) -> tuple[SyzygyAnswer, ...]:
    """Minimal generators in each degree d, where ``answers[d]`` is the
    section answer of the scheme's degree-d class.

    The count in degree d is ``s_dim`` at d - 1.  No class of negative
    degree is effective, so degree zero's generators are its sections.
    """
    counts = [SyzygyAnswer(answers[0].h0, RULE_INITIAL_GENERATORS)]
    mults = scheme.multiplicities
    counts += (
        _generator_count(d, mults, here, up.h0, reg)
        for d, (here, up) in enumerate(zip(answers, answers[1:]))
    )
    return tuple(counts)


def _generator_count(
    d: int, mults: tuple[int, ...], here: CohomologyAnswer, up: int, reg: int
) -> SyzygyAnswer:
    """Syzygies in degree d + 1 from the section answer ``here`` of the class
    (d; mults), the sections ``up`` in degree d+1, and the regularity bound
    ``reg``."""
    if d > reg:
        return SyzygyAnswer(0, RULE_BEYOND_REGULARITY)
    base = here.syzygies
    if base is None:
        # not effective
        return SyzygyAnswer(up, RULE_INITIAL_GENERATORS)
    moving = here.moving_part
    # moving + e0 is nef and regular: on a line or conic every nef class is,
    # and on the cubic it has restriction degree at least 3, where the cubic
    # rules give h1 = 0 too.  So its sections are chi, with no decomposition,
    # and adding e0 raises chi by d + 2.
    moving_up = chi(moving) + moving.d + 2
    value = base.value + up - moving_up
    if value < 0:
        raise RuntimeError(f"internal error: negative syzygy count at degree {d}")
    # the fixed part is zero exactly when the moving part is the class itself
    fixed_free = moving.d == d and moving.m == mults
    rule = base.rule if fixed_free else base.rule + "+fixed-part"
    return SyzygyAnswer(value, rule)


__all__ = [
    "SyzygyAnswer",
    "s_dim",
    "s_of_nef",
]
