"""Section counts of divisor classes, case by case.

Every path reduces to the Euler characteristic of a nef moving part plus a
correction known in closed form, so the only arithmetic is exact pairing
evaluations.  The answers carry short notes naming the rule that produced
them, which the CLI surfaces in traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configuration import FatPointScheme, PointConfig, check_proximity, validate
from .lattice import (
    ClassVector,
    anticanonical_degree,
    nef_basis_coefficients,
    zero_class,
)
from .zariski import (
    CaseContext,
    NotEffective,
    ZariskiDecomposition,
    loop_candidates,
    uniform_cubic_rule,
    zariski_decompose,
)


@dataclass(frozen=True)
class CohomologyAnswer:
    """h0/h1 of a class, the nef moving part used, and rule notes.

    h1 is None when the class is not effective (nothing forces a value there).
    Whenever h1 is reported, h0 - h1 equals the Euler characteristic of the
    queried class.
    """

    h0: int
    h1: int | None
    moving_part: ClassVector
    notes: tuple[str, ...]


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


def _not_effective_answer(f: ClassVector, reason: str) -> CohomologyAnswer:
    return CohomologyAnswer(0, None, zero_class(f.r), (f"not effective: {reason}",))


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
    """Sections of a nef class for a chain of points at a flex of a cubic."""
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
    return CohomologyAnswer(h0, h1, f, (note, _flex_base_locus_note(f, coeffs.a, mk)))


def h0_with_decomposition(
    f: ClassVector, context: CaseContext
) -> tuple[CohomologyAnswer, ZariskiDecomposition | NotEffective]:
    """One decomposition pass feeding both the section count and the trace."""
    kind = context.config.curve_kind
    if kind == "cubic_uniform":
        rule = uniform_cubic_rule(f, context)
        dec = rule.decomposition
        if isinstance(dec, NotEffective):
            return CohomologyAnswer(0, None, zero_class(f.r), rule.notes), dec
        h0, notes = chi(dec.moving) + rule.extra_sections, rule.notes
    else:
        dec = zariski_decompose(f, context)
        if isinstance(dec, NotEffective):
            return _not_effective_answer(f, dec.reason), dec
        if kind == "cubic_flex":
            base = h0_flex(dec.moving)
            h0, notes = base.h0, base.notes
        else:
            h0, notes = chi(dec.moving), ("nef moving part is regular",)
    h1 = h0 - chi(f)
    if h1 < 0:
        raise RuntimeError(f"internal error: negative h1 for {f}")
    return CohomologyAnswer(h0, h1, dec.moving, notes), dec


def h0_any(f: ClassVector, context: CaseContext) -> CohomologyAnswer:
    return h0_with_decomposition(f, context)[0]


__all__ = [
    "CaseContext",
    "CohomologyAnswer",
    "chi",
    "h0_any",
    "h0_flex",
    "h0_with_decomposition",
    "make_context",
    "regularity_bound",
]
