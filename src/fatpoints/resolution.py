"""Hilbert functions and the two-step graded resolution of fat point ideals.

The pipeline computes the Hilbert function from moving parts, reads off the
generator counts degree by degree, and recovers the relation module from the
third difference of the Hilbert function.  For points on a line the same data
also comes from a closed form, kept separate so the two routes can check each
other.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .configuration import (
    FatPointScheme,
    check_proximity,
    line_partition_data,
)
from .cohomology import make_context, regularity_bound, section_answers
from .syzygy import generator_counts


def binom2(a: int) -> int:
    """Binomial coefficient (a choose 2), zero below a = 2."""
    return a * (a - 1) // 2 if a >= 2 else 0


@dataclass(frozen=True)
class GradedFreeModule:
    """Direct sum of shifted copies of the coordinate ring.

    ``shifts`` maps a generator degree d to the multiplicity of R[-d].
    """

    shifts: dict[int, int]

    def __post_init__(self) -> None:
        cleaned: dict[int, int] = {}
        for degree in sorted(self.shifts):
            # operator.index refuses a float instead of truncating it
            mult = operator.index(self.shifts[degree])
            if mult < 1:
                raise ValueError(
                    f"multiplicity at degree {degree} must be positive, got {mult}"
                )
            cleaned[operator.index(degree)] = mult
        object.__setattr__(self, "shifts", cleaned)

    def rank(self) -> int:
        return sum(self.shifts.values())

    def hilbert(self, n: int) -> int:
        return sum(mult * binom2(n - d + 2) for d, mult in self.shifts.items())

    def __str__(self) -> str:
        if not self.shifts:
            return "0"
        parts = []
        for d, mult in self.shifts.items():
            parts.append(f"R[{-d}]" + (f"^{mult}" if mult > 1 else ""))
        return " + ".join(parts)


def _third_difference(h: Sequence[int]) -> list[int]:
    """f0(n) - f1(n) for 0 -> F1 -> F0 -> I -> 0, where h(n) = dim I_n.

    Each R[-d] has Hilbert series t^d / (1-t)^3, so (1-t)^3 times the Hilbert
    series of I is the sum of (f0(n) - f1(n)) t^n: the third difference of h,
    taking h(-1) = h(-2) = h(-3) = 0.
    """
    padded = [0, 0, 0, *h]
    return [
        padded[n + 3] - 3 * padded[n + 2] + 3 * padded[n + 1] - padded[n]
        for n in range(len(h))
    ]


@dataclass(frozen=True)
class DegreeTrace:
    degree: int
    subtracted: tuple[str, ...]
    rules: tuple[str, ...]


@dataclass(frozen=True)
class ResolutionReport:
    alpha: int
    h: tuple[int, ...]
    nu: tuple[int, ...]
    f0: GradedFreeModule
    f1: GradedFreeModule
    traces: tuple[DegreeTrace, ...]
    regularity: int
    cutoff: int


def resolve(scheme: FatPointScheme) -> ResolutionReport:
    """Hilbert function, generator degrees, and both resolution modules."""
    # regularity_bound checks the proximity inequalities first
    reg = regularity_bound(scheme)
    context = make_context(scheme.config)
    cutoff = reg + 2
    top = cutoff + 3

    answers = section_answers(scheme, context, range(top + 1))
    h_ext = [answer.h0 for answer in answers]
    counts = generator_counts(scheme, answers, reg)[: cutoff + 1]
    nu = [count.value for count in counts]
    traces = tuple(
        DegreeTrace(
            d,
            tuple(map(str, answer.trace)),
            answer.notes + (f"generator rule: {count.rule}",),
        )
        for d, (answer, count) in enumerate(zip(answers, counts))
    )

    alpha = next((d for d, v in enumerate(h_ext) if v > 0), None)
    if alpha is None or alpha > cutoff:
        raise RuntimeError("internal error: no sections up to the cutoff")
    if nu[alpha] != h_ext[alpha]:
        raise RuntimeError(
            f"internal error: {nu[alpha]} generators in the initial degree "
            f"{alpha} against {h_ext[alpha]} sections"
        )

    f0 = GradedFreeModule({d: v for d, v in enumerate(nu) if v})
    f1_counts = [v - d3 for v, d3 in zip(nu + [0] * 3, _third_difference(h_ext))]
    for n, v in enumerate(f1_counts):
        if v < 0:
            raise RuntimeError(f"internal error: Hilbert identity fails at degree {n}")
    f1 = GradedFreeModule({n: v for n, v in enumerate(f1_counts) if v})
    if f0.rank() - f1.rank() != 1:
        raise RuntimeError(
            f"internal error: ranks {f0.rank()} and {f1.rank()} do not differ by one"
        )

    return ResolutionReport(
        alpha,
        tuple(h_ext[: cutoff + 1]),
        tuple(nu),
        f0,
        f1,
        traces,
        reg,
        cutoff,
    )


def line_hilbert_direct(multiplicities: Sequence[int], n: int) -> int:
    """Closed-form Hilbert value for collinear points, one term per generator."""
    data = line_partition_data(multiplicities)
    return _line_direct(multiplicities[0], Counter(data.a), n)


def line_hilbert_condensed(multiplicities: Sequence[int], n: int) -> int:
    """Closed-form Hilbert value for collinear points, top block merged."""
    data = line_partition_data(multiplicities)
    return _line_condensed(multiplicities, data.a, n)


def _line_direct(m1: int, a_counts: Counter[int], n: int) -> int:
    # generators of equal degree a_i share one term, weighted by their count
    return binom2(n - m1 + 2) + sum(
        count * (binom2(n - ai + 2) - binom2(n - ai + 1)) for ai, count in a_counts.items()
    )


def _line_condensed(multiplicities: Sequence[int], a: Sequence[int], n: int) -> int:
    m1 = multiplicities[0]
    m2 = multiplicities[1] if len(multiplicities) >= 2 else 0
    head = (m1 - m2 + 1) * binom2(n - m1 + 2) - (m1 - m2) * binom2(n - m1 + 1)
    return head + sum(binom2(n - a[i] + 2) - binom2(n - a[i] + 1) for i in range(m2))


def resolve_line_closed_form(scheme: FatPointScheme) -> ResolutionReport:
    """Resolution of collinear fat points straight from the partition data.

    Wants multiplicities sorted in weakly decreasing order with no zeros;
    reorder the scheme first if needed.
    """
    if scheme.config.curve_kind != "line":
        raise ValueError(
            f"closed form covers points on a line, not {scheme.config.curve_kind}"
        )
    check_proximity(scheme)
    mults = scheme.multiplicities
    data = line_partition_data(mults)
    m1 = mults[0]
    a_counts = Counter(data.a)

    f0_shifts = Counter({m1: 1}) + a_counts
    f1_shifts = Counter({ai + 1: count for ai, count in a_counts.items()})
    f0 = GradedFreeModule(dict(f0_shifts))
    f1 = GradedFreeModule(dict(f1_shifts))

    reg = sum(mults) - 1
    cutoff = reg + 2
    h = []
    for n in range(cutoff + 4):
        direct = _line_direct(m1, a_counts, n)
        if direct != _line_condensed(mults, data.a, n):
            raise RuntimeError(f"internal error: the two line formulas split at {n}")
        h.append(direct)
    for n, d3 in enumerate(_third_difference(h)):
        if f0_shifts[n] - f1_shifts[n] != d3:
            raise RuntimeError(f"internal error: Hilbert identity fails at degree {n}")
    nu = tuple(f0.shifts.get(d, 0) for d in range(cutoff + 1))
    return ResolutionReport(m1, tuple(h[: cutoff + 1]), nu, f0, f1, (), reg, cutoff)


__all__ = [
    "DegreeTrace",
    "GradedFreeModule",
    "ResolutionReport",
    "binom2",
    "line_hilbert_direct",
    "line_hilbert_condensed",
    "resolve",
    "resolve_line_closed_form",
]
