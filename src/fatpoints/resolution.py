"""Hilbert functions and the two-step graded resolution of fat point ideals.

The pipeline computes the Hilbert function from moving parts, reads off the
generator counts degree by degree, and recovers the relation module from the
Hilbert identity.  For points on a line the same data also comes from a closed
form, kept separate so the two routes can check each other.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .configuration import (
    FatPointScheme,
    check_proximity,
    line_partition_data,
)
from .cohomology import h0_with_decomposition, make_context, regularity_bound
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
            mult = self.shifts[degree]
            if mult < 1:
                raise ValueError(
                    f"multiplicity at degree {degree} must be positive, got {mult}"
                )
            cleaned[int(degree)] = int(mult)
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


def free_module_from_hilbert(delta: Mapping[int, int] | Sequence[int]) -> GradedFreeModule:
    """Free module whose Hilbert function matches ``delta``, degree by degree.

    Greedy from the bottom: whatever the lower generators cannot explain at a
    degree must be new generators there.  Raises ValueError when no free
    module fits.
    """
    if isinstance(delta, Mapping):
        for key in delta:
            if key < 0:
                raise ValueError("inconsistent Hilbert data: negative degree")
        top = max(delta, default=-1)
        values = [int(delta.get(n, 0)) for n in range(top + 1)]
    else:
        values = [int(v) for v in delta]
    shifts: dict[int, int] = {}
    for n, target in enumerate(values):
        residual = target - sum(mult * binom2(n - d + 2) for d, mult in shifts.items())
        if residual < 0:
            raise ValueError(
                f"inconsistent Hilbert data: excess {-residual} at degree {n}"
            )
        if residual:
            shifts[n] = residual
    return GradedFreeModule(shifts)


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

    # one decomposition per degree feeds the sections, generators and traces
    table = [h0_with_decomposition(scheme.to_class(d), context) for d in range(top + 1)]
    answers = [answer for answer, _ in table]
    h_ext = [answer.h0 for answer in answers]
    counts = generator_counts(scheme, answers, context, reg)[: cutoff + 1]
    nu = [count.value for count in counts]
    traces = tuple(
        DegreeTrace(
            d,
            tuple(str(step) for step in dec.trace),
            answer.notes + (f"generator rule: {count.rule}",),
        )
        for d, ((answer, dec), count) in enumerate(zip(table, counts))
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
    delta = [f0.hilbert(n) - h_ext[n] for n in range(top + 1)]
    f1 = free_module_from_hilbert(delta)
    if f0.rank() - f1.rank() != 1:
        raise RuntimeError(
            f"internal error: ranks {f0.rank()} and {f1.rank()} do not differ by one"
        )
    for n in range(top + 1):
        if f0.hilbert(n) - f1.hilbert(n) != h_ext[n]:
            raise RuntimeError(f"internal error: Hilbert identity fails at degree {n}")

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
        if f0.hilbert(n) - f1.hilbert(n) != direct:
            raise RuntimeError(f"internal error: Hilbert identity fails at degree {n}")
        h.append(direct)
    nu = tuple(f0.shifts.get(d, 0) for d in range(cutoff + 1))
    return ResolutionReport(m1, tuple(h[: cutoff + 1]), nu, f0, f1, (), reg, cutoff)


__all__ = [
    "DegreeTrace",
    "GradedFreeModule",
    "ResolutionReport",
    "binom2",
    "free_module_from_hilbert",
    "line_hilbert_direct",
    "line_hilbert_condensed",
    "resolve",
    "resolve_line_closed_form",
]
