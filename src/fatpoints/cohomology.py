"""Section counts of divisor classes, case by case.

``make_context`` picks the case of a configuration from one table: lines and
conics, flex chains, or the uniform cubic.  Each case is a ``CaseContext``
subclass that holds its candidates and its rules.  Every path reduces to the
Euler characteristic of a nef moving part plus a correction known in closed
form, so the only arithmetic is exact pairing evaluations.  The same case
rule gives the moving part's minimal syzygy count.  The answers carry short
notes naming the rule that produced them, which the CLI surfaces in traces.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .configuration import (
    FatPointScheme,
    LambdaSpec,
    PointConfig,
    UnsupportedRuleError,
    check_proximity,
    validate,
)
from .lattice import (
    ClassVector,
    anticanonical_degree,
    canonical_class,
    exceptional_class,
    intersect,
    nef_basis_coefficients,
    zero_class,
)
from .negcurves import (
    KIND_CUBIC,
    KIND_EXCEPTIONAL,
    KIND_LINE,
    NegativeCurve,
    flex_candidate_fixed_classes,
    line_class,
    negative_curves,
)
from .zariski import (
    CaseContext,
    NotEffective,
    SubtractionStep,
    ZariskiDecomposition,
    nef_tail_degree,
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


# a section answer with the decomposition behind it
Sections = tuple[CohomologyAnswer, ZariskiDecomposition | NotEffective]


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


def _answer(
    f: ClassVector, dec: ZariskiDecomposition | NotEffective, h0: int,
    notes: tuple[str, ...], syzygies: SyzygyAnswer | None,
) -> Sections:
    """The section answer of ``f`` with ``h0`` sections and its decomposition
    ``dec``; a class that is not effective has no sections, h1 or syzygies."""
    if isinstance(dec, NotEffective):
        return CohomologyAnswer(0, None, zero_class(f.r), notes, None, dec.trace), dec
    h1 = h0 - chi(f)
    if h1 < 0:
        raise RuntimeError(f"internal error: negative h1 for {f}")
    return CohomologyAnswer(h0, h1, dec.moving, notes, syzygies, dec.trace), dec


class LineConicCase(CaseContext):
    """Points on a line or a conic.  The loop subtracts the pencils of lines
    through the proper points, then the enumerated negative curves; every
    nef class is regular, with chi sections and the syzygies of its
    rational normal restriction."""

    def find_candidates(self) -> Iterable[NegativeCurve]:
        # The lines through a proper point form a pencil of square zero, so
        # the enumeration omits it.  The pencil is nef, so a class meeting it
        # negatively is not effective (a fat point of multiplicity above the
        # degree), and its copies drive the degree negative in one step.  It
        # comes first: past it, a line and an exceptional class would trade
        # single copies until the degree turned negative.
        config, r = self.config, self.config.r
        pencils = [
            NegativeCurve(line_class((pt.id,), r), KIND_LINE, f"L({pt.id})")
            for pt in config.points
            if pt.parent is None
        ]
        return [*pencils, *negative_curves(config)]

    def sections(self, f: ClassVector) -> Sections:
        dec = zariski_decompose(f, self)
        if isinstance(dec, NotEffective):
            return _answer(f, dec, 0, (f"not effective: {dec.reason}",), None)
        base = self.nef_sections(dec.moving)
        return _answer(f, dec, base.h0, base.notes, base.syzygies)

    def nef_sections(self, f: ClassVector) -> CohomologyAnswer:
        notes = ("nef moving part is regular",)
        return CohomologyAnswer(chi(f), 0, f, notes, RATIONAL_NORMAL_SYZYGIES)

    def syzygies(self, h: ClassVector) -> SyzygyAnswer:
        return RATIONAL_NORMAL_SYZYGIES


class FlexCase(LineConicCase):
    """A chain of points at a flex of a cubic: the loop of lines and conics
    over the classes dual to the nef basis, with ``h0_flex`` as nef rule."""

    def find_candidates(self) -> Iterable[NegativeCurve]:
        return flex_candidate_fixed_classes(self.config.r)

    def nef_sections(self, f: ClassVector) -> CohomologyAnswer:
        return h0_flex(f)

    def syzygies(self, h: ClassVector) -> SyzygyAnswer:
        answer = h0_flex(h).syzygies
        if answer.rule == RULE_FLEX_COMPOSITE:
            raise ValueError(
                f"{h} is a cubic pencil class plus kernel multiples; its syzygy "
                "count comes from the fixed-locus rule, not the nef table"
            )
        return answer


class UniformCubicCase(CaseContext):
    """Uniform multiplicities at r >= 9 general points of a smooth cubic,
    answered by the closed form ``_rule``.  Its one candidate is the cubic
    D = -K, whose copies the rule takes; a near point is refused."""

    def find_candidates(self) -> Iterable[NegativeCurve]:
        near = [pt.id for pt in self.config.points if pt.parent is not None]
        if near:
            raise UnsupportedRuleError(
                f"p{near[0]} is a near point on the uniform cubic, whose rules "
                "cover proper points only"
            )
        return [NegativeCurve(-canonical_class(self.config.r), KIND_CUBIC, "D")]

    def check(self, f: ClassVector) -> None:
        super().check(f)
        if f.r < 9:
            reason = "rules for points on a smooth cubic need at least nine points"
            raise UnsupportedRuleError(reason)
        if len(set(f.m)) > 1:
            raise UnsupportedRuleError(
                f"only uniform multiplicities are supported on a smooth cubic, got {f.m}"
            )

    def nef(self, f: ClassVector) -> bool:
        m = f.m[0]
        return m >= 0 and f.d >= 3 * m and anticanonical_degree(f) >= 0

    def tail(self, f0: ClassVector) -> None:
        return None

    def decompose(self, f: ClassVector) -> ZariskiDecomposition | NotEffective:
        return self._rule(f)[0]

    def sections(self, f: ClassVector) -> Sections:
        self.check(f)
        dec, extra, notes = self._rule(f)
        if isinstance(dec, NotEffective):
            return _answer(f, dec, 0, notes, None)
        return _answer(f, dec, chi(dec.moving) + extra, notes, self.syzygies(dec.moving))

    def nef_sections(self, f: ClassVector) -> CohomologyAnswer:
        return self.sections(f)[0]

    def syzygies(self, h: ClassVector) -> SyzygyAnswer:
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
        shift, multiple = kernel_multiple_data(c, self.config.lambda_spec, 9)
        if shift:
            raise ValueError(f"{h} is not a moving part for the given kernel")
        # c is `multiple` times the least kernel order, and each multiple adds
        # 3 * (order - 1) syzygies
        return SyzygyAnswer(3 * (c - multiple), "uniform-kernel-multiple")

    def _rule(
        self, f: ClassVector
    ) -> tuple[ZariskiDecomposition | NotEffective, int, tuple[str, ...]]:
        """The rule for t*e0 + m*(-K): the decomposition, the extra sections
        over chi(moving part) and the notes naming the rule.

        It fixes how many copies of the cubic split off, whether the moving
        part lies in the restriction kernel, and the resulting extra sections.
        """
        r = self.config.r
        m = f.m[0]
        steps: list[SubtractionStep] = []
        current = f
        if m < 0:
            # Negative multiplicities just stack -m copies of each exceptional
            # divisor on the fixed part.
            for i in range(1, r + 1):
                e_i = exceptional_class(i, r)
                step = (intersect(current, e_i), e_i.square(), "uniform-negative-multiplicity", -m)
                steps.append(SubtractionStep(e_i, KIND_EXCEPTIONAL, f"E{i}", *step))
                current = current + m * e_i
            m = 0
        t = current.d - 3 * m
        if t < 0:
            reason = "degree below three times the uniform multiplicity"
            note = "not effective: degree below three times the multiplicity"
            return NotEffective(reason, tuple(steps)), 0, (note,)

        u = anticanonical_degree(current)
        extra = 0
        if m == 0:
            count, notes = 0, ("plane curves of the given degree",)
        elif u > 0:
            note = "fixed component free and regular" if r == 9 else "positive restriction degree"
            count, notes = 0, (note,)
        elif r == 9:
            # u = 3t = 0: the class is m copies of the cubic
            count, extra = kernel_multiple_data(m, self.config.lambda_spec, 9)
            notes = (f"fixed part is {count} copies of the cubic", "kernel multiple count")
        elif t == 0:
            count, notes = m, ("multiple of the cubic: one section",)
        else:
            # the fewest copies of the cubic that bring u back to zero or above
            count = (-u + (r - 9) - 1) // (r - 9)
            notes = (f"fixed part is {count} copies of the cubic",)
            if u + count * (r - 9) == 0:
                if self.config.lambda_spec.contains(_less_cubics(current, count)):
                    extra = 1
                    notes += ("moving part lies in the restriction kernel: one extra section",)
                else:
                    count += 1
                    notes = (f"fixed part is {count} copies of the cubic",)

        if count:
            step = (u, 9 - r, "uniform-fixed-cubic", count)  # D.D = K.K = 9 - r
            steps.append(SubtractionStep(self.candidates[0].cls, KIND_CUBIC, "D", *step))
            current = _less_cubics(current, count)
        return ZariskiDecomposition(current, f - current, tuple(steps)), extra, notes


def _less_cubics(f: ClassVector, count: int) -> ClassVector:
    """f - count * D for a uniform class f, built directly: D = (3; 1^r)."""
    return ClassVector(f.d - 3 * count, (f.m[0] - count,) * f.r)


def kernel_multiple_data(m: int, spec: LambdaSpec, r: int) -> tuple[int, int]:
    """Least shift s with (m - s) copies of the cubic in the kernel, and the
    multiple count (m - s) divided by the least kernel order."""
    if m < 0:
        raise ValueError("kernel shift needs a nonnegative multiplicity")
    for s in range(m + 1):
        if spec.contains_multiple_of_k(m - s, r):
            break
    else:
        raise RuntimeError("internal error: zero is always in the kernel")
    c = m - s
    if c == 0:
        return s, 0
    for order in range(1, c + 1):
        if spec.contains_multiple_of_k(order, r):
            return s, c // order
    raise RuntimeError("internal error: kernel multiple without a least order")


_CASES = {
    "line": LineConicCase,
    "conic": LineConicCase,
    "cubic_flex": FlexCase,
    "cubic_uniform": UniformCubicCase,
}


def make_context(config: PointConfig) -> CaseContext:
    """Validate ``config`` and build its case, which collects the candidates
    its decompositions subtract once for every class of the case."""
    validate(config)
    return _CASES[config.curve_kind](config)


def h0_nef(f: ClassVector, context: CaseContext) -> CohomologyAnswer:
    """The nef rule of the case, for a class known to be nef there: chi on a
    line or conic, ``h0_flex`` on a flex chain, the closed form on the
    uniform cubic."""
    context.check(f)
    return context.nef_sections(f)


def h0_with_decomposition(f: ClassVector, context: CaseContext) -> Sections:
    """One decomposition pass feeding the section and syzygy counts and the
    trace.  The case checks ``f``: the loop cases in ``zariski_decompose``."""
    return context.sections(f)


def h0_any(f: ClassVector, context: CaseContext) -> CohomologyAnswer:
    return h0_with_decomposition(f, context)[0]


def section_answers(
    scheme: FatPointScheme, context: CaseContext, degrees: Iterable[int]
) -> list[CohomologyAnswer]:
    """The section answers of the scheme's classes in ``degrees``, the one
    per-degree path: each degree below ``nef_tail_degree`` is decomposed once,
    through ``h0_any``, and from it on the case's nef rule answers with no
    trace."""
    tail = nef_tail_degree(scheme, context)
    answers = []
    for d in degrees:
        f = scheme.to_class(d)
        answers.append(h0_any(f, context) if tail is None or d < tail else context.nef_sections(f))
    return answers


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
