"""Moving and fixed parts of divisor classes.

A ``CaseContext`` holds a validated configuration and the candidate classes
its decompositions subtract.  The conic, line, and flex cases run a
subtraction loop against those candidates; the uniform-cubic case follows the
closed-form rule in ``uniform_cubic_rule``, which decides effectivity, the
fixed anticanonical multiple and the kernel's extra sections directly.  Each
subtraction takes every forced copy of one class at once and records a
certificate (the negative pairing that forced the first copy and the square
by which each copy raises it), and an ample-degree potential bounds the
iteration so a bad candidate list fails loudly instead of spinning.  The loop
stops when no candidate meets the class negatively, and that same scan is the
nef test ``is_nef``.

A scan pairs the class with every candidate in one sparse pass: the context
keeps each candidate's degree and, for each point, the candidates with a
nonzero coefficient there.  Along a ray d*e0 - sum(m_i e_i) every pairing is
affine in d, so one such pass also gives ``nef_tail_degree``, the degree from
which the ray stays nef.

The loop makes that pass once per decomposition.  Pairing is bilinear, so a
step that takes k copies of a candidate C subtracts k times C's row (C paired
with every candidate) from the pairings it holds, and lowers the degree and
the ample potential by k times C's.  A row is computed the first time its
candidate is subtracted in a context and kept there, and the moving and
fixed classes are built once, from the copies taken per candidate.

Lines and conics list the pencils L(i) of lines through their proper points
first.  A pencil is nef of square zero, so a class of degree d >= 0 with a
proper multiplicity m_i > d meets L(i) in d - m_i < 0 and is not effective:
the loop's first step takes d + 1 copies of the first such pencil and the
degree turns negative.  ``zariski_decompose`` answers that head of the degree
ray from the multiplicities alone, with the same one-step trace and no
pairing pass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .configuration import FatPointScheme, LambdaSpec, PointConfig, UnsupportedRuleError
from .lattice import (
    ClassVector,
    anticanonical_degree,
    canonical_class,
    exceptional_class,
    intersect,
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

RULE_NEGATIVE_PAIRING = "negative-pairing"
RULE_FORCED_CUBIC = "forced-anticanonical"
RULE_UNIFORM_CUBIC = "uniform-fixed-cubic"
RULE_UNIFORM_EXCEPTIONAL = "uniform-negative-multiplicity"

REASON_DEGREE_NEGATIVE = "subtracting forced fixed classes drove the degree negative"


@dataclass(frozen=True)
class SubtractionStep:
    """``copies`` copies of ``subtracted`` taken off at once.

    ``pairing`` is the pairing of the class before the step with
    ``subtracted``; each copy subtracts ``square`` from it.
    """

    subtracted: ClassVector
    kind: str
    label: str
    pairing: int
    square: int
    rule: str
    copies: int
    # "class [label]" when the caller has it already, as the loop does from
    # ``NegativeCurve.text``; derived, so it takes no part in comparisons
    text: str = field(default="", repr=False, compare=False)

    def __str__(self) -> str:
        text = self.text or f"{self.subtracted} [{self.label}]"
        return f"{self.copies} x {text}" if self.copies > 1 else text


@dataclass(frozen=True)
class NotEffective:
    reason: str
    trace: tuple[SubtractionStep, ...]


@dataclass(frozen=True)
class ZariskiDecomposition:
    moving: ClassVector
    fixed: ClassVector
    trace: tuple[SubtractionStep, ...]


@dataclass(frozen=True)
class CaseContext:
    """A validated configuration with the candidate classes its loop subtracts.

    Build it with ``cohomology.make_context``.  The uniform cubic's one
    candidate is the cubic D = -K, whose copies its closed-form rule takes.
    The scan kernel's data is derived once, here: each candidate's degree,
    the ample witness of the potential check and each candidate's degree
    against it, and for each point j the (candidate index, coefficient) pairs
    with a nonzero coefficient at j.  ``pencils`` holds (candidate index,
    point index) for each pencil e0 - e_j in the leading run of candidates:
    lines and conics put one there per proper point, other cases none.
    ``rows`` maps a candidate's index to its pairings with every candidate;
    the loop fills it as it first subtracts each candidate, so it takes no
    part in comparisons.
    """

    config: PointConfig
    candidates: tuple[NegativeCurve, ...]
    degrees: tuple[int, ...] = field(init=False, repr=False)
    ample: ClassVector = field(init=False, repr=False)
    ample_degrees: tuple[int, ...] = field(init=False, repr=False)
    columns: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False)
    pencils: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    rows: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        columns: list[list[tuple[int, int]]] = [[] for _ in range(self.config.r)]
        for index, entry in enumerate(self.candidates):
            for j, coefficient in enumerate(entry.cls.m):
                if coefficient:
                    columns[j].append((index, coefficient))
        set_field = object.__setattr__
        set_field(self, "degrees", tuple(entry.cls.d for entry in self.candidates))
        set_field(self, "ample", _ample_witness(self.config.r))
        set_field(self, "columns", tuple(map(tuple, columns)))
        pencils = []
        for index, entry in enumerate(self.candidates):
            cls = entry.cls
            if cls.d != 1 or cls.m.count(0) != self.config.r - 1 or 1 not in cls.m:
                break
            pencils.append((index, cls.m.index(1)))
        set_field(self, "pencils", tuple(pencils))
        set_field(self, "rows", {})
        ample_degrees = _pairings(self.ample, self)
        for entry, degree in zip(self.candidates, ample_degrees):
            if degree < 1:
                raise RuntimeError(
                    f"internal error: ample witness meets candidate {entry.cls} "
                    f"in degree {degree}"
                )
        set_field(self, "ample_degrees", tuple(ample_degrees))


@dataclass(frozen=True)
class UniformCubicAnswer:
    """The closed-form answer for a uniform class on a smooth cubic.

    When the class is effective it has chi(moving part) + extra_sections
    sections; notes name the rule that decided it.
    """

    decomposition: ZariskiDecomposition | NotEffective
    extra_sections: int
    notes: tuple[str, ...]


def _ample_witness(r: int) -> ClassVector:
    return ClassVector(2**r, tuple(2 ** (r - i) for i in range(1, r + 1)))


def loop_candidates(config: PointConfig) -> tuple[NegativeCurve, ...]:
    """The classes the subtraction loop tries, in order, for a valid config.

    Lines and conics subtract the pencils of lines through their proper
    points and their enumerated negative curves, flex chains the classes
    dual to the nef basis, and the uniform cubic the cubic D alone; the
    uniform cubic refuses near points, which its rules do not cover.
    """
    kind = config.curve_kind
    r = config.r
    candidates = []
    if kind == "cubic_flex":
        candidates = list(flex_candidate_fixed_classes(r))
    elif kind == "cubic_uniform":
        near = [pt.id for pt in config.points if pt.parent is not None]
        if near:
            raise UnsupportedRuleError(
                f"p{near[0]} is a near point on the uniform cubic, whose rules "
                "cover proper points only"
            )
        candidates = [NegativeCurve(-canonical_class(r), KIND_CUBIC, "D")]
    elif kind in ("line", "conic"):
        # The lines through a proper point form a pencil of square zero, so
        # the enumeration omits it.  The pencil is nef, so a class meeting it
        # negatively is not effective (a fat point of multiplicity above the
        # degree), and its copies drive the degree negative in one step.  It
        # comes first: past it, a line and an exceptional class would trade
        # single copies until the degree turned negative.
        candidates = [
            NegativeCurve(line_class((pt.id,), r), KIND_LINE, f"L({pt.id})")
            for pt in config.points
            if pt.parent is None
        ]
        candidates.extend(negative_curves(config))
    return tuple(candidates)


_INT_ONLY = frozenset((int,))


def check_rank(f: ClassVector, config: PointConfig) -> None:
    # Classes are never coerced, so a float, bool or numpy entry is refused
    # here; type() rather than isinstance, since bool is a subclass of int.
    if type(f.d) is not int or type(f.m) is not tuple or not _INT_ONLY.issuperset(map(type, f.m)):
        raise ValueError(f"class entries must be Python ints in a tuple, got {f!r}")
    if f.r != config.r:
        raise ValueError(f"class of rank {f.r} does not match {config.r} points")


def check_uniform_class(f: ClassVector) -> None:
    if f.r < 9:
        raise UnsupportedRuleError(
            "rules for points on a smooth cubic need at least nine points"
        )
    if len(set(f.m)) > 1:
        raise UnsupportedRuleError(
            f"only uniform multiplicities are supported on a smooth cubic, got {f.m}"
        )


def _pairings(f: ClassVector, context: CaseContext) -> list[int]:
    """``f`` paired with every candidate, in candidate order.

    One pass over the nonzero candidate coefficients at the points where
    ``f`` has a nonzero multiplicity, with no call per candidate.
    """
    out = [f.d * c for c in context.degrees]
    for mj, column in zip(f.m, context.columns):
        if mj:
            for index, coefficient in column:
                out[index] -= mj * coefficient
    return out


def _first_negative(pairings: list[int]) -> int | None:
    """The index of the first candidate met negatively, if any."""
    if not pairings or min(pairings) >= 0:
        return None
    return next(i for i, pairing in enumerate(pairings) if pairing < 0)


def _row(context: CaseContext, index: int) -> list[int]:
    """Candidate ``index`` paired with every candidate, computed the first
    time the loop subtracts it in ``context`` and kept there."""
    row = context.rows.get(index)
    if row is None:
        row = context.rows[index] = _pairings(context.candidates[index].cls, context)
    return row


def is_nef(f: ClassVector, context: CaseContext) -> bool:
    """Whether ``f`` pairs nonnegatively with every curve class of the case.

    For lines, conics and flex chains this is the scan that ends the
    subtraction loop.  On a flex chain the candidates pair with ``f`` to give
    its nef-basis coordinates (and, past nine points, its pairing with -K).
    """
    config = context.config
    check_rank(f, config)
    if config.curve_kind == "cubic_uniform":
        check_uniform_class(f)
        m = f.m[0]
        return m >= 0 and f.d >= 3 * m and anticanonical_degree(f) >= 0
    return f.d >= 0 and _first_negative(_pairings(f, context)) is None


def nef_tail_degree(scheme: FatPointScheme, context: CaseContext) -> int | None:
    """The least degree t >= 0 with ``scheme.to_class(d)`` nef for every
    d >= t, or None when no such degree exists or the case has no loop.

    A candidate C pairs with the degree-d class in b + d*C.d, where b is its
    pairing with the degree-0 class, so one pass of pairings decides the
    whole ray: a candidate of positive degree is met nonnegatively from
    ceil(-b / C.d) on, and one of degree 0 either always or never.  The
    uniform cubic has no loop; its closed-form rule answers every degree.
    """
    f0 = scheme.to_class(0)
    check_rank(f0, context.config)
    if context.config.curve_kind == "cubic_uniform":
        return None
    tail = 0
    for b, c in zip(_pairings(f0, context), context.degrees):
        if c > 0:
            tail = max(tail, -(b // c))
        elif b < 0 or c < 0:
            return None
    return tail


def _forced_step(
    d: int, entry: NegativeCurve, pairing: int, square: int
) -> SubtractionStep:
    """Every copy of ``entry`` that its negative ``pairing`` with a class of
    degree ``d`` forces into the fixed part."""
    if square < 0:
        # each copy raises the pairing by -square, and a copy is forced while
        # the pairing before it is negative: ceil(pairing / square) copies
        copies = -(pairing // -square)
    else:
        # a pencil of lines through a point has square zero, so its pairing
        # never rises: copies come off until the degree turns negative
        copies = d // entry.cls.d + 1
    rule = RULE_FORCED_CUBIC if entry.kind == KIND_CUBIC else RULE_NEGATIVE_PAIRING
    return SubtractionStep(
        entry.cls, entry.kind, entry.label, pairing, square, rule, copies, entry.text
    )


def zariski_decompose(
    f: ClassVector, context: CaseContext
) -> ZariskiDecomposition | NotEffective:
    """Split ``f`` into a nef moving part plus the forced fixed classes.

    Returns ``NotEffective`` when the subtraction drives the degree negative,
    and the decomposition as soon as no candidate meets the class negatively.
    A class of degree d >= 0 met negatively by a leading pencil is answered
    before the loop, with the loop's one step.  The loop holds the class's
    pairings with the candidates, its degree and its ample potential, and
    builds the moving and fixed classes at the end.
    """
    config = context.config
    if config.curve_kind == "cubic_uniform":
        return uniform_cubic_rule(f, context).decomposition
    check_rank(f, config)

    d = f.d
    if d >= 0:
        for index, j in context.pencils:
            pairing = d - f.m[j]
            if pairing < 0:
                step = _forced_step(d, context.candidates[index], pairing, 0)
                return NotEffective(REASON_DEGREE_NEGATIVE, (step,))

    pairings = _pairings(f, context)
    steps: list[SubtractionStep] = []
    taken: dict[int, int] = {}  # candidate index -> copies subtracted
    potential = intersect(f, context.ample)
    budget = 2 * abs(potential) + 1000 * (f.r + 2)
    while True:
        if d < 0:
            return NotEffective(REASON_DEGREE_NEGATIVE, tuple(steps))
        index = _first_negative(pairings)
        if index is None:
            return _decomposition(f, d, taken, potential, steps, context)
        entry = context.candidates[index]
        row = _row(context, index)
        step = _forced_step(d, entry, pairings[index], row[index])
        copies = step.copies
        pairings = [p - copies * c for p, c in zip(pairings, row)]
        d -= copies * entry.cls.d
        taken[index] = taken.get(index, 0) + copies
        steps.append(step)
        next_potential = potential - copies * context.ample_degrees[index]
        if next_potential >= potential:
            raise RuntimeError(
                "internal error: subtraction failed to lower the ample degree"
            )
        potential = next_potential
        if len(steps) > budget:
            raise RuntimeError("internal error: subtraction budget exceeded")


def _decomposition(
    f: ClassVector,
    d: int,
    taken: dict[int, int],
    potential: int,
    steps: list[SubtractionStep],
    context: CaseContext,
) -> ZariskiDecomposition:
    """``f`` split into its moving part of degree ``d`` and the copies
    ``taken`` of each candidate, checked against the potential the loop
    tracked."""
    if not steps:
        return ZariskiDecomposition(f, zero_class(f.r), ())
    fixed = [0] * f.r
    for index, copies in taken.items():
        for j, coefficient in enumerate(context.candidates[index].cls.m):
            if coefficient:
                fixed[j] += copies * coefficient
    moving = ClassVector(d, tuple(map(operator.sub, f.m, fixed)))
    if intersect(moving, context.ample) != potential:
        raise RuntimeError("internal error: the tracked ample degree drifted")
    return ZariskiDecomposition(moving, ClassVector(f.d - d, tuple(fixed)), tuple(steps))


def uniform_cubic_rule(f: ClassVector, context: CaseContext) -> UniformCubicAnswer:
    """The rule for t*e0 + m*(-K) at r >= 9 general points of a smooth cubic.

    It fixes how many copies of the cubic split off, whether the moving part
    lies in the restriction kernel, and the resulting extra sections.
    """
    config = context.config
    check_rank(f, config)
    check_uniform_class(f)
    r = config.r
    minus_k = context.candidates[0].cls
    m = f.m[0]
    steps: list[SubtractionStep] = []
    current = f
    if m < 0:
        # Negative multiplicities just stack -m copies of each exceptional
        # divisor on the fixed part.
        for i in range(1, r + 1):
            e_i = exceptional_class(i, r)
            steps.append(
                SubtractionStep(
                    e_i,
                    KIND_EXCEPTIONAL,
                    f"E{i}",
                    intersect(current, e_i),
                    e_i.square(),
                    RULE_UNIFORM_EXCEPTIONAL,
                    -m,
                )
            )
            current = current + m * e_i
        m = 0
    t = current.d - 3 * m
    if t < 0:
        return UniformCubicAnswer(
            NotEffective("degree below three times the uniform multiplicity", tuple(steps)),
            0,
            ("not effective: degree below three times the multiplicity",),
        )

    u = anticanonical_degree(current)
    extra = 0
    if m == 0:
        count, notes = 0, ("plane curves of the given degree",)
    elif u > 0:
        note = "fixed component free and regular" if r == 9 else "positive restriction degree"
        count, notes = 0, (note,)
    elif r == 9:
        # u = 3t = 0: the class is m copies of the cubic
        count, extra = kernel_multiple_data(m, config.lambda_spec, 9)
        notes = (f"fixed part is {count} copies of the cubic", "kernel multiple count")
    elif t == 0:
        count, notes = m, ("multiple of the cubic: one section",)
    else:
        # the fewest copies of the cubic that bring u back to zero or above
        count = (-u + (r - 9) - 1) // (r - 9)
        notes = (f"fixed part is {count} copies of the cubic",)
        if u + count * (r - 9) == 0:
            if config.lambda_spec.contains(_less_cubics(current, count)):
                extra = 1
                notes += ("moving part lies in the restriction kernel: one extra section",)
            else:
                count += 1
                notes = (f"fixed part is {count} copies of the cubic",)

    if count:
        steps.append(
            SubtractionStep(
                minus_k,
                KIND_CUBIC,
                "D",
                u,
                9 - r,  # D.D = K.K
                RULE_UNIFORM_CUBIC,
                count,
            )
        )
        current = _less_cubics(current, count)
    decomposition = ZariskiDecomposition(current, f - current, tuple(steps))
    return UniformCubicAnswer(decomposition, extra, notes)


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


__all__ = [
    "CaseContext",
    "NotEffective",
    "SubtractionStep",
    "UniformCubicAnswer",
    "ZariskiDecomposition",
    "is_nef",
    "kernel_multiple_data",
    "loop_candidates",
    "nef_tail_degree",
    "uniform_cubic_rule",
    "zariski_decompose",
]
