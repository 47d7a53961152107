"""Moving and fixed parts of divisor classes: the subtraction loop.

A ``CaseContext`` holds a validated configuration, its candidate classes
and the rules of its case, which ``cohomology.make_context`` picks.  The
public entry points here check their input and ask the context.  Lines,
conics and flex chains run the subtraction loop below; the uniform cubic
answers in closed form.  Each subtraction takes every forced copy
of one class at once and records a certificate (the negative pairing that
forced the first copy and the square by which each copy raises it), and an
ample-degree potential bounds the iteration so a bad candidate list fails
loudly instead of spinning.  The loop stops when no candidate meets the class
negatively, and that same scan is the nef test ``is_nef``.

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
proper multiplicity m_i > d meets L(i) in d - m_i < 0: the loop's first step
takes d + 1 copies of the first such pencil and the degree turns negative.
That head of the degree ray is answered from the multiplicities alone, with
the same one-step trace and no pairing pass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .configuration import FatPointScheme, PointConfig
from .lattice import ClassVector, intersect, zero_class
from .negcurves import KIND_CUBIC, NegativeCurve

RULE_NEGATIVE_PAIRING = "negative-pairing"
RULE_FORCED_CUBIC = "forced-anticanonical"

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
    """A validated configuration with the rules of its case.

    ``cohomology.make_context`` builds one subclass per case.  A case lists
    its candidates (``find_candidates``); once a public entry point has
    checked its class with ``check``, the case answers it: ``decompose``,
    ``nef``, ``tail``, ``sections``, ``nef_sections`` and ``syzygies``.  The
    methods here are the loop's.  Its scan data is derived once: each
    candidate's degree, the ample witness of the potential check and each
    candidate's degree against it, for each point j the (candidate index,
    coefficient) pairs with a nonzero coefficient at j, and in ``pencils``
    (candidate index, point index) for each pencil e0 - e_j in the leading
    run of candidates.  ``rows`` maps a candidate's index to its pairings
    with every candidate; the loop fills it as it first subtracts each
    candidate, so it takes no part in comparisons.
    """

    config: PointConfig
    candidates: tuple[NegativeCurve, ...] = field(init=False)
    degrees: tuple[int, ...] = field(init=False, repr=False)
    ample: ClassVector = field(init=False, repr=False)
    ample_degrees: tuple[int, ...] = field(init=False, repr=False)
    columns: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False)
    pencils: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    rows: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        set_field = object.__setattr__
        set_field(self, "candidates", tuple(self.find_candidates()))
        columns: list[list[tuple[int, int]]] = [[] for _ in range(self.config.r)]
        for index, entry in enumerate(self.candidates):
            for j, coefficient in enumerate(entry.cls.m):
                if coefficient:
                    columns[j].append((index, coefficient))
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

    def check(self, f: ClassVector) -> None:
        check_rank(f, self.config)

    def nef(self, f: ClassVector) -> bool:
        """The scan that ends the loop: no candidate meets ``f`` negatively."""
        return f.d >= 0 and _first_negative(_pairings(f, self)) is None

    def tail(self, f0: ClassVector) -> int | None:
        """A candidate C pairs with the degree-d class in b + d*C.d, where b
        is its pairing with the degree-0 class ``f0``, so one pass of
        pairings decides the whole ray: a candidate of positive degree is met
        nonnegatively from ceil(-b / C.d) on, and one of degree 0 either
        always or never."""
        tail = 0
        for b, c in zip(_pairings(f0, self), self.degrees):
            if c > 0:
                tail = max(tail, -(b // c))
            elif b < 0 or c < 0:
                return None
        return tail

    def decompose(self, f: ClassVector) -> ZariskiDecomposition | NotEffective:
        """The subtraction loop, after the head of the degree ray is answered
        from the leading pencils."""
        d = f.d
        if d >= 0:
            for index, j in self.pencils:
                pairing = d - f.m[j]
                if pairing < 0:
                    step = _forced_step(d, self.candidates[index], pairing, 0)
                    return NotEffective(REASON_DEGREE_NEGATIVE, (step,))

        pairings = _pairings(f, self)
        steps: list[SubtractionStep] = []
        taken: dict[int, int] = {}  # candidate index -> copies subtracted
        potential = intersect(f, self.ample)
        budget = 2 * abs(potential) + 1000 * (f.r + 2)
        while True:
            if d < 0:
                return NotEffective(REASON_DEGREE_NEGATIVE, tuple(steps))
            index = _first_negative(pairings)
            if index is None:
                return _decomposition(f, d, taken, potential, steps, self)
            entry = self.candidates[index]
            row = _row(self, index)
            step = _forced_step(d, entry, pairings[index], row[index])
            copies = step.copies
            pairings = [p - copies * c for p, c in zip(pairings, row)]
            d -= copies * entry.cls.d
            taken[index] = taken.get(index, 0) + copies
            steps.append(step)
            next_potential = potential - copies * self.ample_degrees[index]
            if next_potential >= potential:
                raise RuntimeError(
                    "internal error: subtraction failed to lower the ample degree"
                )
            potential = next_potential
            if len(steps) > budget:
                raise RuntimeError("internal error: subtraction budget exceeded")


def _ample_witness(r: int) -> ClassVector:
    return ClassVector(2**r, tuple(2 ** (r - i) for i in range(1, r + 1)))


_INT_ONLY = frozenset((int,))


def check_rank(f: ClassVector, config: PointConfig) -> None:
    # Classes are never coerced, so a float, bool or numpy entry is refused
    # here; type() rather than isinstance, since bool is a subclass of int.
    if type(f.d) is not int or type(f.m) is not tuple or not _INT_ONLY.issuperset(map(type, f.m)):
        raise ValueError(f"class entries must be Python ints in a tuple, got {f!r}")
    if f.r != config.r:
        raise ValueError(f"class of rank {f.r} does not match {config.r} points")


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
    """Whether ``f`` pairs nonnegatively with every curve class of the case:
    the scan that ends the loop, or the uniform cubic's closed form.  On a
    flex chain the candidates pair with ``f`` to give its nef-basis
    coordinates (and, past nine points, its pairing with -K)."""
    context.check(f)
    return context.nef(f)


def nef_tail_degree(scheme: FatPointScheme, context: CaseContext) -> int | None:
    """The least degree t >= 0 with ``scheme.to_class(d)`` nef for every
    d >= t, or None when no such degree exists or the case has no loop (the
    uniform cubic, whose closed form answers every degree)."""
    f0 = scheme.to_class(0)
    check_rank(f0, context.config)
    return context.tail(f0)


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
    and the decomposition as soon as no candidate meets the class negatively;
    the uniform cubic answers in closed form.
    """
    context.check(f)
    return context.decompose(f)


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


__all__ = [
    "CaseContext",
    "NotEffective",
    "SubtractionStep",
    "ZariskiDecomposition",
    "is_nef",
    "nef_tail_degree",
    "zariski_decompose",
]
