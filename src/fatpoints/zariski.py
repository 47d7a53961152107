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
"""

from __future__ import annotations

from dataclasses import dataclass

from .configuration import LambdaSpec, PointConfig, UnsupportedRuleError
from .lattice import (
    ClassVector,
    canonical_class,
    e0_class,
    exceptional_class,
    intersect,
)
from .negcurves import (
    KIND_CUBIC,
    KIND_EXCEPTIONAL,
    KIND_LINE,
    NegativeCurve,
    flex_candidate_fixed_classes,
    negative_curves,
)

RULE_NEGATIVE_PAIRING = "negative-pairing"
RULE_FORCED_CUBIC = "forced-anticanonical"
RULE_UNIFORM_CUBIC = "uniform-fixed-cubic"
RULE_UNIFORM_EXCEPTIONAL = "uniform-negative-multiplicity"


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

    def __str__(self) -> str:
        text = f"{self.subtracted} [{self.label}]"
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

    Build it with ``cohomology.make_context``.  The uniform cubic has no
    candidates: its closed-form rule needs only the configuration's kernel
    spec.
    """

    config: PointConfig
    candidates: tuple[NegativeCurve, ...]


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
    dual to the nef basis.  The uniform cubic needs none.
    """
    kind = config.curve_kind
    candidates = []
    if kind == "cubic_flex":
        candidates = list(flex_candidate_fixed_classes(config.r))
    elif kind in ("line", "conic"):
        # The lines through a proper point form a pencil of square zero, so
        # the enumeration omits it.  The pencil is nef, so a class meeting it
        # negatively is not effective (a fat point of multiplicity above the
        # degree), and its copies drive the degree negative in one step.  It
        # comes first: past it, a line and an exceptional class would trade
        # single copies until the degree turned negative.
        r = config.r
        candidates = [
            NegativeCurve(e0_class(r) - exceptional_class(pt.id, r), KIND_LINE, f"L({pt.id})")
            for pt in config.points
            if pt.parent is None
        ]
        candidates.extend(negative_curves(config))
    ample = _ample_witness(config.r)
    for entry in candidates:
        if intersect(ample, entry.cls) < 1:
            raise RuntimeError(
                f"internal error: ample witness meets candidate {entry.cls} "
                f"in degree {intersect(ample, entry.cls)}"
            )
    return tuple(candidates)


def check_rank(f: ClassVector, config: PointConfig) -> None:
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


def _first_negative(
    f: ClassVector, context: CaseContext
) -> tuple[NegativeCurve, int] | None:
    """The first candidate that ``f`` meets negatively, with the pairing."""
    for entry in context.candidates:
        pairing = intersect(f, entry.cls)
        if pairing < 0:
            return entry, pairing
    return None


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
        t = f.d - 3 * m
        return m >= 0 and t >= 0 and 3 * t + (9 - f.r) * m >= 0
    return f.d >= 0 and _first_negative(f, context) is None


def _forced_step(
    current: ClassVector, entry: NegativeCurve, pairing: int
) -> SubtractionStep:
    """Every copy of ``entry`` that its negative ``pairing`` with ``current``
    forces into the fixed part."""
    cls = entry.cls
    square = cls.square()
    if square < 0:
        # each copy raises the pairing by -square, and a copy is forced while
        # the pairing before it is negative: ceil(pairing / square) copies
        copies = -(pairing // -square)
    else:
        # a pencil of lines through a point has square zero, so its pairing
        # never rises: copies come off until the degree turns negative
        copies = current.d // cls.d + 1
    rule = RULE_FORCED_CUBIC if entry.kind == KIND_CUBIC else RULE_NEGATIVE_PAIRING
    return SubtractionStep(cls, entry.kind, entry.label, pairing, square, rule, copies)


def zariski_decompose(
    f: ClassVector, context: CaseContext
) -> ZariskiDecomposition | NotEffective:
    """Split ``f`` into a nef moving part plus the forced fixed classes.

    Returns ``NotEffective`` when the subtraction drives the degree negative,
    and the decomposition as soon as no candidate meets the class negatively.
    """
    config = context.config
    if config.curve_kind == "cubic_uniform":
        return uniform_cubic_rule(f, context).decomposition
    check_rank(f, config)
    ample = _ample_witness(f.r)

    current = f
    steps: list[SubtractionStep] = []
    potential = intersect(current, ample)
    budget = 2 * abs(potential) + 1000 * (f.r + 2)
    while True:
        if current.d < 0:
            return NotEffective(
                "subtracting forced fixed classes drove the degree negative",
                tuple(steps),
            )
        hit = _first_negative(current, context)
        if hit is None:
            return ZariskiDecomposition(current, f - current, tuple(steps))
        step = _forced_step(current, *hit)
        current = current - step.copies * step.subtracted
        steps.append(step)
        next_potential = intersect(current, ample)
        if next_potential >= potential:
            raise RuntimeError(
                "internal error: subtraction failed to lower the ample degree"
            )
        potential = next_potential
        if len(steps) > budget:
            raise RuntimeError("internal error: subtraction budget exceeded")


def uniform_cubic_rule(f: ClassVector, context: CaseContext) -> UniformCubicAnswer:
    """The rule for t*e0 + m*(-K) at r >= 9 general points of a smooth cubic.

    It fixes how many copies of the cubic split off, whether the moving part
    lies in the restriction kernel, and the resulting extra sections.
    """
    config = context.config
    check_rank(f, config)
    check_uniform_class(f)
    r = config.r
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

    # u is the degree of the class restricted to the cubic.
    u = 3 * t + (9 - r) * m
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
            if config.lambda_spec.contains(current + count * canonical_class(r)):
                extra = 1
                notes += ("moving part lies in the restriction kernel: one extra section",)
            else:
                count += 1
                notes = (f"fixed part is {count} copies of the cubic",)

    if count:
        minus_k = -canonical_class(r)
        steps.append(
            SubtractionStep(
                minus_k,
                KIND_CUBIC,
                "D",
                intersect(minus_k, current),
                minus_k.square(),
                RULE_UNIFORM_CUBIC,
                count,
            )
        )
        current = current - count * minus_k
    decomposition = ZariskiDecomposition(current, f - current, tuple(steps))
    return UniformCubicAnswer(decomposition, extra, notes)


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
    "uniform_cubic_rule",
    "zariski_decompose",
]
