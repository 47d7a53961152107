"""Candidate curve classes of negative self-intersection.

For line and conic configurations the list is a complete enumeration of the
reduced irreducible negative classes.  A near point is proximate to its parent
only, so each exceptional component is E_i minus the E_j of the children of
p_i.  For the flex-chain cubic the list is the set of candidate fixed classes
dual to the nef-cone coordinates, which is what the subtraction loop in the
decomposition module consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .configuration import (
    PointConfig,
    UnsupportedRuleError,
    ValidationError,
    validate,
)
from .lattice import ClassVector, canonical_class, exceptional_class

KIND_EXCEPTIONAL = "exceptional_component"
KIND_LINE = "line"
KIND_CONIC = "conic"
KIND_CUBIC = "cubic"


@dataclass(frozen=True)
class NegativeCurve:
    cls: ClassVector
    kind: str
    label: str

    @cached_property
    def text(self) -> str:
        """``class [label]``, as a subtraction trace prints it; formatted
        the first time a trace asks and kept."""
        return f"{self.cls} [{self.label}]"


@dataclass(frozen=True)
class NegativeCurveList:
    entries: tuple[NegativeCurve, ...]

    def __post_init__(self) -> None:
        seen = set()
        for entry in self.entries:
            if entry.cls.square() >= 0:
                raise ValueError(
                    f"negative curve list rejects {entry.cls} of square {entry.cls.square()}"
                )
            if entry.cls in seen:
                raise ValueError(f"negative curve list repeats {entry.cls}")
            seen.add(entry.cls)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _exceptional_components(config: PointConfig) -> list[NegativeCurve]:
    r = config.r
    out = []
    for i in range(1, r + 1):
        proximate = config.children_of(i)
        # E_i minus each E_j proximate to it
        m = [1 if j in proximate else 0 for j in range(1, r + 1)]
        m[i - 1] = -1
        label = f"E{i}" + "".join(f" - E{j}" for j in proximate)
        out.append(NegativeCurve(ClassVector(0, tuple(m)), KIND_EXCEPTIONAL, label))
    return out


def line_class(members: tuple[int, ...], r: int) -> ClassVector:
    """The line class e0 minus the exceptional class of each member."""
    return ClassVector(1, tuple(1 if i in members else 0 for i in range(1, r + 1)))


def _pair_members(config: PointConfig) -> list[tuple[int, ...]]:
    """Two-point line members for pairs on no common declared line.

    A pair gets a line exactly when both points are proper or the second is a
    first-order child of the first.  Deeper ancestor chains would need
    tangency data the configuration does not carry, so an uncovered one is an
    error rather than a guess; near points unrelated to the other member span
    no line at all and are silently skipped.
    """
    declared = [set(line) for line in config.lines]
    out = []
    for i, j in itertools.combinations(range(1, config.r + 1), 2):
        if any(i in line and j in line for line in declared):
            continue
        pi = config.points[i - 1]
        pj = config.points[j - 1]
        if pi.parent is None and pj.parent is None:
            out.append((i, j))
        elif pj.parent == i and pi.parent is None:
            out.append((i, j))
        elif i in config.ancestors_of(j):
            raise ValidationError(
                f"undeclared incidence between p{i} and p{j}: the chain joining "
                "them needs a declared line",
                rule="undeclared-incidence",
            )
    return out


def enumerate_negative_curves(config: PointConfig) -> NegativeCurveList:
    """All reduced irreducible negative classes of a line or conic configuration.

    Ordered for the decomposition loop: exceptional components by point index,
    then lines by member set, then the smooth conic when its square is
    negative.
    """
    validate(config)
    return negative_curves(config)


def negative_curves(config: PointConfig) -> NegativeCurveList:
    """enumerate_negative_curves for a configuration already validated."""
    if config.curve_kind not in ("line", "conic"):
        raise UnsupportedRuleError(
            f"negative curve enumeration covers line and conic configurations, "
            f"not {config.curve_kind}"
        )
    r = config.r
    entries = _exceptional_components(config)

    line_members = {tuple(sorted(line)) for line in config.lines if len(line) >= 2}
    line_members.update(_pair_members(config))
    for members in sorted(line_members):
        label = "L(" + ",".join(str(i) for i in members) + ")"
        entries.append(NegativeCurve(line_class(members, r), KIND_LINE, label))

    shape = config.conic_shape
    if shape is not None and shape.kind == "smooth" and r >= 5:
        entries.append(NegativeCurve(ClassVector(2, (1,) * r), KIND_CONIC, "Q"))
    return NegativeCurveList(tuple(entries))


def flex_candidate_fixed_classes(r: int) -> NegativeCurveList:
    """Candidate fixed classes for a chain of points at a flex of a cubic.

    Returns the classes dual to the nef-basis coordinates (the tangent-line
    class, the chain's exceptional components, and the last exceptional
    class).  Once its square turns negative, past nine points, the
    anticanonical cubic ``D`` comes first: the subtraction loop takes its
    copies before any other candidate's.
    """
    if r < 3:
        raise UnsupportedRuleError(
            "flex rules need the triple tangent line, hence at least three points"
        )
    entries = [NegativeCurve(-canonical_class(r), KIND_CUBIC, "D")] if r > 9 else []
    entries.append(NegativeCurve(line_class((1, 2, 3), r), KIND_LINE, "L(1,2,3)"))
    for i in range(1, r):
        cls = ClassVector(0, (0,) * (i - 1) + (-1, 1) + (0,) * (r - i - 1))
        entries.append(NegativeCurve(cls, KIND_EXCEPTIONAL, f"E{i} - E{i + 1}"))
    entries.append(NegativeCurve(exceptional_class(r, r), KIND_EXCEPTIONAL, f"E{r}"))
    return NegativeCurveList(tuple(entries))
