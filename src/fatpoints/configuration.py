"""Point configurations, fat point schemes, and their structural checks.

A configuration records which supported curve the points sit on (a line, a
conic, or a smooth cubic in one of its two supported flavors), the
infinitely-near structure of the points as a parent tree, declared
collinearities, and for the cubic cases the kernel subgroup data controlling
effectivity.  A near point is proximate to its parent only, so the parent tree
is the whole proximity relation.  A scheme pairs a configuration with a
multiplicity vector.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .lattice import ClassVector, canonical_class

CURVE_KINDS = ("line", "conic", "cubic_uniform", "cubic_flex")
CONIC_SHAPE_KINDS = ("smooth", "two_lines", "double_line")
LAMBDA_KINDS = ("trivial", "order", "members")


class ValidationError(ValueError):
    """A configuration or scheme breaks a named structural rule.

    The message starts with the violated rule so callers (and the CLI) can
    surface it verbatim.
    """

    def __init__(self, message: str, rule: str):
        super().__init__(message)
        self.rule = rule


class UnsupportedRuleError(RuntimeError):
    """Structurally valid input that the supported case rules cannot answer."""


class LambdaUnderdeterminedError(UnsupportedRuleError):
    """The kernel subgroup data cannot decide a membership the rules need."""


@dataclass(frozen=True)
class Point:
    """A point of the configuration: proper when parent is None, otherwise
    infinitely near (first order) to the point named by parent."""

    id: int
    parent: int | None = None


@dataclass(frozen=True)
class ConicShape:
    """Shape of the conic for conic configurations.

    line_a and line_b index into the configuration's declared line list: the
    two components for two_lines, the doubled component (line_a only) for
    double_line, and neither for smooth.
    """

    kind: str
    line_a: int | None = None
    line_b: int | None = None


@dataclass(frozen=True)
class LambdaSpec:
    """Description of the kernel subgroup used by the cubic cases.

    kind "trivial" means the subgroup is zero.  kind "order" says the least
    positive c with c*K in the subgroup is `order`, and nothing more; only
    memberships of multiples of the canonical class are decidable.  kind
    "members" lists generators, and membership is an exact integer span test.
    """

    kind: str
    order: int | None = None
    members: tuple[ClassVector, ...] = ()

    def contains_multiple_of_k(self, c: int, r: int) -> bool:
        """Whether c times the canonical class lies in the subgroup."""
        if self.kind == "trivial":
            return c == 0
        if self.kind == "order":
            return c % self.order == 0
        return self.contains(c * canonical_class(r))

    def contains(self, f: ClassVector) -> bool:
        if self.kind == "trivial":
            return f.is_zero()
        if self.kind == "order":
            k = canonical_class(f.r)
            # A multiple of K is the only membership an order spec can decide.
            if f.d % 3 == 0 and f == (f.d // -3) * k:
                return (f.d // -3) % self.order == 0
            raise LambdaUnderdeterminedError(
                "lambda underdetermined: an order-only kernel spec cannot decide "
                f"membership of {f}"
            )
        vectors = [(g.d,) + g.m for g in self.members]
        return _lattice_member(vectors, (f.d,) + f.m)


def _lattice_member(generators: list[tuple[int, ...]], target: tuple[int, ...]) -> bool:
    """Exact membership of target in the integer span of the generators.

    Row-reduces the generators to a triangular basis of the row lattice using
    gcd steps, then divides the target through pivot by pivot.
    """
    rows = [list(v) for v in generators if any(v)]
    n = len(target)
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for col in range(n):
        active = [row for row in rows if row[col] != 0]
        rows = [row for row in rows if row[col] == 0]
        if not active:
            continue
        # Combine the active rows until a single one carries this column.
        pivot = active.pop()
        while active:
            other = active.pop()
            while other[col] != 0:
                if abs(other[col]) < abs(pivot[col]):
                    pivot, other = other, pivot
                q = other[col] // pivot[col]
                for k in range(n):
                    other[k] -= q * pivot[k]
            if any(other):
                rows.append(other)
        basis.append((col, pivot))
    residue = list(target)
    for col, row in basis:
        if residue[col] % row[col] != 0:
            return False
        q = residue[col] // row[col]
        for k in range(n):
            residue[k] -= q * row[k]
    return not any(residue)


@dataclass(frozen=True)
class PointConfig:
    curve_kind: str
    points: tuple[Point, ...]
    lines: tuple[tuple[int, ...], ...] = ()
    conic_shape: ConicShape | None = None
    lambda_spec: LambdaSpec | None = None

    @property
    def r(self) -> int:
        return len(self.points)

    def parent_of(self, i: int) -> int | None:
        return self.points[i - 1].parent

    def children_of(self, i: int) -> tuple[int, ...]:
        """The points whose parent is i, in id order: the points proximate
        to p_i, since a near point is proximate to its parent only."""
        return tuple(pt.id for pt in self.points if pt.parent == i)

    def ancestors_of(self, i: int) -> tuple[int, ...]:
        """Strict ancestors of point i, nearest first."""
        out = []
        cur = self.parent_of(i)
        while cur is not None:
            out.append(cur)
            cur = self.parent_of(cur)
        return tuple(out)

    def depth_of(self, i: int) -> int:
        return len(self.ancestors_of(i))


@dataclass(frozen=True)
class FatPointScheme:
    config: PointConfig
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        # operator.index refuses a float instead of truncating it
        object.__setattr__(self, "multiplicities", tuple(map(operator.index, self.multiplicities)))
        if len(self.multiplicities) != self.config.r:
            raise ValidationError(
                f"multiplicity count mismatch: {len(self.multiplicities)} values for "
                f"{self.config.r} points",
                rule="multiplicity-count",
            )

    def to_class(self, d: int) -> ClassVector:
        return ClassVector(d, self.multiplicities)


@dataclass(frozen=True)
class PartitionData:
    """Conjugate partition mu of a multiplicity partition, plus the derived
    degree sequence a used by the closed form for points on a line."""

    mu: tuple[int, ...]
    a: tuple[int, ...]


def _fail(message: str, rule: str):
    raise ValidationError(message, rule=rule)


def validate(config: PointConfig) -> None:
    """Check every structural rule; raise ValidationError naming the first
    violated rule and the offending point ids."""
    if config.curve_kind not in CURVE_KINDS:
        _fail(f"unknown curve kind {config.curve_kind!r}", rule="curve-kind")
    r = config.r
    for pos, pt in enumerate(config.points, start=1):
        if pt.id != pos:
            _fail(
                f"point ids must run 1..r in order: position {pos} holds id {pt.id}",
                rule="point-ids",
            )
        if pt.parent is not None and not 1 <= pt.parent < pt.id:
            _fail(
                f"parent must precede point: p{pt.id} names parent {pt.parent}",
                rule="parent-precedes",
            )

    for idx, line in enumerate(config.lines):
        members = tuple(line)
        if len(set(members)) != len(members):
            _fail(f"line {idx} repeats a member", rule="line-distinct-members")
        if any(not 1 <= i <= r for i in members):
            _fail(f"line {idx} names an id outside 1..{r}", rule="line-member-range")
        if len(members) < 2 and not (r == 1 and set(members) == {1}):
            _fail(
                f"line {idx} has fewer than two members",
                rule="line-two-members",
            )
        for i in members:
            par = config.parent_of(i)
            if par is not None and par not in members:
                _fail(
                    f"line {idx} contains the infinitely near point p{i} but not "
                    f"its parent p{par}",
                    rule="line-contains-parent",
                )
    for (ia, la), (ib, lb) in itertools.combinations(enumerate(config.lines), 2):
        common = set(la) & set(lb)
        if len(common) > 1:
            _fail(
                f"lines {ia} and {ib} share more than one point: {sorted(common)}",
                rule="lines-share-one-point",
            )

    _validate_kind(config)


def _validate_kind(config: PointConfig) -> None:
    r = config.r
    kind = config.curve_kind
    if kind in ("line", "conic"):
        if config.lambda_spec is not None:
            _fail(
                "only cubic configurations take a kernel subgroup spec",
                rule="lambda-spec-scope",
            )
    if kind == "line":
        if config.conic_shape is not None:
            _fail("line configurations take no conic shape", rule="conic-shape-scope")
        if r > 0 and not any(set(line) == set(range(1, r + 1)) for line in config.lines):
            _fail(
                "line configurations must declare the full line through all points",
                rule="line-declares-all",
            )
    elif kind == "conic":
        shape = config.conic_shape
        if r > 0 and shape is None:
            _fail("conic configurations must give a conic shape", rule="conic-shape-required")
        if shape is None:
            return
        if shape.kind not in CONIC_SHAPE_KINDS:
            _fail(f"unknown conic shape {shape.kind!r}", rule="conic-shape-kind")
        if shape.kind == "smooth":
            if shape.line_a is not None or shape.line_b is not None:
                _fail("a smooth conic names no component lines", rule="conic-shape-smooth")
            if any(len(line) > 2 for line in config.lines):
                _fail(
                    "three points of a smooth conic cannot be collinear",
                    rule="smooth-conic-collinearity",
                )
        elif shape.kind == "two_lines":
            for label, idx in (("line_a", shape.line_a), ("line_b", shape.line_b)):
                if idx is None or not 0 <= idx < len(config.lines):
                    _fail(
                        f"two_lines component {label} must index a declared line",
                        rule="two-lines-components",
                    )
            if shape.line_a == shape.line_b:
                _fail(
                    "two_lines components must be distinct declared lines",
                    rule="two-lines-distinct",
                )
            covered = set(config.lines[shape.line_a]) | set(config.lines[shape.line_b])
            if covered != set(range(1, r + 1)):
                _fail(
                    "two_lines components must cover all points",
                    rule="two-lines-cover",
                )
        else:  # double_line
            if shape.line_a is None or not 0 <= shape.line_a < len(config.lines):
                _fail(
                    "double_line component must index a declared line",
                    rule="double-line-component",
                )
            if shape.line_b is not None:
                _fail("double_line names a single component", rule="double-line-single")
            if set(config.lines[shape.line_a]) != set(range(1, r + 1)):
                _fail(
                    "double_line component must cover all points",
                    rule="double-line-cover",
                )
    else:  # the two cubic kinds
        if config.lines or config.conic_shape is not None:
            _fail(
                "cubic configurations take no line or conic declarations",
                rule="cubic-declarations",
            )
        if kind == "cubic_uniform":
            if config.lambda_spec is None:
                _fail(
                    "uniform cubic configurations must specify the kernel subgroup",
                    rule="lambda-spec-required",
                )
            _validate_lambda(config.lambda_spec, r)
        else:  # cubic_flex
            if config.lambda_spec is not None:
                _fail(
                    "flex configurations fix the kernel subgroup implicitly",
                    rule="lambda-spec-scope",
                )
            for pt in config.points:
                want = None if pt.id == 1 else pt.id - 1
                if pt.parent != want:
                    _fail(
                        f"flex configurations form a single chain: p{pt.id} must have "
                        f"parent {want}",
                        rule="flex-chain",
                    )


def _validate_lambda(spec: LambdaSpec, r: int) -> None:
    if spec.kind not in LAMBDA_KINDS:
        _fail(f"unknown lambda spec kind {spec.kind!r}", rule="lambda-kind")
    if spec.kind == "order" and (spec.order is None or spec.order < 1):
        _fail("an order lambda spec needs a positive order", rule="lambda-order")
    if spec.kind == "members":
        for g in spec.members:
            if g.r != r:
                _fail(
                    f"lambda member {g} has rank {g.r}, expected {r}",
                    rule="lambda-member-rank",
                )


def check_proximity(scheme: FatPointScheme) -> None:
    """Enforce m_i >= 0 and the proximity inequality at every point."""
    config = scheme.config
    mults = scheme.multiplicities
    for i in range(1, config.r + 1):
        if mults[i - 1] < 0:
            raise ValidationError(
                f"negative multiplicity at p{i}: {mults[i - 1]}",
                rule="multiplicity-nonnegative",
            )
    for i in range(1, config.r + 1):
        total = sum(mults[j - 1] for j in config.children_of(i))
        if mults[i - 1] < total:
            raise ValidationError(
                f"proximity inequality at p{i}: multiplicity {mults[i - 1]} is less "
                f"than the proximate sum {total}",
                rule="proximity-inequality",
            )


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram: entry j counts the parts of size >= j."""
    if not parts:
        return ()
    top = parts[0]
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, top + 1))


def line_partition_data(multiplicities: tuple[int, ...]) -> PartitionData:
    """Conjugate partition and generator-degree sequence for points on a line.

    Requires the multiplicities sorted in descending order with every entry
    positive; a_i = (i-1) + mu_i + ... + mu_{m1} for 1 <= i <= m1.
    """
    m = tuple(multiplicities)
    if not m or any(v <= 0 for v in m):
        raise ValueError("line partition data needs positive multiplicities")
    if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
        raise ValueError("line partition data needs descending multiplicities")
    mu = conjugate_partition(m)
    a = []
    tail = sum(mu)  # mu_i + ... + mu_{m1}, kept running from i = 1
    for i, mu_i in enumerate(mu):
        a.append(i + tail)
        tail -= mu_i
    return PartitionData(mu, tuple(a))
