"""Integer divisor-class arithmetic for blowups of the projective plane.

The class group of the blowup at r points has basis e0, e1, ..., er with
e0.e0 = 1, ei.ei = -1, and distinct basis classes orthogonal.  A ClassVector
stores the degree d against e0 together with the multiplicity vector m, and
denotes the class d*e0 - m[0]*e1 - ... - m[r-1]*er.  All arithmetic is exact
(Python ints, never coerced: ``zariski.check_rank`` refuses anything else).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class ClassVector:
    """The class d*e0 - sum(m[i-1] * e_i) on a blowup at r = len(m) points."""

    d: int
    m: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.m)

    def is_zero(self) -> bool:
        return self.d == 0 and not any(self.m)

    def square(self) -> int:
        return intersect(self, self)

    def __add__(self, other):
        if not isinstance(other, ClassVector):
            return NotImplemented
        _require_same_rank(self, other, "add")
        return ClassVector(self.d + other.d, tuple(a + b for a, b in zip(self.m, other.m)))

    def __sub__(self, other):
        if not isinstance(other, ClassVector):
            return NotImplemented
        _require_same_rank(self, other, "subtract")
        return ClassVector(self.d - other.d, tuple(a - b for a, b in zip(self.m, other.m)))

    def __neg__(self) -> "ClassVector":
        return ClassVector(-self.d, tuple(-a for a in self.m))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return ClassVector(k * self.d, tuple(k * a for a in self.m))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.d}; {', '.join(str(a) for a in self.m)})"


def _require_same_rank(f: ClassVector, g: ClassVector, verb: str) -> None:
    if f.r != g.r:
        raise ValueError(
            f"cannot {verb} classes of different rank: r={f.r} versus r={g.r}"
        )


def intersect(f: ClassVector, g: ClassVector) -> int:
    """Intersection pairing: f.d*g.d - sum(f.m[i]*g.m[i]).

    Raises ValueError when the two classes live on blowups of different rank.
    """
    if len(f.m) != len(g.m):
        _require_same_rank(f, g, "pair")
    return f.d * g.d - sum(map(operator.mul, f.m, g.m))


def zero_class(r: int) -> ClassVector:
    return ClassVector(0, (0,) * r)


def e0_class(r: int) -> ClassVector:
    """The pullback of a general line."""
    return ClassVector(1, (0,) * r)


def exceptional_class(i: int, r: int) -> ClassVector:
    """The class e_i itself, as a ClassVector (so its m[i-1] entry is -1)."""
    if not 1 <= i <= r:
        raise ValueError(f"exceptional index {i} out of range 1..{r}")
    return ClassVector(0, tuple(-1 if k == i - 1 else 0 for k in range(r)))


def canonical_class(r: int) -> ClassVector:
    """The canonical class -3*e0 + e1 + ... + er."""
    return ClassVector(-3, (-1,) * r)


def anticanonical_degree(f: ClassVector) -> int:
    """The pairing f.(-K) = 3d - sum(m): the degree of f restricted to a
    cubic through the points."""
    return 3 * f.d - sum(f.m)


def nef_basis_class(i: int, r: int) -> ClassVector:
    """The i-th generator of the nef cone for a chain of points at a flex.

    Index 0 is e0, index 1 is e0-e1, index 2 is 2e0-e1-e2, and from index 3
    on the generator is 3e0-e1-...-ei.  Defined for 0 <= i <= r with r >= 3.
    """
    if r < 3:
        raise ValueError(f"nef basis needs rank at least 3, got r={r}")
    if not 0 <= i <= r:
        raise ValueError(f"nef basis index {i} out of range 0..{r}")
    if i == 0:
        return e0_class(r)
    if i == 1:
        return ClassVector(1, (1,) + (0,) * (r - 1))
    if i == 2:
        return ClassVector(2, (1, 1) + (0,) * (r - 2))
    return ClassVector(3, (1,) * i + (0,) * (r - i))


@dataclass(frozen=True)
class NefBasisCoefficients:
    """Coordinates of a class in the flex-chain nef basis.

    a has r+1 entries; entry i is the coefficient of nef_basis_class(i, r).
    minus_k_pairing is the pairing of the class against the anticanonical
    class, which the basis does not see directly but every nef test needs.
    """

    a: tuple[int, ...]
    minus_k_pairing: int


def nef_basis_coefficients(f: ClassVector) -> NefBasisCoefficients:
    """Triangular solve expressing f in the flex-chain nef basis.

    The solve inverts the basis in closed form: a[r] = m[r], a[i] = m[i] -
    m[i+1] for 0 < i < r, and a[0] = d - m[1] - m[2] - m[3] (1-based point
    indices).  Requires r >= 3.
    """
    r = f.r
    if r < 3:
        raise ValueError(f"nef basis coefficients need rank at least 3, got r={r}")
    a = [0] * (r + 1)
    a[r] = f.m[r - 1]
    for i in range(1, r):
        a[i] = f.m[i - 1] - f.m[i]
    a[0] = f.d - f.m[0] - f.m[1] - f.m[2]
    return NefBasisCoefficients(tuple(a), anticanonical_degree(f))
