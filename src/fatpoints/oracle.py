"""Brute-force check over a finite field.

Points get explicit coordinates on a model of the declared curve, vanishing
conditions become exact linear algebra mod p, and the Hilbert and generator
counts come from ranks.  Nothing here shares code with the lattice pipeline,
which is the point: agreement is evidence, not tautology.

Conditions always come from coefficient extraction after an affine change of
frame, never from derivatives: each condition row holds closed-form binomial
Taylor coefficients.  A report builds the rows once, at its top degree, with
columns ordered by degree, and reduces that matrix once; every lower degree's
matrix is a leading block of columns, so the one reduction gives h(d) and the
degree-d kernel for every d.  The field size p must be a prime with
5 <= p < 2^31, so that the product of two residues is exact in int64.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from math import comb

import numpy as np

from .configuration import (
    FatPointScheme,
    PointConfig,
    UnsupportedRuleError,
    ValidationError,
    validate,
)
from .cohomology import h0_any, make_context, regularity_bound
from .syzygy import generator_counts

DEFAULT_PRIME = 32003
_PRIME_LIMIT = 1 << 31
_SAMPLING_ATTEMPTS = 500


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 3, 5 and 7 decide every n
    below 3,215,031,751, which covers the whole field range."""
    bases = (2, 3, 5, 7)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in bases:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """The field rule: p is a prime with 5 <= p < 2^31."""
    if not (5 <= p < _PRIME_LIMIT and _is_prime(p)):
        raise ValidationError(
            f"the field size must be a prime p with 5 <= p < 2^31, got {p}",
            rule="prime-range",
        )


@dataclass(frozen=True)
class PointCoordinates:
    """Affine data for one point: a location, or a parent plus a direction."""

    x: int | None
    y: int | None
    parent: int | None
    tangent: tuple[int, int] | None


@dataclass(frozen=True)
class CoordinateAssignment:
    prime: int
    points: tuple[PointCoordinates, ...]


def _proper(x: int, y: int) -> PointCoordinates:
    return PointCoordinates(x, y, None, None)


def _near(parent: int, dx: int, dy: int) -> PointCoordinates:
    return PointCoordinates(None, None, parent, (dx, dy))


def _distinct_param(rng: random.Random, p: int, used: set[int], exclude_zero: bool) -> int:
    while True:
        t = rng.randrange(p)
        if t in used or (exclude_zero and t == 0):
            continue
        used.add(t)
        return t


def _collinear(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int], p: int) -> bool:
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return det % p == 0


def _sample_on_line(config: PointConfig, rng: random.Random, p: int) -> list[PointCoordinates]:
    used: set[int] = set()
    out: list[PointCoordinates] = []
    for pt in config.points:
        if pt.parent is None:
            out.append(_proper(_distinct_param(rng, p, used, False), 0))
        else:
            out.append(_near(pt.parent, 1, 0))
    return out


def _sample_on_parabola(config: PointConfig, rng: random.Random, p: int) -> list[PointCoordinates]:
    used: set[int] = set()
    params: dict[int, int] = {}
    out: list[PointCoordinates] = []
    for pt in config.points:
        if pt.parent is None:
            t = _distinct_param(rng, p, used, False)
            params[pt.id] = t
            out.append(_proper(t, t * t % p))
        else:
            t = params[pt.parent]
            out.append(_near(pt.parent, 1, 2 * t % p))
    return out


def _sample_on_two_lines(config: PointConfig, rng: random.Random, p: int) -> list[PointCoordinates]:
    shape = config.conic_shape
    on_a = set(config.lines[shape.line_a])
    on_b = set(config.lines[shape.line_b])
    shared = on_a & on_b
    used_a: set[int] = set()
    used_b: set[int] = set()
    out: list[PointCoordinates] = []
    for pt in config.points:
        if pt.parent is not None:
            # component membership fixes the direction, even over the node
            if pt.id in on_a:
                out.append(_near(pt.parent, 1, 0))
            else:
                out.append(_near(pt.parent, 0, 1))
        elif pt.id in shared:
            out.append(_proper(0, 0))
        elif pt.id in on_a:
            out.append(_proper(_distinct_param(rng, p, used_a, True), 0))
        else:
            out.append(_proper(0, _distinct_param(rng, p, used_b, True)))
    return out


def _sqrt_modp(value: int, p: int) -> int | None:
    if value == 0:
        return 0
    if pow(value, (p - 1) // 2, p) != 1:
        return None
    return pow(value, (p + 1) // 4, p)


def _sample_on_cubic(config: PointConfig, rng: random.Random, p: int) -> list[PointCoordinates]:
    if p % 4 != 3:
        raise ValueError("cubic sampling wants a prime that is 3 mod 4")
    if any(pt.parent is not None for pt in config.points):
        raise UnsupportedRuleError(
            "near points on the cubic have no coordinate model here"
        )
    spec = config.lambda_spec
    if spec is not None and spec.kind != "trivial":
        raise UnsupportedRuleError(
            "a declared nontrivial restriction kernel cannot be realized by "
            "random coordinates"
        )
    for _ in range(_SAMPLING_ATTEMPTS):
        chosen: list[tuple[int, int]] = []
        ok = True
        guard = 0
        while len(chosen) < config.r:
            guard += 1
            if guard > 50 * (config.r + 5):
                ok = False
                break
            x = rng.randrange(p)
            y = _sqrt_modp((x * x * x + x + 3) % p, p)
            if y is None:
                continue
            if rng.randrange(2):
                y = (-y) % p
            if (x, y) in chosen:
                continue
            chosen.append((x, y))
        if not ok:
            continue
        degenerate = any(
            _collinear(chosen[i], chosen[j], chosen[k], p)
            for i in range(config.r)
            for j in range(i + 1, config.r)
            for k in range(j + 1, config.r)
        )
        if not degenerate:
            return [_proper(x, y) for x, y in chosen]
    raise RuntimeError("internal error: could not sample a nondegenerate cubic point set")


def sample_coordinates(config: PointConfig, seed: int = 0, p: int = DEFAULT_PRIME) -> CoordinateAssignment:
    """Deterministic coordinates for the configuration over F_p."""
    validate(config)
    check_prime(p)
    return _sample(config, seed, p)


def _sample(config: PointConfig, seed: int, p: int) -> CoordinateAssignment:
    """``sample_coordinates`` for a configuration and prime already checked."""
    for pt in config.points:
        if config.depth_of(pt.id) > 1:
            raise UnsupportedRuleError(
                f"p{pt.id} is stacked more than one level deep; no coordinate "
                "model is available"
            )
    rng = random.Random(seed)
    kind = config.curve_kind
    if kind == "line":
        points = _sample_on_line(config, rng, p)
    elif kind == "conic":
        shape_kind = config.conic_shape.kind
        if shape_kind == "smooth":
            points = _sample_on_parabola(config, rng, p)
        elif shape_kind == "two_lines":
            points = _sample_on_two_lines(config, rng, p)
        else:
            points = _sample_on_line(config, rng, p)
    elif kind == "cubic_uniform":
        points = _sample_on_cubic(config, rng, p)
    else:
        raise UnsupportedRuleError(
            "a very general cubic cannot be realized over a finite field"
        )
    return CoordinateAssignment(p, tuple(points))


def _ncols(d: int) -> int:
    """Number of monomials x^a y^b with a + b <= d."""
    return (d + 1) * (d + 2) // 2


def _graded_exponents(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents (a, b) of the columns, by total degree e and then by b.

    x^a y^b with e = a + b sits in column e(e+1)/2 + b, so the columns of
    degree at most d are the first _ncols(d).
    """
    b = np.concatenate([np.arange(e + 1) for e in range(d + 1)])
    e = np.repeat(np.arange(d + 1), np.arange(1, d + 2))
    return e - b, b


def _binomial_powers(c: int, orders: int, d: int, p: int) -> np.ndarray:
    """out[i, a] = C(a, i) * c^(a - i) mod p: the u^i coefficient of (c + u)^a."""
    out = np.zeros((orders, d + 1), dtype=np.int64)
    powers = [pow(c, e, p) for e in range(d + 1)]
    for i in range(min(orders, d + 1)):
        for a in range(i, d + 1):
            out[i, a] = comb(a, i) % p * powers[a - i] % p
    return out


def _frame_coefficients(frame: tuple[int, int, int, int], k: int, p: int) -> list[list[int]]:
    """out[sigma][i]: the s^sigma t^(k-sigma) coefficient of u^i v^(k-i)
    for u = dx*s + ex*t and v = dy*s + ey*t."""
    dx, dy, ex, ey = frame
    out = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(k + 1):
        j = k - i
        for alpha in range(i + 1):
            u_part = comb(i, alpha) * pow(dx, alpha, p) * pow(ex, i - alpha, p)
            for beta in range(j + 1):
                v_part = comb(j, beta) * pow(dy, beta, p) * pow(ey, j - beta, p)
                out[alpha + beta][i] = (out[alpha + beta][i] + u_part * v_part) % p
    return out


def _rows_for_point(
    location: tuple[int, int],
    frame: tuple[int, int, int, int],
    wanted: list[tuple[int, int]],
    d: int,
    p: int,
) -> np.ndarray:
    """Row (sigma, tau): the s^sigma t^tau coefficient of each column monomial
    after substituting x = x0 + dx*s + ex*t, y = y0 + dy*s + ey*t.

    The substitution factors through u = x - x0, v = y - y0: the u^i v^j
    coefficient of x^a y^b is C(a, i) x0^(a-i) C(b, j) y0^(b-j), and the
    frame turns u^i v^j with i + j = k into a form of degree k in s and t.
    """
    a, b = _graded_exponents(d)
    orders = max(sigma + tau for sigma, tau in wanted) + 1
    x_part = _binomial_powers(location[0], orders, d, p)[:, a]
    y_part = _binomial_powers(location[1], orders, d, p)[:, b]
    rows = np.zeros((len(wanted), a.size), dtype=np.int64)
    frames = {k: _frame_coefficients(frame, k, p) for k in {s + t for s, t in wanted}}
    for rix, (sigma, tau) in enumerate(wanted):
        k = sigma + tau
        for i, coeff in enumerate(frames[k][sigma]):
            if coeff:
                taylor = x_part[i] * y_part[k - i] % p
                rows[rix] = (rows[rix] + coeff * taylor) % p
    return rows


def _conditions_matrix(coords: CoordinateAssignment, mults, d: int) -> np.ndarray:
    """All point conditions on forms of degree d, one row each, columns in
    the graded order of _graded_exponents."""
    p = coords.prime
    if len(mults) != len(coords.points):
        raise ValueError("multiplicity count does not match the coordinate list")
    blocks = []
    for pid, (pt, m) in enumerate(zip(coords.points, mults), start=1):
        if m <= 0:
            continue
        if pt.parent is None:
            wanted = [(s, t) for s in range(m) for t in range(m - s)]
            blocks.append(_rows_for_point((pt.x, pt.y), (1, 0, 0, 1), wanted, d, p))
        else:
            parent = coords.points[pt.parent - 1]
            if parent.parent is not None:
                raise UnsupportedRuleError("chains deeper than one level are unsupported")
            base = mults[pt.parent - 1]
            if base <= 0:
                raise ValueError(
                    f"near point p{pid} has a parent of nonpositive multiplicity"
                )
            dx, dy = pt.tangent
            frame = (dx % p, dy % p, (-dy) % p, dx % p)
            wanted = [
                (k - j, j) for k in range(base, base + m) for j in range(base + m - k)
            ]
            blocks.append(_rows_for_point((parent.x, parent.y), frame, wanted, d, p))
    if not blocks:
        return np.zeros((0, _ncols(d)), dtype=np.int64)
    return np.vstack(blocks)


def _row_reduce(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p and its pivot columns.

    Each pivot clears its column from every other row in one step.  Entries
    stay below p < 2^31, so every product fits in int64.  Columns are taken
    left to right and later pivot rows are zero on earlier columns, so for
    every leading block of columns the leading rows of the result,
    restricted to that block, are the block's own reduced echelon form.
    """
    m = mat % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        support = np.flatnonzero(m[rank:, col])
        if support.size == 0:
            continue
        lead = rank + int(support[0])
        if lead != rank:
            m[[rank, lead]] = m[[lead, rank]]
        m[rank, col:] = m[rank, col:] * pow(int(m[rank, col]), -1, p) % p
        others = np.flatnonzero(m[:, col])
        others = others[others != rank]
        if others.size:
            m[others, col:] = (m[others, col:] - np.outer(m[others, col], m[rank, col:])) % p
        pivots.append(col)
    return m, pivots


def _free_columns(pivots: list[int], start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 that hold no pivot; pivots ascend."""
    free = np.ones(stop, dtype=bool)
    free[pivots[: bisect_left(pivots, stop)]] = False
    return start + np.flatnonzero(free[start:])


def _nullspace_modp(rref: np.ndarray, pivots: list[int], ncols: int, p: int) -> np.ndarray:
    """Kernel basis, one column per free column, read off the leading ncols
    columns of a reduced echelon form.  Each basis vector is 1 at its own
    free column and 0 at the other free columns."""
    pivots = pivots[: bisect_left(pivots, ncols)]
    free = _free_columns(pivots, 0, ncols)
    basis = np.zeros((ncols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots, :] = (-rref[: len(pivots)][:, free]) % p
    return basis


@dataclass(frozen=True)
class _Eliminated:
    """The conditions matrix up to some degree, reduced once.  By the
    leading-block property of _row_reduce it answers every lower degree."""

    rref: np.ndarray
    pivots: list[int]
    prime: int

    def hilbert(self, d: int) -> int:
        """Dimension of the degree-d forms satisfying all conditions."""
        ncols = _ncols(d)
        return ncols - bisect_left(self.pivots, ncols)

    def generators(self, d: int) -> int:
        """Minimal generators in degree d.

        They number h(d) less the dimension of the span of x*K, y*K and K in
        degree d, K the degree d-1 kernel.  A kernel vector is fixed by its
        free coordinates, and K is the identity on the free columns of
        degree below d, which stay free in degree d; so the span's dimension
        is dim K plus the rank of x*K and y*K on the new free columns.
        """
        if d <= 0:
            return self.hilbert(0) if d == 0 else 0
        low, high = _ncols(d - 1), _ncols(d)
        new_free = _free_columns(self.pivots, low, high) - low
        if new_free.size == 0:
            return 0
        kernel = _nullspace_modp(self.rref, self.pivots, low, self.prime)
        # x^a y^b of degree d-1 is column offset b among its degree; times x
        # it lands at offset b of degree d, times y at offset b + 1
        top = kernel[_ncols(d - 2):].T
        shifted = np.zeros((2 * top.shape[0], d + 1), dtype=np.int64)
        shifted[: top.shape[0], :d] = top
        shifted[top.shape[0]:, 1:] = top
        return new_free.size - len(_row_reduce(shifted[:, new_free], self.prime)[1])


def _eliminate(coords: CoordinateAssignment, mults, d: int) -> _Eliminated:
    p = coords.prime
    if p <= d:
        raise ValueError(f"prime {p} does not exceed the degree {d}")
    return _Eliminated(*_row_reduce(_conditions_matrix(coords, mults, d), p), p)


def hilbert_oracle(coords: CoordinateAssignment, mults, d: int) -> int:
    """Dimension of the degree-d forms satisfying all point conditions."""
    if d < 0:
        return 0
    return _eliminate(coords, mults, d).hilbert(d)


def nu_oracle(coords: CoordinateAssignment, mults, d: int) -> int:
    """Minimal generators of the conditions ideal in degree d+1."""
    if d < -1:
        return 0
    return _eliminate(coords, mults, d + 1).generators(d + 1)


@dataclass(frozen=True)
class OracleReport:
    prime: int
    seed: int
    degrees: tuple[int, ...]
    h_values: tuple[int, ...]
    nu_values: tuple[int, ...]
    pipeline_h: tuple[int, ...]
    pipeline_nu: tuple[int, ...]

    @property
    def h_agreement(self) -> tuple[bool, ...]:
        return tuple(a == b for a, b in zip(self.h_values, self.pipeline_h))

    @property
    def nu_agreement(self) -> tuple[bool, ...]:
        return tuple(a == b for a, b in zip(self.nu_values, self.pipeline_nu))

    @property
    def all_agree(self) -> bool:
        return all(self.h_agreement) and all(self.nu_agreement)


def oracle_report(
    scheme: FatPointScheme,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
    max_degree: int | None = None,
) -> OracleReport:
    """Compare oracle and pipeline values across the interesting degrees."""
    check_prime(p)
    # regularity_bound checks the proximity inequalities first
    reg = regularity_bound(scheme)
    context = make_context(scheme.config)
    top = max_degree if max_degree is not None else reg + 1
    top = max(top, 0)
    if p <= 2 * top + 1:
        raise ValueError(f"prime {p} too small for degrees up to {top}")
    coords = _sample(scheme.config, seed, p)
    degrees = tuple(range(top + 1))
    reduced = _eliminate(coords, scheme.multiplicities, top)
    h_values = tuple(reduced.hilbert(d) for d in degrees)
    nu_values = tuple(reduced.generators(d) for d in degrees)
    answers = [h0_any(scheme.to_class(d), context) for d in degrees]
    pipeline_h = tuple(answer.h0 for answer in answers)
    counts = generator_counts(scheme, answers, reg)
    pipeline_nu = tuple(count.value for count in counts)
    return OracleReport(p, seed, degrees, h_values, nu_values, pipeline_h, pipeline_nu)


__all__ = [
    "CoordinateAssignment",
    "DEFAULT_PRIME",
    "OracleReport",
    "PointCoordinates",
    "check_prime",
    "hilbert_oracle",
    "nu_oracle",
    "oracle_report",
    "sample_coordinates",
]
