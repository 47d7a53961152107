"""Brute-force check over a finite field.

Points get explicit coordinates on a model of the declared curve, vanishing
conditions become exact linear algebra mod p, and the Hilbert and generator
counts come from ranks.  Nothing here shares code with the lattice pipeline,
which is the point: agreement is evidence, not tautology.

One sampler, _sample_on_conic, puts the points of every line and conic shape
on two components through the origin; the uniform cubic takes proper points
on y^2 = x^3 + x + 3.

Conditions always come from coefficient extraction after an affine change of
frame, never from derivatives: each condition row holds closed-form binomial
Taylor coefficients.  A matrix takes its column exponents and one Pascal
table mod p once; a point then needs only the powers of its coordinates, and
a proper point's rows are one product of its x and y Taylor parts.  A report
builds the rows once, with columns ordered by degree, and reduces that matrix
once, one pass per row.  Every lower degree's matrix is a leading block of
columns, and the reduced echelon form is unique, so the one reduction gives
h(d) for every lower d; the degree d-1 block of its kernel gives the
generators in degree d, through the rank of a small matrix of plain ints.
numpy holds the conditions matrix and its reduction; nothing else needs it.

The report builds at min(top, tau + 1), tau the pipeline's regularity index.
Once the oracle's own conditions are independent in some degree e, h(d) is
the column count less the row count for every d >= e and no generator has
degree above e + 1, so e + 1 <= tau + 1 answers the whole table.  Otherwise
the matrix is built again at the top degree.  A matrix of more than
_WORK_BOUND entries is refused before any row is built.  The field size p
must be a prime with 5 <= p < 2^31, so that the product of two residues is
exact in int64.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from math import comb, isqrt

import numpy as np

from .configuration import (
    FatPointScheme,
    PointConfig,
    UnsupportedRuleError,
    ValidationError,
    validate,
)
from .cohomology import make_context, regularity_bound, regularity_index, section_answers
from .syzygy import generator_counts

DEFAULT_PRIME = 32003
_PRIME_LIMIT = 1 << 31
_SAMPLING_ATTEMPTS = 500
# matrix entries a conditions matrix may hold: 80 MB of int64
_WORK_BOUND = 10**7


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


def _sample_on_conic(config: PointConfig, rng: random.Random, p: int) -> list[PointCoordinates]:
    """Coordinates on a line or conic, as points of two components.

    Component A is y = 0, or y = x^2 on a smooth conic; component B is x = 0,
    the second line of a ``two_lines`` shape, whose node is the origin.  Each
    component draws distinct parameters, never 0 on two lines.  A near point
    takes its component's direction at its parent: (1, 0) on a line, (1, 2t)
    on the smooth conic at parameter t, and (0, 1) on component B.
    """
    shape = config.conic_shape
    smooth = shape is not None and shape.kind == "smooth"
    two_lines = shape is not None and shape.kind == "two_lines"
    on_b = node = frozenset()
    if two_lines:
        line_a, line_b = set(config.lines[shape.line_a]), set(config.lines[shape.line_b])
        on_b, node = line_b - line_a, line_a & line_b
    drawn = [pt for pt in config.points if pt.parent is None and pt.id not in node]
    on_a = sum(pt.id not in on_b for pt in drawn)
    params = p - 1 if two_lines else p
    if max(on_a, len(drawn) - on_a) > params:
        raise UnsupportedRuleError(
            f"a component holds {max(on_a, len(drawn) - on_a)} proper points but "
            f"F_{p} gives it only {params} distinct parameters"
        )
    used: tuple[set[int], set[int]] = (set(), set())
    out: list[PointCoordinates] = []
    for pt in config.points:
        b = pt.id in on_b
        if pt.parent is not None:
            slope = 2 * out[pt.parent - 1].x % p if smooth else 0
            out.append(_near(pt.parent, 0, 1) if b else _near(pt.parent, 1, slope))
        elif pt.id in node:
            out.append(_proper(0, 0))
        else:
            t = _distinct_param(rng, p, used[b], two_lines)
            out.append(_proper(0, t) if b else _proper(t, t * t % p if smooth else 0))
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
    raise UnsupportedRuleError(
        f"no {config.r} points in general position on the cubic over F_{p} "
        f"were found in {_SAMPLING_ATTEMPTS} draws"
    )


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
    if kind in ("line", "conic"):
        points = _sample_on_conic(config, rng, p)
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
    e = np.repeat(np.arange(d + 1), np.arange(1, d + 2))
    b = np.arange(e.size) - e * (e + 1) // 2
    return e - b, b


@dataclass(frozen=True)
class _Monomials:
    """The column monomials x^a y^b of one conditions matrix with the
    binomial factors of their Taylor coefficients, built once per matrix.
    For the exponent e = a, then e = b: row i holds C(e, i) mod p and the
    power e - i, taken as 0 where i > e, since C(e, i) = 0 there."""

    d: int
    prime: int
    binomials: tuple[np.ndarray, np.ndarray]
    lags: tuple[np.ndarray, np.ndarray]

    @classmethod
    def build(cls, orders: int, d: int, p: int) -> "_Monomials":
        a, b = _graded_exponents(d)
        pascal = np.array(
            [[comb(e, i) % p for e in range(d + 1)] for i in range(orders)], dtype=np.int64
        )
        lags = np.maximum(np.arange(d + 1) - np.arange(orders)[:, None], 0)
        return cls(d, p, (pascal[:, a], pascal[:, b]), (lags[:, a], lags[:, b]))

    def taylor(self, location: tuple[int, int], orders: int) -> list[np.ndarray]:
        """For (x0, y0) = location: row i < orders holds, at each column
        x^a y^b, the u^i coefficient of (x0 + u)^a, and then of (y0 + u)^b."""
        p = self.prime
        parts = []
        for c, binomials, lags in zip(location, self.binomials, self.lags):
            powers = [1]
            for _ in range(self.d):
                powers.append(powers[-1] * c % p)
            parts.append(binomials[:orders] * np.array(powers)[lags[:orders]] % p)
        return parts


_IDENTITY = (1, 0, 0, 1)


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
    monomials: _Monomials,
) -> np.ndarray:
    """Row (sigma, tau): the s^sigma t^tau coefficient of each column monomial
    after substituting x = x0 + dx*s + ex*t, y = y0 + dy*s + ey*t.

    The substitution factors through u = x - x0, v = y - y0: the u^i v^j
    coefficient of x^a y^b is C(a, i) x0^(a-i) C(b, j) y0^(b-j), and the
    frame turns u^i v^j with i + j = k into a form of degree k in s and t.
    In the identity frame that form is s^i t^j itself.
    """
    p = monomials.prime
    orders = max(sigma + tau for sigma, tau in wanted) + 1
    x_part, y_part = monomials.taylor(location, orders)
    if frame == _IDENTITY:
        sigmas, taus = zip(*wanted)
        return x_part[list(sigmas)] * y_part[list(taus)] % p
    rows = np.zeros((len(wanted), x_part.shape[1]), dtype=np.int64)
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
    the graded order of _graded_exponents.  A point of multiplicity m
    imposes m(m+1)/2 of them; past _WORK_BOUND entries nothing is built."""
    p = coords.prime
    if len(mults) != len(coords.points):
        raise ValueError("multiplicity count does not match the coordinate list")
    nrows = sum(m * (m + 1) // 2 for m in mults if m > 0)
    if nrows * _ncols(d) > _WORK_BOUND:
        raise UnsupportedRuleError(
            f"oracle work bound exceeded: {nrows} conditions on the {_ncols(d)} "
            f"monomials of degree at most {d} make {nrows * _ncols(d)} matrix "
            f"entries, above {_WORK_BOUND}"
        )
    if nrows == 0:
        return np.zeros((0, _ncols(d)), dtype=np.int64)
    # a near point's rows reach order base + m - 1, base its parent's m
    orders = max(
        m if pt.parent is None else m + max(mults[pt.parent - 1], 0)
        for pt, m in zip(coords.points, mults)
        if m > 0
    )
    monomials = _Monomials.build(orders, d, p)
    blocks = []
    for pid, (pt, m) in enumerate(zip(coords.points, mults), start=1):
        if m <= 0:
            continue
        if pt.parent is None:
            wanted = [(s, t) for s in range(m) for t in range(m - s)]
            blocks.append(_rows_for_point((pt.x, pt.y), _IDENTITY, wanted, monomials))
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
            blocks.append(_rows_for_point((parent.x, parent.y), frame, wanted, monomials))
    return np.vstack(blocks)


def _row_reduce(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p and its pivot columns.

    One pass per row: the row's leading nonzero entry becomes a pivot, and
    its column is cleared from every other row.  A later row is then zero on
    every earlier pivot column, so its leading entry starts a new pivot, and
    no row gains an entry left of its own leading one.  The pivot rows,
    sorted by column, are the reduced echelon form, which is unique.
    Entries stay below p < 2^31, so every product fits in int64.  By that
    uniqueness, for every leading block of columns the leading rows of the
    result, restricted to that block, are the block's own reduced echelon
    form.
    """
    m = mat % p
    leads: list[tuple[int, int]] = []
    for row in range(m.shape[0]):
        support = m[row].nonzero()[0]
        if support.size == 0:
            continue
        col = int(support[0])
        pivot = m[row, col:] * pow(int(m[row, col]), -1, p) % p
        # the pivot row is among the others too; it is set after
        others = m[:, col].nonzero()[0]
        m[others, col:] = (m[others, col:] - np.outer(m[others, col], pivot)) % p
        m[row, col:] = pivot
        leads.append((col, row))
    leads.sort()
    pivot_rows = [row for _, row in leads]
    zero_rows = sorted(set(range(m.shape[0])).difference(pivot_rows))
    return m[pivot_rows + zero_rows], [col for col, _ in leads]


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank mod p of a small matrix of plain ints, by forward elimination."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        lead = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if lead is None:
            continue
        rows[rank], rows[lead] = rows[lead], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        pivot = [v * inverse % p for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col]
            if factor:
                rows[i] = [(v - factor * w) % p for v, w in zip(rows[i], pivot)]
        rank += 1
    return rank


@dataclass(frozen=True)
class _Eliminated:
    """The conditions matrix up to some degree, reduced once.  By the
    leading-block property of _row_reduce it answers every lower degree."""

    rref: np.ndarray
    pivots: list[int]
    prime: int

    @property
    def full_rank_degree(self) -> int | None:
        """The least degree whose leading column block holds every pivot, if
        the conditions are independent there; None if they never are.

        From this degree e on, h(d) is the column count less the row count,
        and the ideal is (e + 1)-regular, so no generator has degree above
        e + 1 (Eisenbud, The Geometry of Syzygies, ch. 4).
        """
        if len(self.pivots) < self.rref.shape[0]:
            return None
        if not self.pivots:
            return 0
        # column c has degree e where e(e+1)/2 <= c < (e+1)(e+2)/2
        return (isqrt(8 * self.pivots[-1] + 1) - 1) // 2

    def hilbert(self, d: int) -> int:
        """Dimension of the degree-d forms satisfying all conditions; past
        the reduced degree, valid only from ``full_rank_degree`` on."""
        ncols = _ncols(d)
        return ncols - bisect_left(self.pivots, ncols)

    def generators(self, d: int) -> int:
        """Minimal generators in degree d.

        They number h(d) less the dimension of the span of x*K, y*K and K in
        degree d, K the degree d-1 kernel.  A kernel vector is fixed by its
        free coordinates, and K is the identity on the free columns of
        degree below d, which stay free in degree d; so the span's dimension
        is dim K plus the rank of x*K and y*K on the new free columns.  Only
        K's degree d-1 block reaches them, with one row per free column c of
        degree d-1: 1 at c, and minus the reduced matrix's column c at each
        pivot of degree d-1.  Kernel vectors of lower free columns vanish in
        degree d-1.
        """
        if d <= 0:
            return self.hilbert(0) if d == 0 else 0
        start, low, high = _ncols(d - 2), _ncols(d - 1), _ncols(d)
        first, last, top = (bisect_left(self.pivots, c) for c in (start, low, high))
        taken = {c - low for c in self.pivots[last:top]}
        new_free = [c for c in range(d + 1) if c not in taken]
        if not new_free:
            return 0
        # the pivot rows of degree d-1 on the degree d-1 columns, by offset
        leads = [c - start for c in self.pivots[first:last]]
        block = self.rref[first:last, start:low].tolist()
        p = self.prime
        shifted = []
        for c in range(d):
            if c in leads:
                continue
            vector = [0] * d
            vector[c] = 1
            for lead, row in zip(leads, block):
                vector[lead] = -row[c] % p
            # x^a y^b of degree d-1 is column offset b among its degree;
            # times x it lands at offset b of degree d, times y at b + 1
            for product in (vector + [0], [0] + vector):
                shifted.append([product[col] for col in new_free])
        return len(new_free) - _rank_mod(shifted, p)


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
    answers = section_answers(scheme, context, degrees)
    pipeline_h = tuple(answer.h0 for answer in answers)
    counts = generator_counts(scheme, answers, reg)
    pipeline_nu = tuple(count.value for count in counts)
    # the pipeline only picks the degree to reduce at; every oracle value
    # comes from the oracle's own rank, and past its full-rank degree + 1
    # from the regularity theorem: h from the rank, and no generators
    build = min(top, regularity_index(scheme, pipeline_h) + 1)
    reduced = _eliminate(coords, scheme.multiplicities, build)
    full = reduced.full_rank_degree
    last = top if full is None else min(top, full + 1)
    if last > build:
        reduced = _eliminate(coords, scheme.multiplicities, top)
    h_values = tuple(reduced.hilbert(d) for d in degrees)
    nu_values = tuple(reduced.generators(d) if d <= last else 0 for d in degrees)
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
