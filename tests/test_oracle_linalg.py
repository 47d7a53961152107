"""The oracle's linear algebra mod p against sympy, an independent path.

sympy's DomainMatrix over GF(p) checks the row-by-row elimination and the
plain-integer rank of the generator count, and sympy's polynomial
expansion checks the closed-form condition rows.
"""

import random

import numpy as np
import pytest
from sympy import GF, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from fatpoints.configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    Point,
    PointConfig,
)
from fatpoints.oracle import (
    _conditions_matrix,
    _eliminate,
    _graded_exponents,
    _Monomials,
    _ncols,
    _rank_mod,
    _row_reduce,
    _rows_for_point,
    sample_coordinates,
)

PRIMES = (32003, 2**31 - 1)


def random_matrix(rng, p, shape):
    nrows, ncols = {"tall": (14, 6), "wide": (6, 14), "square": (9, 9)}[shape]
    return np.array(
        [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], dtype=np.int64
    )


def rank_deficient(rng, p, nrows, ncols, rank):
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    return np.array(
        [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left],
        dtype=np.int64,
    )


def with_zero_rows(rng, mat):
    out = mat.copy()
    out[rng.sample(range(mat.shape[0]), mat.shape[0] // 3)] = 0
    return out


def sample_matrices(p, seed):
    rng = random.Random(seed)
    mats = [random_matrix(rng, p, shape) for shape in ("tall", "wide", "square")]
    mats.append(rank_deficient(rng, p, 10, 12, 4))
    mats.append(rank_deficient(rng, p, 12, 7, 3))
    mats.append(with_zero_rows(rng, rank_deficient(rng, p, 9, 11, 5)))
    mats.append(with_zero_rows(rng, random_matrix(rng, p, "tall")))
    # a sparse matrix with repeated columns, so that some columns hold no pivot
    sparse = rank_deficient(rng, p, 8, 10, 6)
    sparse[:, [2, 5]] = sparse[:, [1, 1]]
    sparse[:, 7] = 0
    mats.append(sparse)
    # rows whose leading columns descend, so that no row leads where it sits
    stairs = random_matrix(rng, p, "wide")
    for row in range(stairs.shape[0]):
        stairs[row, : 2 * (stairs.shape[0] - 1 - row)] = 0
    mats.append(stairs)
    mats.append(np.zeros((0, 5), dtype=np.int64))
    mats.append(np.zeros((4, 6), dtype=np.int64))
    return mats


def sympy_matrix(mat, p):
    field = GF(p)
    return DomainMatrix(
        [[field(int(v)) for v in row] for row in mat.tolist()], mat.shape, field
    )


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(3))
def test_row_reduce_matches_sympy(p, seed):
    for mat in sample_matrices(p, seed):
        nrows, ncols = mat.shape
        rref, pivots = _row_reduce(mat, p)
        reference = sympy_matrix(mat, p)
        ref_rref, ref_pivots = reference.rref()
        assert reference.rank() == len(pivots)
        assert list(ref_pivots) == pivots
        got = [[int(v) for v in row] for row in rref.tolist()]
        want = [[int(v) % p for v in row] for row in ref_rref.to_Matrix().tolist()]
        assert got == want


@pytest.mark.parametrize("p", PRIMES)
def test_leading_columns_reduce_alone(p):
    """Every leading block of columns reduces to the leading block of the
    whole matrix's reduced form; one reduction serves every degree."""
    for mat in sample_matrices(p, 7):
        rref, pivots = _row_reduce(mat, p)
        for ncols in range(mat.shape[1] + 1):
            block_rref, block_pivots = sympy_matrix(mat[:, :ncols], p).rref()
            rank = len(block_pivots)
            assert list(block_pivots) == [c for c in pivots if c < ncols]
            want = [[int(v) % p for v in row] for row in block_rref.to_Matrix().tolist()[:rank]]
            assert rref[:rank, :ncols].tolist() == want


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(3))
def test_rank_mod_matches_sympy(p, seed):
    for mat in sample_matrices(p, seed):
        assert _rank_mod(mat.tolist(), p) == sympy_matrix(mat, p).rank()


@pytest.mark.parametrize("p", PRIMES)
def test_condition_rows_match_expansion(p):
    """Row (sigma, tau) holds the s^sigma t^tau coefficient of every column
    monomial under x = x0 + dx*s + ex*t, y = y0 + dy*s + ey*t, in a random
    frame and in the identity frame (dx = 1, dy = 0); also in a degree
    below the rows' order, where the rows of higher order are zero."""
    s, t = symbols("s t")
    rng = random.Random(p)
    wanted = [(sigma, tau) for sigma in range(4) for tau in range(4 - sigma)]
    for d, identity in ((5, False), (5, True), (1, False), (1, True)):
        a_exp, b_exp = _graded_exponents(d)
        monomials = _Monomials.build(4, d, p)
        for _ in range(4):
            x0, y0, dx, dy = (rng.randrange(p) for _ in range(4))
            if identity:
                dx, dy = 1, 0
            frame = (dx, dy, (-dy) % p, dx)
            rows = _rows_for_point((x0, y0), frame, wanted, monomials)
            assert rows.shape == (len(wanted), _ncols(d))
            for col, (a, b) in enumerate(zip(a_exp.tolist(), b_exp.tolist())):
                poly = Poly((x0 + dx * s - dy * t) ** a * (y0 + dy * s + dx * t) ** b, s, t)
                for rix, (sigma, tau) in enumerate(wanted):
                    assert rows[rix, col] == poly.coeff_monomial(s**sigma * t**tau) % p


def multiply_into(vector, d, shift, p):
    """A degree-d form in graded columns times x (shift 0), y (shift 1) or 1."""
    a_exp, b_exp = _graded_exponents(d)
    out = np.zeros(_ncols(d + 1), dtype=np.int64)
    for value, a, b in zip(vector.tolist(), a_exp.tolist(), b_exp.tolist()):
        if shift == 0:
            a += 1
        elif shift == 1:
            b += 1
        e = a + b
        out[e * (e + 1) // 2 + b] = value % p
    return out


def generators_by_span(coords, mults, d, p):
    """h(d) less the rank of x*K, y*K and K in degree d, K the degree d-1
    kernel, with every rank and kernel taken by sympy."""
    conditions = _conditions_matrix(coords, mults, d)
    h_up = _ncols(d) - sympy_matrix(conditions, p).rank()
    low = conditions[:, : _ncols(d - 1)]
    kernel = sympy_matrix(low, p).nullspace().to_Matrix().tolist()
    if not kernel:
        return h_up
    span = np.array(
        [
            multiply_into(np.array([int(v) % p for v in vec], dtype=np.int64), d - 1, shift, p)
            for vec in kernel
            for shift in (0, 1, 2)
        ],
        dtype=np.int64,
    )
    return h_up - sympy_matrix(span, p).rank()


def conic(points, lines, shape, mults):
    return FatPointScheme(PointConfig("conic", points, lines, shape), mults)


# one scheme for each case of the sampler, with its top degree
SPAN_SCHEMES = {
    "line_near": (
        FatPointScheme(
            PointConfig("line", (Point(1), Point(2), Point(3, parent=1)), ((1, 2, 3),)),
            (3, 2, 2),
        ),
        7,
    ),
    "smooth_near": (
        conic(
            (Point(1), Point(2), Point(3), Point(4, parent=1)),
            (),
            ConicShape("smooth"),
            (3, 2, 2, 2),
        ),
        7,
    ),
    "two_lines": (
        conic(
            (Point(1), Point(2), Point(3), Point(4), Point(5), Point(6, parent=5)),
            ((1, 2, 3, 4), (1, 5, 6)),
            ConicShape("two_lines", line_a=0, line_b=1),
            (3, 2, 2, 1, 3, 2),
        ),
        8,
    ),
    "two_lines_node_near": (
        conic(
            (Point(1), Point(2), Point(3), Point(4, parent=1), Point(5), Point(6, parent=1)),
            ((1, 2, 3, 4), (1, 5, 6)),
            ConicShape("two_lines", line_a=0, line_b=1),
            (3, 2, 1, 1, 2, 1),
        ),
        8,
    ),
    "double_line": (
        conic(
            (Point(1), Point(2), Point(3), Point(4)),
            ((1, 2, 3, 4),),
            ConicShape("double_line", line_a=0),
            (2, 2, 1, 1),
        ),
        6,
    ),
    "uniform_cubic": (
        FatPointScheme(
            PointConfig(
                "cubic_uniform",
                tuple(Point(i) for i in range(1, 11)),
                lambda_spec=LambdaSpec("trivial"),
            ),
            (1,) * 10,
        ),
        10,
    ),
}


def test_generators_match_full_span():
    """The count from the degree d-1 kernel block equals the count from the
    full span of x*K, y*K and K, with K the whole kernel taken by sympy."""
    for name, (scheme, top) in SPAN_SCHEMES.items():
        coords = sample_coordinates(scheme.config, seed=1)
        p = coords.prime
        reduced = _eliminate(coords, scheme.multiplicities, top)
        for d in range(1, top + 1):
            want = generators_by_span(coords, scheme.multiplicities, d, p)
            assert reduced.generators(d) == want, (name, d)
