import random

import pytest

from fatpoints.lattice import (
    ClassVector,
    canonical_class,
    e0_class,
    exceptional_class,
    intersect,
    nef_basis_class,
    nef_basis_coefficients,
    zero_class,
)


def random_class(rng, r, bound=9):
    return ClassVector(
        rng.randint(-bound, bound),
        tuple(rng.randint(-bound, bound) for _ in range(r)),
    )


def test_basic_construction():
    f = ClassVector(5, (3, 2, 2, 1, 3, 2))
    assert f.d == 5
    assert f.r == 6
    assert f.m[4] == 3
    assert str(f) == "(5; 3, 2, 2, 1, 3, 2)"


def test_pairing_orthogonal_basis():
    r = 7
    e0 = e0_class(r)
    assert intersect(e0, e0) == 1
    for i in range(1, r + 1):
        ei = exceptional_class(i, r)
        assert intersect(ei, ei) == -1
        assert intersect(e0, ei) == 0
        for j in range(i + 1, r + 1):
            assert intersect(ei, exceptional_class(j, r)) == 0


def test_exceptional_class_places_its_entry():
    for r in range(1, 8):
        for i in range(1, r + 1):
            cls = exceptional_class(i, r)
            assert cls.d == 0
            assert cls.m[i - 1] == -1
            assert sum(cls.m) == -1


def test_pairing_against_multiplicities():
    # F.e_i recovers the multiplicity m_i
    f = ClassVector(5, (3, 2, 2, 1, 3, 2))
    for i in range(1, 7):
        assert intersect(f, exceptional_class(i, 6)) == f.m[i - 1]


def test_arithmetic():
    f = ClassVector(2, (1, 0, 1))
    g = ClassVector(1, (1, 1, 0))
    assert f + g == ClassVector(3, (2, 1, 1))
    assert f - g == ClassVector(1, (0, -1, 1))
    assert -f == ClassVector(-2, (-1, 0, -1))
    assert 3 * f == ClassVector(6, (3, 0, 3))
    assert f * 3 == 3 * f
    assert (f - f).is_zero()


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        intersect(ClassVector(1, (1,)), ClassVector(1, (1, 1)))


def test_canonical_class_square():
    for r in range(0, 13):
        k = canonical_class(r)
        assert k.square() == 9 - r
        assert intersect(k, e0_class(r)) == -3


def test_bilinearity_property():
    rng = random.Random(401)
    for _ in range(500):
        r = rng.randint(1, 10)
        f = random_class(rng, r)
        g = random_class(rng, r)
        h = random_class(rng, r)
        a = rng.randint(-4, 4)
        assert intersect(f + g, h) == intersect(f, h) + intersect(g, h)
        assert intersect(a * f, h) == a * intersect(f, h)
        assert intersect(f, g) == intersect(g, f)


def test_square_matches_self_pairing():
    rng = random.Random(402)
    for _ in range(200):
        r = rng.randint(1, 9)
        f = random_class(rng, r)
        assert f.square() == intersect(f, f)


def extend_rank(f, r):
    """Reinterpret f on a larger blowup by appending zero multiplicities."""
    if r < f.r:
        raise ValueError(f"cannot shrink rank from {f.r} to {r}")
    return ClassVector(f.d, f.m + (0,) * (r - f.r))


def test_extend_rank():
    f = ClassVector(2, (1, 1))
    g = extend_rank(f, 5)
    assert g == ClassVector(2, (1, 1, 0, 0, 0))
    assert extend_rank(g, 5) == g
    with pytest.raises(ValueError):
        extend_rank(g, 3)


def test_nef_basis_pairings():
    # H_0 = e0, H_1 = e0-e1, H_2 = 2e0-e1-e2, H_i = 3e0-e1-...-ei
    r = 6
    assert nef_basis_class(0, r) == e0_class(r)
    assert nef_basis_class(1, r) == ClassVector(1, (1, 0, 0, 0, 0, 0))
    assert nef_basis_class(2, r) == ClassVector(2, (1, 1, 0, 0, 0, 0))
    assert nef_basis_class(5, r) == ClassVector(3, (1, 1, 1, 1, 1, 0))
    assert nef_basis_class(6, r) == ClassVector(3, (1, 1, 1, 1, 1, 1))


def test_nef_basis_round_trip():
    """Coefficients against the dual basis reassemble the class."""
    rng = random.Random(403)
    for _ in range(500):
        r = rng.randint(3, 12)
        f = random_class(rng, r)
        coeffs = nef_basis_coefficients(f)
        assert len(coeffs.a) == r + 1
        rebuilt = zero_class(r)
        for i, a in enumerate(coeffs.a):
            rebuilt = rebuilt + a * nef_basis_class(i, r)
        assert rebuilt == f
        assert coeffs.minus_k_pairing == intersect(-canonical_class(r), f)


def test_nef_basis_coefficients_low_rank_rejected():
    with pytest.raises(ValueError):
        nef_basis_coefficients(ClassVector(1, (1, 1)))
