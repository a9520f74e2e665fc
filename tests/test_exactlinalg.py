"""Sparse exact matrices, canonical subspaces, and minimal polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeb.exactlinalg import (
    ExactMatrix,
    ShapeMismatch,
    Subspace,
    commutant_dimension,
    hstack,
    intertwiner_dimension,
    matrix_algebra_dimension,
    minimal_polynomial,
    poly_divmod,
    poly_eval_matrix,
    poly_gcd_monic,
    poly_is_squarefree,
    poly_lcm,
    poly_mul,
    vstack,
)

ONE = Fraction(1)


def dense(rows):
    m = ExactMatrix(len(rows), len(rows[0]) if rows else 0, one=ONE)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                m.entries[(i, j)] = Fraction(v)
    return m


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def matrices(draw, nrows=3, ncols=3):
    rows = [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]
    return dense(rows)


class TestExactMatrix:
    @given(matrices(), matrices(), matrices())
    @settings(max_examples=30, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        ident = ExactMatrix.identity(3, ONE)
        assert a * ident == a and ident * a == a

    @given(matrices())
    @settings(max_examples=30, deadline=None)
    def test_rank_matches_kernel(self, a):
        assert a.rank() + a.kernel().dim == a.ncols
        assert a.nullity() == a.kernel().dim

    @given(matrices())
    @settings(max_examples=30, deadline=None)
    def test_kernel_vectors_annihilate(self, a):
        for vec in a.kernel_basis():
            assert not a.apply(vec)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            dense([[1, 2]]) * dense([[1, 2]])

    def test_kron(self):
        a = dense([[1, 2], [0, 1]])
        b = dense([[0, 1], [1, 0]])
        k = a.kron(b)
        assert k.nrows == 4 and k.entries[(0, 1)] == 1 and k.entries[(0, 3)] == 2

    def test_transpose_and_stack(self):
        a = dense([[1, 2, 3]])
        assert a.transpose() == dense([[1], [2], [3]])
        assert vstack([a, a]).nrows == 2
        assert hstack([a.transpose(), a.transpose()]).ncols == 2

    def test_pow(self):
        a = dense([[1, 1], [0, 1]])
        assert a**3 == dense([[1, 3], [0, 1]])
        assert a**0 == ExactMatrix.identity(2, ONE)


class TestSubspace:
    def test_canonical_under_shuffle(self):
        rng = random.Random(7)
        vecs = [
            {0: Fraction(1), 2: Fraction(3)},
            {1: Fraction(2), 2: Fraction(1)},
            {0: Fraction(2), 1: Fraction(2), 2: Fraction(7)},
        ]
        base = Subspace(4, vecs, ONE)
        for _ in range(10):
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            mixed = [dict(v) for v in shuffled]
            # also throw in a random linear combination
            extra = {}
            for v in mixed:
                c = Fraction(rng.randint(-3, 3))
                for k, x in v.items():
                    extra[k] = extra.get(k, Fraction(0)) + c * x
            other = Subspace(4, mixed + [extra], ONE)
            assert other == base

    def test_dim_and_membership(self):
        s = Subspace(3, [{0: ONE}, {1: ONE}], ONE)
        assert s.dim == 2
        assert s.contains({0: Fraction(5), 1: Fraction(-1)})
        assert not s.contains({2: ONE})

    def test_coordinates_reconstruct(self):
        s = Subspace(3, [{0: ONE, 1: ONE}, {2: Fraction(2)}], ONE)
        v = {0: Fraction(3), 1: Fraction(3), 2: Fraction(4)}
        coords = s.coordinates(v)
        basis = s.basis()
        rebuilt = {}
        for idx, c in coords.items():
            for k, x in basis[idx].items():
                rebuilt[k] = rebuilt.get(k, Fraction(0)) + c * x
        assert {k: v for k, v in rebuilt.items() if v} == v
        assert s.coordinates({0: ONE}) is None


class TestPolynomials:
    def test_divmod(self):
        # (x^2 - 1) = (x + 1)(x - 1)
        p = [Fraction(-1), Fraction(0), ONE]
        q, r = poly_divmod(p, [ONE, ONE])
        assert q == [Fraction(-1), ONE] and not r

    def test_gcd_lcm(self):
        a = poly_mul([ONE, ONE], [Fraction(-1), ONE])
        b = poly_mul([ONE, ONE], [Fraction(2), ONE])
        g = poly_gcd_monic(a, b)
        assert g == [ONE, ONE]
        l = poly_lcm(a, b)
        assert len(l) == 4

    def test_squarefree(self):
        sq = poly_mul([ONE, ONE], [ONE, ONE])
        assert not poly_is_squarefree(sq, ONE)
        assert poly_is_squarefree([Fraction(-1), Fraction(0), ONE], ONE)


class TestMinimalPolynomial:
    def test_nilpotent(self):
        a = dense([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        mp = minimal_polynomial(a)
        assert mp == [Fraction(0)] * 3 + [ONE]

    def test_projection(self):
        a = dense([[1, 0], [0, 0]])
        mp = minimal_polynomial(a)
        # x(x - 1)
        assert mp == [Fraction(0), Fraction(-1), ONE]

    def test_annihilates(self):
        a = dense([[2, 1, 0], [0, 2, 0], [1, 0, 3]])
        assert poly_eval_matrix(minimal_polynomial(a), a).is_zero()


class TestAlgebraDimensions:
    def test_commutant_of_scalars(self):
        ident = ExactMatrix.identity(3, ONE)
        assert commutant_dimension([ident]) == 9

    def test_commutant_of_generic_diagonal(self):
        d = dense([[1, 0, 0], [0, 2, 0], [0, 0, 5]])
        assert commutant_dimension([d]) == 3

    def test_intertwiners_between_different_sizes(self):
        # non-square Sylvester systems: phi is 3 x 2, then 1 x 2
        d2 = dense([[1, 0], [0, 2]])
        assert intertwiner_dimension([d2], [dense([[1, 0, 0], [0, 2, 0], [0, 0, 2]])]) == 3
        assert intertwiner_dimension([d2], [dense([[5]])]) == 0

    def test_algebra_of_diagonal(self):
        d = dense([[1, 0], [0, 2]])
        assert matrix_algebra_dimension([d]) == 2
        # adding a strict upper entry closes up to the triangular algebra
        assert matrix_algebra_dimension([d, dense([[0, 1], [0, 0]])]) == 3
