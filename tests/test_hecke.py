"""The abstract Hecke algebra: relations, distinguished elements, identities."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeb.hecke import (
    HeckeElement,
    _embed,
    antisymmetrizer,
    bipartition_element,
    bipartition_factors,
    central_element,
    cylinder_identity_holds,
    embed_in_rank,
    jucys_murphy,
    shuffle_t,
    symmetrizer,
    u_minus,
    u_plus,
    young_idempotent,
)
from heckeb.scalars import RF_ONE, RF_Q, RF_q
from heckeb.weylcomb import (
    SignedPermutation,
    all_elements,
    bipartitions,
    column_reading_element,
    from_word,
)


def gen(d, i):
    return HeckeElement.generator(d, i)


def ident(d):
    return HeckeElement.one(d)


class TestRelations:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_quadratic(self, d):
        t0 = gen(d, 0)
        assert (t0 + ident(d).scale(RF_Q)) * (t0 - ident(d).scale(RF_Q.inverse())) == HeckeElement.zero(d)
        for i in range(1, d):
            ti = gen(d, i)
            assert (ti + ident(d).scale(RF_q)) * (ti - ident(d).scale(RF_q.inverse())) == HeckeElement.zero(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_braid(self, d):
        t = [gen(d, i) for i in range(d)]
        assert t[0] * t[1] * t[0] * t[1] == t[1] * t[0] * t[1] * t[0]
        for i in range(1, d - 1):
            assert t[i] * t[i + 1] * t[i] == t[i + 1] * t[i] * t[i + 1]
        for i in range(d):
            for j in range(i + 2, d):
                assert t[i] * t[j] == t[j] * t[i]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_basis_products_stay_in_basis_span(self, d):
        # T_v T_w = T_{vw} whenever lengths add
        elems = all_elements(d)
        for v in elems:
            for w in elems:
                if v.length() + w.length() == (v * w).length():
                    prod = HeckeElement.basis(d, v) * HeckeElement.basis(d, w)
                    assert prod == HeckeElement.basis(d, v * w)

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_word_products_match_group_when_reduced(self, word):
        d = 3
        w = from_word(d, word)
        prod = ident(d)
        for i in word:
            prod = prod * gen(d, i)
        if len(word) == w.length():
            assert prod == HeckeElement.basis(d, w)
        assert w in set(prod.terms) or not prod.terms or len(word) != w.length()

    def test_dimension(self):
        # closure of products of the natural basis has the right support
        d = 2
        assert len(all_elements(d)) == 2**d * factorial(d) == 8


class TestDistinguishedElements:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_jucys_murphy_commute(self, d):
        ks = [jucys_murphy(d, i) for i in range(1, d + 1)]
        for i in range(d):
            for j in range(i + 1, d):
                assert ks[i] * ks[j] == ks[j] * ks[i]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_central_element_is_central(self, d):
        ck = central_element(d)
        for i in range(d):
            g = gen(d, i)
            assert ck * g == g * ck

    def test_central_element_is_longest_flip(self):
        # c_K for d = 2 is T_{w} with w = (-1, -2), of length 4
        ck = central_element(2)
        assert ck.support_size() == 1
        ((w, c),) = ck.terms.items()
        assert w.images == (-1, -2)
        assert w.length() == 4
        assert c == RF_ONE

    def test_u_plus_support(self):
        assert u_plus(2, 2).support_size() == 4

    def test_u_product_annihilation(self):
        # (K_1 + Q)(K_1 - 1/Q) = 0 by the quadratic relation
        d = 2
        prod = (jucys_murphy(d, 1) + ident(d).scale(RF_Q)) * (
            jucys_murphy(d, 1) - ident(d).scale(RF_Q.inverse())
        )
        assert prod == HeckeElement.zero(d)


class TestSymmetrizers:
    def test_symmetrizer_eigenproperty(self):
        d = 3
        x = symmetrizer((3,), 0, d)
        for i in range(1, d):
            assert gen(d, i) * x == x.scale(RF_q.inverse())

    def test_antisymmetrizer_eigenproperty(self):
        d = 3
        y = antisymmetrizer((3,), 0, d)
        for i in range(1, d):
            assert gen(d, i) * y == y.scale(-RF_q)

    def test_young_idempotent_nonzero(self):
        for lam in ((2,), (1, 1), (2, 1)):
            e = young_idempotent(lam, 0, sum(lam))
            assert e


class TestIdentities:
    @pytest.mark.parametrize("d,e", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)])
    def test_cylinder_identity(self, d, e):
        assert cylinder_identity_holds(d, e)

    def test_shuffle_t_embedding(self):
        t = shuffle_t(1, 1, 3)
        ((w, c),) = t.terms.items()
        assert w.images == (2, 1, 3)

    def test_embed_in_rank(self):
        small = jucys_murphy(2, 2)
        big = embed_in_rank(small, 4)
        assert big.d == 4
        assert big.support_size() == small.support_size()

    def test_bipartition_element_nonzero(self):
        assert bipartition_element(((1,), (1,)))
        assert bipartition_element(((2,), (1,)))

    def test_young_elements_are_not_quasi_idempotent(self):
        # nonzero elements that square to 0, so neither is a multiple of an
        # idempotent: only their images are read
        for e in (young_idempotent((2, 1), 0, 3), bipartition_element(((2, 1), ()))):
            assert e
            assert e * e == HeckeElement.zero(3)

    @pytest.mark.parametrize("shape", bipartitions(3), ids=lambda s: "%s|%s" % s)
    def test_dipper_james_twist_makes_it_quasi_idempotent(self, shape):
        """e' T' e' = gamma e' over Q(Q, q), gamma != 0, where T' acts on
        the two blocks of strands by T_{c(lam)^-1} and T_{c(mu)^-1}, as in
        the Dipper-James x T_w y T_{w^-1}.  Without T' it fails: e' squares
        to 0 at 21|-."""
        lam, mu = shape
        d, a = sum(map(sum, shape)), sum(lam)
        twist = HeckeElement.basis(d, _embed(column_reading_element(lam).inverse(), 0, d)
                                   * _embed(column_reading_element(mu).inverse(), a, d))
        e = bipartition_element(shape)
        w, c = next(iter(e.terms.items()))
        square = e * twist * e
        gamma = square.terms.get(w, RF_ONE - RF_ONE) / c
        assert gamma
        assert square == e.scale(gamma)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bipartition_element_is_product_of_factors(self, d):
        for shape in bipartitions(d):
            lam, mu = shape
            a, b = sum(lam), sum(mu)
            prod = HeckeElement.one(d)
            for f in bipartition_factors(shape):
                prod = prod * f
            assert bipartition_element(shape) == prod
            # T_{a,b} u_b^- T_{b,a} u_a^+ e_lam e_mu, multiplied out piece by piece
            pieces = shuffle_t(a, b) * u_minus(d, b) * shuffle_t(b, a) * u_plus(d, a)
            assert prod == pieces * young_idempotent(lam, 0, d) * young_idempotent(mu, a, d)
