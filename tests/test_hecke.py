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
    braid_relations_hold,
    central_element,
    cylinder_identity_holds,
    embed_in_rank,
    jucys_murphy,
    quadratic_roots,
    shuffle_t,
    symmetrizer,
    u_minus,
    u_plus,
    young_idempotent,
)
from heckeb.rep import SpecializedBackend, rho
from heckeb.scalars import RF_ONE, RF_Q, RF_q, default_specialization
from heckeb.weylcomb import (
    SignedPermutation,
    bipartitions,
    column_reading_element,
    from_word,
    parabolic_elements,
)


def gen(d, i):
    return HeckeElement.generator(d, i)


def ident(d):
    return HeckeElement.one(d)


class TestRelations:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_quadratic(self, d):
        t0 = gen(d, 0)
        assert (t0 + ident(d).scale(RF_Q)) * (t0 - ident(d).scale(RF_Q.inverse())) == HeckeElement(d)
        for i in range(1, d):
            ti = gen(d, i)
            assert (ti + ident(d).scale(RF_q)) * (ti - ident(d).scale(RF_q.inverse())) == HeckeElement(d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_quadratic_roots(self, d):
        for i in range(d):
            t = gen(d, i)
            a, b = (ident(d).scale(r) for r in quadratic_roots(i))
            assert (t - a) * (t - b) == HeckeElement(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_braid(self, d):
        assert braid_relations_hold([gen(d, i) for i in range(d)])

    # lists of elements of rank 3 that break exactly one relation: T_1, T_2
    # braid in three terms but not in four and do not commute, T_0, T_1
    # braid in four terms but not in three, and 0 satisfies every relation
    # it enters
    BROKEN = {
        "four-term": (1, 2, None),
        "three-term-at-1": (None, 0, 1),
        "three-term-at-2": (None, None, 0, 1),
        "distant-0-2": (1, None, 2),
        "distant-0-3": (1, None, None, 2),
    }

    @pytest.mark.parametrize("as_matrices", [False, True], ids=["hecke", "matrices"])
    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_braid_check_sees_each_relation(self, name, as_matrices):
        t = [HeckeElement(3) if i is None else gen(3, i) for i in self.BROKEN[name]]
        if as_matrices:
            bk = SpecializedBackend(default_specialization())
            t = [rho(x, 2, bk) for x in t]
        assert not braid_relations_hold(t)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_basis_products_stay_in_basis_span(self, d):
        # T_v T_w = T_{vw} whenever lengths add
        elems = parabolic_elements(d, range(d))
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
        assert len(parabolic_elements(d, range(d))) == 2**d * factorial(d) == 8


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
        assert prod == HeckeElement(d)


class TestSymmetrizers:
    def test_young_sums_are_pinned(self):
        qi = RF_q.inverse()
        cases = [
            (symmetrizer((2, 1), 0, 3), {(1, 2, 3): RF_ONE, (2, 1, 3): qi}),
            (antisymmetrizer((2, 1), 0, 3), {(1, 2, 3): RF_ONE, (2, 1, 3): -RF_q}),
            (symmetrizer((1, 2), 1, 4), {(1, 2, 3, 4): RF_ONE, (1, 2, 4, 3): qi}),
            (
                symmetrizer((3,), 0, 3),
                {
                    (1, 2, 3): RF_ONE,
                    (2, 1, 3): qi,
                    (1, 3, 2): qi,
                    (2, 3, 1): qi * qi,
                    (3, 1, 2): qi * qi,
                    (3, 2, 1): qi * qi * qi,
                },
            ),
            (
                antisymmetrizer((3,), 0, 3),
                {
                    (1, 2, 3): RF_ONE,
                    (2, 1, 3): -RF_q,
                    (1, 3, 2): -RF_q,
                    (2, 3, 1): RF_q * RF_q,
                    (3, 1, 2): RF_q * RF_q,
                    (3, 2, 1): -RF_q * RF_q * RF_q,
                },
            ),
        ]
        for elem, terms in cases:
            assert {w.images: c for w, c in elem.terms.items()} == terms

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

    def test_embed_keeps_signs(self):
        # on strands 2, 3 of rank 4 a negative image moves away from 0, so the
        # embedding is a group map
        assert _embed(SignedPermutation((-2, 1)), 1, 4).images == (1, -3, 2, 4)
        elems = parabolic_elements(2, range(2))
        for v in elems:
            for w in elems:
                assert _embed(v * w, 1, 4) == _embed(v, 1, 4) * _embed(w, 1, 4)

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
            assert e * e == HeckeElement(3)

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
            pieces = shuffle_t(a, b, d) * u_minus(d, b) * shuffle_t(b, a, d) * u_plus(d, a)
            assert prod == pieces * young_idempotent(lam, 0, d) * young_idempotent(mu, a, d)
