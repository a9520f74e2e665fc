"""Signed permutations, index combinatorics, partitions and tableaux."""

from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeb.weylcomb import (
    SignedPermutation,
    bipartitions,
    block_flip,
    block_transposition,
    column_reading_element,
    composition_to_index,
    conjugate,
    descends,
    dominant_representative,
    dominant_tuples,
    from_word,
    index_set,
    orbit_with_minimal_reps,
    parabolic_elements,
    partitions,
    semistandard_bitableaux_count,
    shuffle_element,
    ssyt_bounds,
    ssyt_count,
    stabilizer_parabolic,
    standard_bitableaux_count,
    syt_count,
)

words = st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=10)


class TestSignedPermutation:
    @given(words, words)
    @settings(max_examples=50, deadline=None)
    def test_word_concatenation_is_multiplication(self, w1, w2):
        d = 4
        assert from_word(d, w1 + w2) == from_word(d, w1) * from_word(d, w2)

    @given(words)
    @settings(max_examples=50, deadline=None)
    def test_reduced_word_roundtrip(self, word):
        d = 4
        w = from_word(d, word)
        rw = w.reduced_word()
        assert len(rw) == w.length()
        assert len(rw) <= len(word)
        assert from_word(d, rw) == w

    @given(words)
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, word):
        w = from_word(4, word)
        assert w * w.inverse() == SignedPermutation.identity(4)
        assert w.inverse().length() == w.length()

    @given(words, words)
    @settings(max_examples=50, deadline=None)
    def test_action_is_compatible(self, w1, w2):
        a = (2, 0, -4, 2)
        v, w = from_word(4, w1), from_word(4, w2)
        assert (v * w).act(a) == v.act(w.act(a))

    def test_generator_relations(self):
        d = 3
        s = [SignedPermutation.generator(d, i) for i in range(d)]
        e = SignedPermutation.identity(d)
        def power(w, k):
            out = e
            for _ in range(k):
                out = out * w
            return out

        for g in s:
            assert g * g == e
        assert power(s[0] * s[1], 4) == e
        assert power(s[1] * s[2], 3) == e
        assert s[0] * s[2] == s[2] * s[0]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_descent_test_agrees_with_length(self, d):
        """s_i is a right descent of w when l(w s_i) < l(w), read off w's
        images, and a left descent when l(s_i w) < l(w), read off w^-1's; the
        reduced word peeled by that test spells w."""
        for w in parabolic_elements(d, range(d)):
            for i in range(d):
                s = SignedPermutation.generator(d, i)
                assert descends(w.images, i) == ((w * s).length() < w.length())
                assert descends(w.inverse_images(), i) == ((s * w).length() < w.length())
            assert from_word(d, w.reduced_word()) == w
            assert len(w.reduced_word()) == w.length()

    def test_products_and_inverses_need_no_check(self):
        """Products and inverses skip the check of the images: over all of
        W(B_3) they equal the checked signed permutations of the same images,
        and images from anywhere else are still checked."""
        for bad in [(1, 1), (1, -1), (0, 1), (2, 3)]:
            with pytest.raises(ValueError):
                SignedPermutation(bad)
        group = list(parabolic_elements(3, range(3)))
        for v in group:
            inv = v.inverse()
            assert inv == SignedPermutation(inv.images) and v * inv == SignedPermutation.identity(3)
            for w in group:
                vw = v * w
                assert vw == SignedPermutation(v(w(i)) for i in range(1, 4))
                assert vw.length() == SignedPermutation(vw.images).length()

    def test_length_split(self):
        w = SignedPermutation((-2, 1, 3))
        neg, rest = w.length_split()
        assert neg == 1
        assert w.length() == neg + rest

    def test_group_order(self):
        for d in (1, 2, 3, 4):
            elems = parabolic_elements(d, range(d))
            assert len(elems) == 2**d * factorial(d)
            assert max(elems.values()) == d * d
            assert all(w.length() == l for w, l in elems.items())

    @pytest.mark.parametrize("lam,offset", [((2, 1), 0), ((3,), 1), ((1, 2, 2), 0), ((2, 3), 1)])
    def test_young_subgroup_order(self, lam, offset):
        """The Young subgroup S_lam at a strand offset: prod p! elements, the
        longest of length sum p(p - 1)/2, each BFS distance a length."""
        d, gens, pos = sum(lam) + offset + 1, [], offset
        for p in lam:
            gens += range(pos + 1, pos + p)
            pos += p
        elems = parabolic_elements(d, gens)
        assert len(elems) == prod(factorial(p) for p in lam)
        assert max(elems.values()) == sum(p * (p - 1) // 2 for p in lam)
        assert all(w.length() == l for w, l in elems.items())

    def test_parabolic_with_the_flip(self):
        # s_0, s_1 in rank 3 generate a copy of W(B_2): 8 elements, longest
        # length 4
        elems = parabolic_elements(3, [0, 1])
        assert len(elems) == 8 and max(elems.values()) == 4
        assert all(w.images[2] == 3 for w in elems)


class TestIndexSets:
    def test_doubled_values(self):
        assert index_set(3) == (-2, 0, 2)
        assert index_set(4) == (-3, -1, 1, 3)
        assert index_set(5) == (-4, -2, 0, 2, 4)

    def test_dominant_tuples_count(self):
        assert len(dominant_tuples(3, 2)) == 3
        assert len(dominant_tuples(5, 1)) == 3

    def test_dominant_representative(self):
        assert dominant_representative((4, -2, 0)) == (0, 2, 4)

    def test_orbit_size(self):
        reps = orbit_with_minimal_reps((0, 2))
        # one zero slot and one +-2 slot, in either order
        assert len(reps) == 4
        for b, w in reps.items():
            assert w.act((0, 2)) == b

    def test_stabilizer(self):
        assert stabilizer_parabolic((0, 0, 2)) == (0, 1)
        assert stabilizer_parabolic((2, 2, 2)) == (1, 2)

    def test_composition_to_index(self):
        assert composition_to_index((2, 1, 3), 3) == (2, 2, 0, -2, -2, -2)
        with pytest.raises(ValueError):
            composition_to_index((1, 1), 3)


class TestPartitions:
    def test_partition_lists(self):
        assert tuple(partitions(3)) == ((3,), (2, 1), (1, 1, 1))
        assert len(list(bipartitions(2))) == 5
        assert sum(1 for _ in bipartitions(3)) == 10

    def test_conjugate(self):
        assert conjugate((4, 2)) == (2, 2, 1, 1)
        assert conjugate(conjugate((3, 1, 1))) == (3, 1, 1)

    def test_syt_counts(self):
        assert syt_count((2, 1)) == 2
        assert syt_count((3, 2)) == 5
        assert syt_count((1, 1, 1)) == 1

    def test_ssyt_counts(self):
        assert ssyt_count((2,), 2) == 3
        assert ssyt_count((1, 1), 2) == 1
        assert ssyt_count((2, 1), 3) == 8

    def test_ssyt_bounds(self):
        assert ssyt_bounds(5) == (3, 2)
        assert ssyt_bounds(4) == (2, 2)

    def test_bitableaux_counts(self):
        shape = ((1,), (1,))
        assert standard_bitableaux_count(shape) == 2
        assert semistandard_bitableaux_count(shape, 5) == 6
        assert semistandard_bitableaux_count(((2,), (1,)), 5) == 12
        assert semistandard_bitableaux_count(((1,), (2,)), 5) == 9

    def test_bipartition_fits(self):
        # the count is 0 exactly when a side has more rows than its bound
        assert semistandard_bitableaux_count(((2,), (1,)), 5)
        assert semistandard_bitableaux_count(((1, 1, 1, 1), ()), 5) == 0
        assert semistandard_bitableaux_count(((1, 1, 1), ()), 5)
        assert semistandard_bitableaux_count(((), (1, 1, 1)), 5) == 0


class TestSpecialElements:
    def test_shuffle_element(self):
        w = shuffle_element(2, 1)
        assert w.images == (3, 1, 2)
        assert shuffle_element(1, 2).images == (2, 3, 1)
        assert w.length() == 2

    def test_column_reading(self):
        assert column_reading_element((4, 2)).images == (1, 5, 2, 6, 3, 4)
        assert column_reading_element((2, 1)).images == (1, 3, 2)

    def test_block_transposition(self):
        w = block_transposition(1, 2, 2)
        assert w.images == (3, 4, 1, 2)

    def test_block_flip(self):
        w = block_flip(2, 2)
        assert w.images == (-1, -2, 3, 4)
        assert w.length() == 4
