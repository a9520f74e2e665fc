"""Signed powers, Schur functors, centralizer algebras, decompositions."""

from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeb import schur
from heckeb.cli import main
from heckeb.hecke import HeckeElement, bipartition_factors, jucys_murphy, shuffle_t, u_minus, u_plus
from heckeb.exactlinalg import ExactMatrix, Subspace
from heckeb.rep import (
    SYMBOLIC,
    BudgetExceeded,
    PermutationModule,
    SpecializedBackend,
    generator_matrix,
    rho,
    rho_basis,
)
from heckeb.scalars import RF_ONE, RF_Q, Specialization, default_specialization
from heckeb.schur import (
    LEDGER_MAX_RANK,
    PM_KINDS,
    check_budget,
    e_hecke_rank1_eigenvalue_count,
    expected_pm_dimension,
    irreducibility_report,
    pm_power_dimension,
    product_images,
    schur_algebra_dimension_commutant,
    schur_algebra_dimension_orbit,
    schur_functor_diagram_subspace,
    schur_functor_subspace,
    schur_weyl_decompose,
    verify_double_centralizer,
    verify_e_hecke,
)
from heckeb.weylcomb import (
    SignedPermutation,
    bipartitions,
    dominant_tuples,
    parabolic_elements,
    semistandard_bitableaux_count,
    stabilizer_parabolic,
)

SPEC = SpecializedBackend(default_specialization())
# the four points of the benchmark (perfbench/workloads.json)
BENCH_POINTS = [
    SpecializedBackend(Specialization(Q, q)) for Q, q in ((2, 3), (3, 2), (5, 3), (3, 7))
]


class TestSignedPowers:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3), (5, 2)])
    @pytest.mark.parametrize("kind", PM_KINDS)
    def test_quotient_dimension(self, kind, n, d):
        assert pm_power_dimension(kind, n, d, SYMBOLIC, "quotient") == expected_pm_dimension(kind, n, d)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3)])
    @pytest.mark.parametrize("kind", PM_KINDS)
    def test_kernel_dimension(self, kind, n, d):
        assert pm_power_dimension(kind, n, d, SYMBOLIC, "kernel") == expected_pm_dimension(kind, n, d)

    # the class of T_0 and of the other T_i in the schur module table, at Q, q
    TABLE = {
        "s_plus": (lambda Q: 1 / Q, lambda q: 1 / q),
        "s_minus": (lambda Q: -Q, lambda q: 1 / q),
        "wedge_plus": (lambda Q: 1 / Q, lambda q: -q),
        "wedge_minus": (lambda Q: -Q, lambda q: -q),
    }

    @pytest.mark.parametrize("kind", PM_KINDS)
    def test_relations_subtract_the_table_root(self, kind):
        n, d = 2, 3
        Q, q = SPEC.spec.valueQ, SPEC.spec.valueq
        k_class, r_class = self.TABLE[kind]
        ident = ExactMatrix.identity(n**d, SPEC.one)
        ops = schur._pm_relation_ops(kind, n, d, SPEC)
        assert ops == [
            generator_matrix(n, d, i, SPEC) - ident.scale(r_class(q) if i else k_class(Q))
            for i in range(d)
        ]

    def test_tensor_pm_dimensions(self):
        # the two halves are joint eigenspace sums, not complements
        for n, d in [(3, 2), (4, 2), (5, 2)]:
            plus = rho(u_plus(d, d), n, SPEC).column_space()
            minus = rho(u_minus(d, d), n, SPEC).column_space()
            assert plus.dim == ((n + 1) // 2) ** d
            assert minus.dim == (n // 2) ** d

    def test_signed_tensor_dimensions_multiply(self):
        # the mixed block (x)^a_+ (x) (x)^b_- is the image of u_b^- T_{b,a} u_a^+
        n = 5
        for a, b, expected in [(1, 1, 6), (2, 1, 18)]:
            d = a + b
            elem = u_minus(d, b) * shuffle_t(b, a, d) * u_plus(d, a)
            assert rho(elem, n, SPEC).column_space().dim == expected


class TestSchurFunctor:
    @pytest.mark.parametrize(
        "shape,n",
        [
            (((1,), (1,)), 5),
            (((2,), (1,)), 5),
            (((1,), (2,)), 5),
            (((2,), ()), 3),
            (((1, 1), ()), 3),
            (((1,), (1,)), 3),
        ],
    )
    def test_dimension_matches_tableau_count(self, shape, n):
        sub = schur_functor_subspace(shape, n, SYMBOLIC)
        assert sub.dim == semistandard_bitableaux_count(shape, n)

    @pytest.mark.parametrize(
        "shape", [((1,), (1,)), ((2,), ()), ((), (1, 1)), ((2, 1), ()), ((1,), (2,))]
    )
    def test_diagram_route_agrees(self, shape):
        n = 3
        assert schur_functor_diagram_subspace(shape, n, SYMBOLIC) == schur_functor_subspace(
            shape, n, SYMBOLIC
        )

    @pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (5, 2), (3, 3)])
    def test_factored_rank_matches_element_route(self, n, d):
        """The factored image is the element route's canonical subspace, so
        their ranks agree too."""
        for shape in bipartitions(d):
            assert schur_functor_diagram_subspace(shape, n, SYMBOLIC) == schur_functor_subspace(
                shape, n, SYMBOLIC
            )

    @pytest.mark.parametrize("Q,q", [(2, 3), (3, 2), (5, 3), (3, 7)])
    def test_factored_rank_matches_element_route_specialized(self, Q, q):
        bk = SpecializedBackend(Specialization(Q, q))
        for shape in bipartitions(3):
            assert schur_functor_diagram_subspace(shape, 4, bk) == schur_functor_subspace(
                shape, 4, bk
            )


def factor_elements(d, small_shifts):
    """Hecke elements of rank d: generators, shifts K_j + c (c = Q, -1/Q, or a
    small integer if small_shifts) and basis elements with small integer
    coefficients."""
    small = st.integers(-2, 2).map(lambda c: RF_ONE * c)
    shift = st.sampled_from([RF_Q, -RF_Q.inverse()])
    if small_shifts:
        shift = st.one_of(shift, small)
    one = HeckeElement.one(d)
    return st.one_of(
        st.integers(0, d - 1).map(lambda i: HeckeElement.generator(d, i)),
        st.tuples(st.integers(1, d), shift).map(lambda p: jucys_murphy(d, p[0]) + one.scale(p[1])),
        st.tuples(st.sampled_from(sorted(parabolic_elements(d, range(d)), key=lambda w: w.images)), small).map(
            lambda p: HeckeElement.basis(d, *p)
        ),
    )


@st.composite
def factor_lists(draw, max_rank, max_len, small_shifts):
    """One to max_len factor_elements of one rank d <= max_rank."""
    d = draw(st.integers(1, max_rank))
    return draw(st.lists(factor_elements(d, small_shifts), min_size=1, max_size=max_len))


@st.composite
def prefix_sharing_lists(draw, max_rank, max_len, small_shifts):
    """Two to five factor lists of one rank, each made from the one before:
    the same list, a prefix of it, a prefix with a new tail, the list with
    another first factor, or a list of identities."""
    first = draw(factor_lists(max_rank, max_len, small_shifts))
    one = HeckeElement.one(first[0].d)
    elements = st.one_of(factor_elements(first[0].d, small_shifts), st.just(one))
    moves = st.sampled_from(["same", "prefix", "tail", "first", "ones"])
    lists = [first]
    for move in draw(st.lists(moves, min_size=1, max_size=4)):
        prev = lists[-1]
        if move == "same":
            nxt = list(prev)
        elif move == "prefix":
            nxt = prev[: draw(st.integers(1, len(prev)))]
        elif move == "tail":
            cut = draw(st.integers(0, len(prev)))
            nxt = prev[:cut] + draw(st.lists(elements, min_size=1, max_size=max(max_len - cut, 1)))
        elif move == "first":
            nxt = [draw(elements.filter(lambda f: f != prev[0]))] + prev[1:]
        else:
            nxt = [one] * draw(st.integers(1, max_len))
        lists.append(nxt)
    return lists


@st.composite
def width_lists(draw, max_rank, max_len):
    """factor_lists with zero factors and multiples c T_w, c != 1, among the
    factors; c = Q - 2 vanishes at Q = 2."""
    d = draw(st.integers(1, max_rank))
    c = st.sampled_from([2 * RF_ONE, -RF_ONE, RF_Q, -RF_Q.inverse(), RF_Q - 2])
    w = st.sampled_from(sorted(parabolic_elements(d, range(d)), key=lambda w: w.images))
    elements = st.one_of(
        factor_elements(d, True),
        st.just(HeckeElement(d)),
        st.builds(lambda w, c: HeckeElement.basis(d, w, c), w, c),
    )
    return draw(st.lists(elements, min_size=1, max_size=max_len))


# s_0 s_1, of length 2
S0S1 = SignedPermutation.generator(2, 0) * SignedPermutation.generator(2, 1)


def image_basis(factors, n, bk):
    """The basis product_images yields for one factor list alone."""
    (basis,) = product_images([factors], n, bk)
    return basis


def expanded_image(factors, n, bk):
    """The element route's image, reduced by Subspace.insert over the entry
    field: at a point no integer elimination is involved."""
    m = rho(prod(factors[1:], start=factors[0]), n, bk)
    return Subspace(m.nrows, m.columns(), m.one)


# the four bench points, one whose denominators must be cleared, and one of
# height 2^61 - 1
POINTS = [
    SpecializedBackend(Specialization(Q, q))
    for Q, q in [(2, 3), (3, 2), (5, 3), (3, 7), (Fraction(1, 2), Fraction(2, 3)), (2**61 - 1, 3)]
]


class TestProductRoute:
    def test_each_distinct_factor_built_once(self):
        """The ledger at d = 3 has 52 non-identity factors, of which 15 are
        distinct, but only 30 distinct prefixes: the shared chain multiplies
        through each prefix once, so rho is called 30 times, building each
        distinct factor once and serving the other 15 calls from its cache."""
        one = HeckeElement.one(3)
        lists = [bipartition_factors(s) for s in bipartitions(3)]
        factors = [f for fs in lists for f in fs if f != one]
        prefixes = {tuple(fs[: k + 1]) for fs in lists for k, f in enumerate(fs) if f != one}
        rho.cache_clear()
        schur_weyl_decompose(3, 3, SpecializedBackend(Specialization(2, 3)))
        built = rho.cache_info()
        assert (len(factors), len(set(factors)), len(prefixes)) == (52, 15, 30)
        assert (built.misses, built.hits) == (15, 15)

    @given(lists=prefix_sharing_lists(3, 4, small_shifts=True), bk=st.sampled_from(POINTS))
    @settings(max_examples=40, deadline=None)
    def test_shared_chain_at_a_point(self, lists, bk):
        """One call on all the lists, whose chain shares their prefixes, gives
        the bases of one call per list."""
        n = 3 if lists[0][0].d < 3 else 2
        shared = list(product_images(lists, n, bk))
        assert shared == [image_basis(factors, n, bk) for factors in lists]

    @given(lists=prefix_sharing_lists(2, 3, small_shifts=False))
    @settings(max_examples=20, deadline=None)
    def test_shared_chain_symbolic(self, lists):
        shared = list(product_images(lists, 2, SYMBOLIC))
        assert shared == [image_basis(factors, 2, SYMBOLIC) for factors in lists]

    @given(factors=factor_lists(3, 4, small_shifts=True), bk=st.sampled_from(POINTS))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_expanded_product_at_a_point(self, factors, bk):
        n = 3 if factors[0].d < 3 else 2
        assert image_basis(factors, n, bk).column_space() == expanded_image(factors, n, bk)

    # Eliminating the expanded matrix symbolically is the slow side: at rank
    # 3, or with integer shifts, one 8x8 column space can take tens of seconds
    @given(factors=factor_lists(2, 2, small_shifts=False))
    @settings(max_examples=25, deadline=None)
    def test_matches_the_expanded_product_symbolic(self, factors):
        image = image_basis(factors, 2, SYMBOLIC).column_space()
        assert image == expanded_image(factors, 2, SYMBOLIC)

    @given(factors=width_lists(3, 4), bk=st.sampled_from(POINTS))
    @settings(max_examples=60, deadline=None)
    @example(factors=[HeckeElement(2), HeckeElement.generator(2, 1)], bk=POINTS[0])
    @example(factors=[HeckeElement.generator(2, 0), HeckeElement.basis(2, S0S1, RF_Q - 2)],
             bk=POINTS[0])
    @example(factors=[HeckeElement.basis(2, S0S1, -RF_Q), jucys_murphy(2, 2) - HeckeElement.one(2)],
             bk=POINTS[1])
    def test_width_is_the_rank_at_a_point(self, factors, bk):
        """Each yielded basis has as many columns as the expanded product has
        rank, also after a zero factor or a multiple c T_w, c != 1, whose c
        may vanish at the point (Q - 2 at Q = 2)."""
        n = 3 if factors[0].d < 3 else 2
        expanded = rho(prod(factors[1:], start=factors[0]), n, bk)
        assert image_basis(factors, n, bk).ncols == expanded.rank()

    @given(factors=width_lists(2, 2))
    @settings(max_examples=20, deadline=None)
    @example(factors=[HeckeElement.basis(2, S0S1, RF_Q - 2), HeckeElement(2)])
    def test_width_is_the_rank_symbolic(self, factors):
        expanded = rho(prod(factors[1:], start=factors[0]), 2, SYMBOLIC)
        assert image_basis(factors, 2, SYMBOLIC).ncols == expanded.rank()

    @pytest.mark.parametrize(
        "n,d,bk,built", [(7, 3, SpecializedBackend(Specialization(2, 3)), 0), (5, 2, SYMBOLIC, 10)]
    )
    def test_ledger_builds_no_final_subspace(self, monkeypatch, n, d, bk, built):
        """The ledger reads each image's width: at a point it builds no
        Subspace, symbolically only its cut-backs (15 with a final Subspace
        per shape)."""
        count = []
        init = Subspace.__init__
        monkeypatch.setattr(Subspace, "__init__", lambda *a: count.append(1) or init(*a))
        assert schur_weyl_decompose(n, d, bk)["pass"]
        assert len(count) == built


def scales(bk):
    """(s_0, s_1): the lcm of the denominators of 1/x and 1/x - x, for x = Q
    and x = q."""
    out = []
    for x in (bk.spec.valueQ, bk.spec.valueq):
        out.append(lcm((1 / x).denominator, (1 / x - x).denominator))
    return tuple(out)


def fraction_rho(elem, n, bk):
    """rho over Fraction from its definition, sum of c_w rho_basis(w)."""
    N = n**elem.d
    terms = (rho_basis(n, elem.d, w, bk).scale(bk.of(c)) for w, c in elem.terms.items())
    return sum(terms, ExactMatrix.zeros(N, N, bk.one))


def assert_integral_multiple(got, expected, scale):
    assert scale > 0
    assert all(type(v) is int for v in got.entries.values())
    assert got.one == 1 and type(got.one) is int
    assert got.entries == {k: scale * v for k, v in expected.entries.items()}


class TestIntegralRoute:
    """The integral twin of a point builds s_i rho(T_i), sigma(w) rho(T_w) and
    L rho(elem) over Z, with int entries only."""

    @pytest.mark.parametrize("bk", POINTS, ids=str)
    @pytest.mark.parametrize("n,d", [(1, 2), (2, 1), (2, 3), (3, 2)])
    def test_generator_matrix(self, bk, n, d):
        s = scales(bk)
        for i in range(d):
            got = generator_matrix(n, d, i, bk.integral)
            assert_integral_multiple(got, generator_matrix(n, d, i, bk), s[min(i, 1)])

    @pytest.mark.parametrize("bk", POINTS, ids=str)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rho_basis(self, bk, d):
        s0, s1 = scales(bk)
        for w in parabolic_elements(d, range(d)):
            l0, l1 = w.length_split()
            got = rho_basis(2, d, w, bk.integral)
            assert_integral_multiple(got, rho_basis(2, d, w, bk), s0**l0 * s1**l1)

    @staticmethod
    def check_rho(elem, n, bk):
        s0, s1 = scales(bk)
        dens = []
        for w, c in elem.terms.items():
            l0, l1 = w.length_split()
            dens.append(bk.of(c).denominator * s0**l0 * s1**l1)
        expected = fraction_rho(elem, n, bk)
        assert_integral_multiple(rho(elem, n, bk.integral), expected, lcm(*dens))
        assert rho(elem, n, bk) == expected
        assert all(type(v) is Fraction for v in rho(elem, n, bk).entries.values())

    @given(elem=st.integers(1, 3).flatmap(lambda d: factor_elements(d, True)), bk=st.sampled_from(POINTS))
    @settings(max_examples=60, deadline=None)
    def test_rho_of_hecke_elements(self, elem, bk):
        self.check_rho(elem, 2, bk)

    @pytest.mark.parametrize("bk", POINTS, ids=str)
    def test_rho_of_every_ledger_factor(self, bk):
        for d in (1, 2, 3):
            for shape in bipartitions(d):
                for f in bipartition_factors(shape):
                    self.check_rho(f, 2, bk)


class TestSchurAlgebra:
    @pytest.mark.parametrize("n,d,expected", [(3, 1, 5), (3, 2, 15), (5, 2, 91), (7, 2, 325)])
    def test_dimension_two_ways(self, n, d, expected):
        assert schur_algebra_dimension_orbit(n, d, SYMBOLIC) == expected
        assert schur_algebra_dimension_orbit(n, d, SPEC) == expected
        if n**d <= 30:
            assert schur_algebra_dimension_commutant(n, d, SYMBOLIC) == expected

    def test_one_module_per_orbit_type(self):
        """Every dominant tuple has the permutation module matrices of the
        first tuple of its rank and stabilizer, over n 1-7 (so across n too).
        The key needs d: the stabilizer (0,) is that of (0,) at d 1 (a module
        of dimension 1) and of (0, 2) at d 2 (dimension 4)."""
        reps = {}
        for n in range(1, 8):
            for d in (1, 2, 3):
                for a in dominant_tuples(n, d):
                    pm = PermutationModule(n, a, SPEC)
                    rep = reps.setdefault((d, stabilizer_parabolic(a)), pm)
                    assert pm.dim == rep.dim
                    for i in range(d):
                        assert pm.generator(i) == rep.generator(i), (a, rep.dominant, i)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_dimension_is_the_sum_of_squares(self, n):
        for d in (1, 2, 3):
            expected = sum(semistandard_bitableaux_count(s, n) ** 2 for s in bipartitions(d))
            assert schur_algebra_dimension_orbit(n, d, SPEC) == expected
            if n**d <= 125:
                assert schur_algebra_dimension_orbit(n, d, SYMBOLIC) == expected

    def test_one_rank_per_parabolic_and_orbit_type(self, monkeypatch):
        """At n 7, d 3 the 20 dominant tuples have 8 stabilizers, 7 of them
        nonempty: 56 ranks, not one per pair of tuples (380)."""
        ranks = []
        rank = ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: ranks.append(m) or rank(m))
        assert schur_algebra_dimension_orbit(7, 3, SPEC) == 2925
        assert len(ranks) == 56

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            check_budget(7, 3, SYMBOLIC)
        check_budget(7, 3, SPEC)


class TestDecomposition:
    @pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (5, 2)])
    def test_ledger(self, n, d):
        led = schur_weyl_decompose(n, d, SYMBOLIC)
        assert led["pass"]
        assert led["sum_dimL_dimM"] == led["tensor_dim"] == n**d
        assert led["sum_dimL_sq"] == led["schur_algebra_dim"]
        for row in led["rows"]:
            assert row["dimL"] == row["dimL_formula"]

    @pytest.mark.parametrize(
        "n,d",
        [(n, d) for d in range(1, LEDGER_MAX_RANK + 1) for n in range(1, 28) if n**d <= 27],
    )
    def test_ledger_symbolic_against_each_point(self, n, d):
        def dims(led):
            return [(r["shape"], r["dimL"]) for r in led["rows"]], led["schur_algebra_dim"]

        expected = dims(schur_weyl_decompose(n, d, SYMBOLIC))
        # the bench points and two whose scales s_0 and s_1 differ
        for bk in POINTS:
            assert dims(schur_weyl_decompose(n, d, bk)) == expected

    def test_ledger_takes_no_commutant(self, monkeypatch, capsys):
        # the Schur algebra dimension comes from the orbit route alone
        def refuse(gens):
            raise AssertionError("the ledger built a commutant")

        monkeypatch.setattr(schur, "commutant_dimension", refuse)
        assert schur_weyl_decompose(5, 2, SYMBOLIC)["pass"]
        assert main(["decompose", "--n", "3", "--d", "2"]) == 0
        assert "Schur algebra dim 15" in capsys.readouterr().out

    def test_double_centralizer(self):
        for n, d, expected in [(3, 1, 5), (3, 2, 15)]:
            rep = verify_double_centralizer(n, d, SYMBOLIC)
            assert rep["double_centralizer"]
            assert rep["schur_dim"] == rep["coideal_algebra_dim"] == expected

    def test_irreducibility(self):
        report = irreducibility_report(3, 2, SYMBOLIC)
        for (s1, s2), dim in report.items():
            assert dim == (1 if s1 == s2 else 0)


class TestCabled:
    @pytest.mark.parametrize("n,d,e", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 2, 1)])
    def test_e_hecke_consistency(self, n, d, e):
        assert verify_e_hecke(n, d, e, SYMBOLIC)

    def test_rank1_eigenvalue_counts(self):
        # c_K acts on the (lam, mu) part by the product over the boxes of the
        # JM eigenvalues, q^{2c}/Q on lam and -Q q^{2c} on mu (c the content),
        # which depends only on |mu| and content(lam) + content(mu); at a
        # generic point the count is the number of such pairs that fit n
        def content(lam):
            return sum(j - i for i, row in enumerate(lam) for j in range(row))

        s = default_specialization()
        grid = [(n, e) for n in range(1, 6) for e in (1, 2, 3)] + [
            (2, 4), (3, 4), (6, 2), (1, 5), (2, 5)
        ]
        for n, e in grid:
            pairs = {
                (sum(mu), content(lam) + content(mu))
                for lam, mu in bipartitions(e)
                if semistandard_bitableaux_count((lam, mu), n)
            }
            assert e_hecke_rank1_eigenvalue_count(n, e, s) == len(pairs), (n, e)
