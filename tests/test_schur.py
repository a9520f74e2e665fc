"""Signed powers, Schur functors, centralizer algebras, decompositions."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeb import schur
from heckeb.cli import main
from heckeb.hecke import HeckeElement, bipartition_factors, jucys_murphy, shuffle_t, u_minus, u_plus
from heckeb.rep import SYMBOLIC, BudgetExceeded, SpecializedBackend, rho
from heckeb.scalars import RF_ONE, RF_Q, Specialization, default_specialization
from heckeb.schur import (
    PM_KINDS,
    check_budget,
    e_hecke_rank1_eigenvalue_count,
    expected_pm_dimension,
    irreducibility_report,
    pm_power_dimension,
    product_image,
    schur_algebra_dimension_commutant,
    schur_algebra_dimension_orbit,
    schur_functor_diagram_subspace,
    schur_functor_subspace,
    schur_weyl_decompose,
    verify_double_centralizer,
    verify_e_hecke,
)
from heckeb.weylcomb import (
    all_elements,
    bipartition_fits,
    bipartitions,
    semistandard_bitableaux_count,
)

SPEC = SpecializedBackend(default_specialization())


class TestSignedPowers:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3), (5, 2)])
    @pytest.mark.parametrize("kind", PM_KINDS)
    def test_quotient_dimension(self, kind, n, d):
        assert pm_power_dimension(kind, n, d, SYMBOLIC, "quotient") == expected_pm_dimension(kind, n, d)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3)])
    @pytest.mark.parametrize("kind", PM_KINDS)
    def test_kernel_dimension(self, kind, n, d):
        assert pm_power_dimension(kind, n, d, SYMBOLIC, "kernel") == expected_pm_dimension(kind, n, d)

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


@st.composite
def factor_lists(draw, max_rank, max_len, small_shifts):
    """One to max_len Hecke elements of one rank d <= max_rank: generators,
    shifts K_j + c (c = Q, -1/Q, or a small integer if small_shifts) and
    basis elements with small integer coefficients."""
    d = draw(st.integers(1, max_rank))
    small = st.integers(-2, 2).map(lambda c: RF_ONE * c)
    shift = st.sampled_from([RF_Q, -RF_Q.inverse()])
    if small_shifts:
        shift = st.one_of(shift, small)
    one = HeckeElement.one(d)
    elements = st.one_of(
        st.integers(0, d - 1).map(lambda i: HeckeElement.generator(d, i)),
        st.tuples(st.integers(1, d), shift).map(lambda p: jucys_murphy(d, p[0]) + one.scale(p[1])),
        st.tuples(st.sampled_from(sorted(all_elements(d), key=lambda w: w.images)), small).map(
            lambda p: HeckeElement.basis(d, *p)
        ),
    )
    return draw(st.lists(elements, min_size=1, max_size=max_len))


def expanded_image(factors, n, bk):
    return rho(prod(factors[1:], start=factors[0]), n, bk).column_space()


class TestProductRoute:
    def test_each_distinct_factor_built_once(self):
        """The ledger at d = 3 multiplies through 52 non-identity factors, of
        which 15 are distinct: rho builds each of those once and serves the
        other 37 calls from its cache."""
        one = HeckeElement.one(3)
        factors = [f for s in bipartitions(3) for f in bipartition_factors(s) if f != one]
        rho.cache_clear()
        schur_weyl_decompose(3, 3, SpecializedBackend(Specialization(2, 3)))
        built = rho.cache_info()
        assert (len(factors), len(set(factors))) == (52, 15)
        assert (built.misses, built.hits) == (15, 37)

    @given(factors=factor_lists(3, 4, small_shifts=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_expanded_product_at_a_point(self, factors):
        n = 3 if factors[0].d < 3 else 2
        assert product_image(factors, n, SPEC) == expanded_image(factors, n, SPEC)

    # Eliminating the expanded matrix symbolically is the slow side: at rank
    # 3, or with integer shifts, one 8x8 column space can take tens of seconds
    @given(factors=factor_lists(2, 2, small_shifts=False))
    @settings(max_examples=25, deadline=None)
    def test_matches_the_expanded_product_symbolic(self, factors):
        assert product_image(factors, 2, SYMBOLIC) == expanded_image(factors, 2, SYMBOLIC)


class TestSchurAlgebra:
    @pytest.mark.parametrize("n,d,expected", [(3, 1, 5), (3, 2, 15), (5, 2, 91), (7, 2, 325)])
    def test_dimension_two_ways(self, n, d, expected):
        assert schur_algebra_dimension_orbit(n, d, SYMBOLIC) == expected
        assert schur_algebra_dimension_orbit(n, d, SPEC) == expected
        if n**d <= 30:
            assert schur_algebra_dimension_commutant(n, d, SYMBOLIC) == expected

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
                if bipartition_fits((lam, mu), n)
            }
            assert e_hecke_rank1_eigenvalue_count(n, e, s) == len(pairs), (n, e)
