"""Tensor space actions: R and K matrices, orbit modules, coideal operators."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeb import rep
from heckeb.cli import parse_backend, semisimple
from heckeb.exactlinalg import ExactMatrix, minimal_polynomial, poly_divmod, poly_is_squarefree, poly_mul
from heckeb.hecke import HeckeElement, central_element, jucys_murphy, u_minus, u_plus
from heckeb.rep import (
    SYMBOLIC,
    PermutationModule,
    SpecializedBackend,
    UnclassifiedEigenvalue,
    barv_map,
    central_candidate_eigenvalues,
    _RK_PAIRS,
    _coproducts,
    _kronecker_point,
    _quadratic_holds,
    coideal_generators,
    eigenvalue_multiplicities,
    embed_factors,
    generator_matrix,
    index_shift_matrix,
    jm_candidate_eigenvalues,
    k_block,
    r_block,
    rho,
    rho_basis,
    verify_coideal_commutation,
    verify_k_against_center,
    verify_rho_relations,
    verify_rk_equations,
)
from heckeb.scalars import LP_ONE, RF_ONE, RF_q, LaurentPoly2, Specialization, default_specialization, specialize
from heckeb.schur import restrict_to_subspace
from heckeb.weylcomb import index_set, parabolic_elements, shift_center, shift_outward

SPEC = SpecializedBackend(default_specialization())


class TestAction:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_rho_satisfies_relations(self, n, d):
        assert verify_rho_relations(n, d, SYMBOLIC)

    def test_rho_reverses_products(self):
        # the action is a right action: rho(xy) = rho(y) rho(x)
        n, d = 3, 2
        x = HeckeElement.generator(d, 0)
        y = HeckeElement.generator(d, 1)
        assert rho(x * y, n, SYMBOLIC) == rho(y, n, SYMBOLIC) * rho(x, n, SYMBOLIC)

    def test_generator_matrix_matches_rho(self):
        n, d = 3, 2
        for i in range(d):
            assert generator_matrix(n, d, i, SYMBOLIC) == rho(
                HeckeElement.generator(d, i), n, SYMBOLIC
            )

    @pytest.mark.parametrize("bk", [SYMBOLIC, SPEC], ids=["symbolic", "Q=2,q=3"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rho_basis_by_prefix_matches_word(self, bk, d):
        """rho_basis builds T_w from its cached prefix; the product along a
        whole reduced word gives the same matrix."""
        n = 2
        for w in parabolic_elements(d, range(d)):
            out = ExactMatrix.identity(n**d, bk.one)
            for i in w.reduced_word():
                out = generator_matrix(n, d, i, bk) * out
            assert rho_basis(n, d, w, bk) == out

    def test_specialized_matches_symbolic(self):
        n, d = 3, 2
        sym = rho(jucys_murphy(d, 2), n, SYMBOLIC)
        spc = rho(jucys_murphy(d, 2), n, SPEC)
        specialized = {k: SPEC.of(v) for k, v in sym.entries.items()}
        assert ExactMatrix(sym.nrows, sym.ncols, specialized, SPEC.one) == spc


class TestRKEquations:
    @pytest.mark.parametrize("n", [2, 3])
    def test_braid_and_reflection(self, n):
        res = verify_rk_equations(n, 1, SYMBOLIC)
        assert res["all"], res

    @pytest.mark.parametrize("n", [2, 3])
    def test_blockwise(self, n):
        res = verify_rk_equations(n, 2, SYMBOLIC)
        assert res["all"], res

    @pytest.mark.parametrize("n,e", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
    def test_negative_control(self, n, e):
        """The control stands beside `all` and is left out of it: the
        cylinder product with K := Id, which is R R, never equals K_{2e}."""
        res = verify_rk_equations(n, e, SYMBOLIC)
        equations = {"yang_baxter", "reflection", "k_quadratic", "k_consistency"}
        assert set(res) == equations | {"all", "negative_control"}
        assert res["all"] and not res["negative_control"]
        # nor is the identity a root of T_0's quadratic
        assert not _quadratic_holds(ExactMatrix.identity(n, RF_ONE), 0, SYMBOLIC)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_k_block_is_central_element(self, n, d):
        assert verify_k_against_center(n, d, SYMBOLIC)

    def test_r_block_shape(self):
        m = r_block(1, 2, 3, SYMBOLIC)
        assert m.nrows == 27 and m.ncols == 27
        assert k_block(2, 3, SYMBOLIC).nrows == 9


# the four points of the benchmark (perfbench/workloads.json)
BENCH_POINTS = [
    SpecializedBackend(Specialization(Q, q)) for Q, q in ((2, 3), (3, 2), (5, 3), (3, 7))
]


class TestBlocksSymbolicAgainstSpecialized:
    """The symbolic blocks have Laurent entries, and evaluating them at a
    point gives the blocks the specialized backend builds there."""

    @staticmethod
    def evaluated(m, bk):
        assert all(isinstance(v, LaurentPoly2) for v in m.entries.values())
        s = bk.spec
        e = {k: v.evaluate(s.valueQ, s.valueq) for k, v in m.entries.items()}
        return ExactMatrix(m.nrows, m.ncols, e, bk.one)

    @pytest.mark.parametrize("bk", BENCH_POINTS, ids=repr)
    @pytest.mark.parametrize("n", [2, 3])
    def test_blocks(self, bk, n):
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert self.evaluated(r_block(a, b, n, SYMBOLIC), bk) == r_block(a, b, n, bk)
        for d in (1, 2, 3):
            assert self.evaluated(k_block(d, n, SYMBOLIC), bk) == k_block(d, n, bk)

    @pytest.mark.parametrize("bk", BENCH_POINTS, ids=repr)
    @pytest.mark.parametrize("n,e", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_rk_results(self, bk, n, e):
        assert verify_rk_equations(n, e, bk) == verify_rk_equations(n, e, SYMBOLIC)


def _laurent_product(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def _lp_matrix(nrows, terms):
    """A LaurentPoly2 matrix (unit LP_ONE) from {(row, col): {(a, b): c}}."""
    return ExactMatrix(nrows, nrows, {k: LaurentPoly2(t) for k, t in terms.items()}, LP_ONE)


# a 2 x 2 or 4 x 4 Laurent matrix: exponents from -2 to 2, coefficients up to
# +-3, entries that may be zero
_laurent_entries = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3), max_size=3
)


@st.composite
def _factor(draw):
    """(block, left, right): a 4 x 4 block, or a 2 x 2 one embedded by an
    identity factor of V_2 on its left or right."""
    size, left, right = draw(st.sampled_from([(4, 0, 0), (2, 1, 0), (2, 0, 1)]))
    cells = [(r, c) for r in range(size) for c in range(size)]
    terms = draw(st.dictionaries(st.sampled_from(cells), _laurent_entries, max_size=size * 2))
    return _lp_matrix(size, terms), left, right


class TestKroneckerDecision:
    """Symbolic products of Laurent blocks are compared through their
    integer images at one Kronecker point (SymbolicBackend.kronecker)."""

    @staticmethod
    def assert_covers(point, name, pair, sides):
        """Over LaurentPoly2: each side of the comparison name, times the
        shift of its factors and its unit, has exponents >= 0 and q-degree
        <= W; the two shifts agree, and the sides' largest coefficients sum
        to less than 2^k, which bounds every coefficient of their difference."""
        k, W, shift, comp = point
        totals, tops = [], []
        for keys, (a, b), m in zip(pair, comp[name], sides):
            A = sum(shift[x][0] for x in keys) + a
            B = sum(shift[x][1] for x in keys) + b
            for v in m.entries.values():
                assert all(x + A >= 0 and 0 <= y + B <= W for x, y in v.terms), name
            totals.append((A, B))
            coefficients = [abs(c) for v in m.entries.values() for c in v.terms.values()]
            tops.append(max(coefficients, default=0))
        assert totals[0] == totals[1], name
        assert sum(tops) < 2**k, name

    @staticmethod
    def decide(blocks, left, right):
        """Image equality of the products of (key, left, right) factors."""
        keys = [[k for k, _, _ in side] for side in (left, right)]
        images, units = SYMBOLIC.kronecker(blocks, {"eq": keys})
        sides = [
            _laurent_product([embed_factors(images[k], 2, a, b) for k, a, b in side]).scale(u)
            for side, u in zip((left, right), units["eq"])
        ]
        for m in sides:
            assert m.one == 1 and all(isinstance(v, int) for v in m.entries.values())
        return sides[0] == sides[1]

    @given(
        factors=st.lists(_factor(), min_size=1, max_size=4),
        other=st.lists(_factor(), min_size=1, max_size=4),
        kind=st.sampled_from(["same", "top", "bottom", "other"]),
        delta=st.sampled_from([1, -1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_image_equality_is_laurent_equality(self, factors, other, kind, delta):
        """Products of up to four factors against their own product taken as
        one block, that block with one coefficient moved at the top or bottom
        corner of its exponents, or another random product."""
        blocks = {"f%d" % i: m for i, (m, _, _) in enumerate(factors)}
        left = [("f%d" % i, a, b) for i, (_, a, b) in enumerate(factors)]
        lhs = _laurent_product([embed_factors(m, 2, a, b) for m, a, b in factors])
        if kind == "other":
            blocks.update(("g%d" % i, m) for i, (m, _, _) in enumerate(other))
            right = [("g%d" % i, a, b) for i, (_, a, b) in enumerate(other)]
            rhs = _laurent_product([embed_factors(m, 2, a, b) for m, a, b in other])
        else:
            terms = {k: dict(v.terms) for k, v in lhs.entries.items()}
            if kind != "same":
                cells = [(k, t) for k, v in terms.items() for t in v] or [((0, 0), (0, 0))]
                pick = max if kind == "top" else min
                k, t = pick(cells, key=lambda kt: kt[1])
                entry = terms.setdefault(k, {})
                entry[t] = entry.get(t, 0) + delta
            blocks["p"] = _lp_matrix(4, terms)
            right = [("p", 0, 0)]
            rhs = blocks["p"]
        if kind in ("top", "bottom"):
            assert lhs != rhs
        keys = [[k for k, _, _ in side] for side in (left, right)]
        self.assert_covers(_kronecker_point(blocks, {"eq": keys}), "eq", keys, (lhs, rhs))
        assert self.decide(blocks, left, right) == (lhs == rhs)

    @pytest.mark.parametrize(
        "left,right,point",
        [
            # 2 * 2 against q: coefficients up to 2 * 2 + 1, so 2^k = 8, and
            # 2^k = 4 would map both to 4
            ({(0, 0): 2}, {(0, 1): 1}, (3, 1)),
            # q * q against Q: q-degree 2, so W = 2, and W = 1 would map both
            # to Y^2
            ({(0, 1): 1}, {(1, 0): 1}, (2, 2)),
            # q^-1 * q^-1 against Q^-1 q^-1: each side is brought to the
            # shift Q q^2, giving Q against q, so W = 1, and W = 0 would map
            # both to Y
            ({(0, -1): 1}, {(-1, -1): 1}, (2, 1)),
        ],
    )
    def test_decides_at_the_edge_of_the_range(self, left, right, point):
        """1 x 1 products that differ by a term at the largest coefficient or
        q-degree the point covers: a point one smaller would take them equal."""
        blocks = {"a": _lp_matrix(1, {(0, 0): left}), "b": _lp_matrix(1, {(0, 0): right})}
        assert not self.decide(blocks, [("a", 0, 0)] * 2, [("b", 0, 0)])
        assert _kronecker_point(blocks, {"eq": ("aa", "b")})[:2] == point

    def test_sides_with_different_shifts(self):
        """a^2 = 1 for a = [[0, q^-1], [q, 0]]: the left side carries the
        shift q^2 and the right none, so the right image is multiplied by
        phi(q^2) before they are compared."""
        a = _lp_matrix(2, {(0, 1): {(0, -1): 1}, (1, 0): {(0, 1): 1}})
        blocks = {"a": a, "one": _lp_matrix(2, {(0, 0): {(0, 0): 1}, (1, 1): {(0, 0): 1}})}
        blocks["two"] = _lp_matrix(2, {(0, 0): {(0, 0): 2}, (1, 1): {(0, 0): 2}})
        k, W, shift, comp = _kronecker_point(blocks, {"eq": ("aa", ["one"])})
        assert shift["a"] == (0, 1) and shift["one"] == (0, 0)
        assert comp["eq"] == [(0, 0), (0, 2)]
        assert W >= 2
        _, units = SYMBOLIC.kronecker(blocks, {"eq": ("aa", ["one"])})
        assert units["eq"] == (1, 1 << 2 * k)
        assert self.decide(blocks, [("a", 0, 0)] * 2, [("one", 0, 0)])
        assert not self.decide(blocks, [("a", 0, 0)] * 2, [("two", 0, 0)])
        # the negative control: R R is shifted less than K_{2e}
        blocks = {"R": r_block(2, 2, 3), "K": k_block(2, 3), "K2": k_block(4, 3)}
        _, _, _, comp = _kronecker_point(blocks, _RK_PAIRS)
        assert comp["negative_control"][0] != (0, 0)

    @pytest.mark.parametrize("n,e", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
    def test_point_covers_every_difference(self, n, e):
        """The point verify_rk_equations takes covers both sides of each
        comparison, the negative control R R against K_{2e} included, formed
        here over LaurentPoly2 as the check forms them."""
        rb, kb, k2 = r_block(e, e, n), k_block(e, n), k_block(2 * e, n)
        point = _kronecker_point({"R": rb, "K": kb, "K2": k2}, _RK_PAIRS)
        r1, r2 = embed_factors(rb, n, 0, e), embed_factors(rb, n, e, 0)
        k1 = embed_factors(kb, n, 0, e)
        products = {
            "yang_baxter": (r1 * r2 * r1, r2 * r1 * r2),
            "reflection": (k1 * rb * k1 * rb, rb * k1 * rb * k1),
            "k_consistency": (k1 * rb * k1 * rb, k2),
            "negative_control": (rb * rb, k2),
        }
        assert set(products) == set(_RK_PAIRS)
        for name, sides in products.items():
            self.assert_covers(point, name, _RK_PAIRS[name], sides)


class TestGeneratorsSymbolicAgainstSpecialized:
    """Every symbolic entry of the Hecke and coideal generators, evaluated at
    a point, gives the matrix the specialized backend builds there."""

    @staticmethod
    def evaluated(m, bk):
        e = {k: specialize(v, bk.spec) for k, v in m.entries.items()}
        return ExactMatrix(m.nrows, m.ncols, e, bk.one)

    @pytest.mark.parametrize("bk", BENCH_POINTS, ids=repr)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_generators(self, bk, n, d):
        for i in range(d):
            assert self.evaluated(generator_matrix(n, d, i, SYMBOLIC), bk) == generator_matrix(
                n, d, i, bk
            )
        symbolic = coideal_generators(n, d, SYMBOLIC)
        specialized = coideal_generators(n, d, bk)
        assert symbolic.keys() == specialized.keys()
        for name, m in symbolic.items():
            assert self.evaluated(m, bk) == specialized[name]


class TestPermutationModules:
    def test_restriction_consistency(self):
        # the orbit module action matches the ambient action on orbit vectors
        n, d = 3, 2
        pm = PermutationModule(n, (0, 2), SYMBOLIC)
        assert pm.dim == 4
        incl = index_shift_matrix(pm, lambda v: v, n)
        for i in range(d):
            assert incl * pm.generator(i) == generator_matrix(n, d, i, SYMBOLIC) * incl

    def test_outward_shift_intertwines(self):
        n, d = 3, 2
        pm = PermutationModule(n, (2, 2), SYMBOLIC)
        psi = index_shift_matrix(pm, lambda v: shift_outward(v, 2), n + 2)
        for i in range(d):
            assert psi * pm.generator(i) == generator_matrix(n + 2, d, i, SYMBOLIC) * psi

    def test_center_shift_intertwines(self):
        # even to odd: insert a middle zero slot, n = 2 -> 3
        pm = PermutationModule(2, (1, 1), SYMBOLIC)
        psi = index_shift_matrix(pm, shift_center, 3)
        for i in range(pm.d):
            assert psi * pm.generator(i) == generator_matrix(3, pm.d, i, SYMBOLIC) * psi

    @pytest.mark.parametrize("a", [(0,), (0, 0), (0, 2), (2, 2)])
    def test_barv_injective_and_equivariant(self, a):
        n = 3
        phi = barv_map(a, n, SYMBOLIC)
        pm = PermutationModule(n, a, SYMBOLIC)
        assert phi.rank() == pm.dim
        for i in range(pm.d):
            assert phi * pm.generator(i) == generator_matrix(n + 1, pm.d, i, SYMBOLIC) * phi


class TestCoproducts:
    """The tensor-tuple coproducts against the Hopf definition, one factor at
    a time: Delta E = E (x) H^-1 + 1 (x) E, Delta F = F (x) 1 + H (x) F, and
    H, H^-1 as tensor powers, from the elementary operators on V_n."""

    @staticmethod
    def elementary(n, j, bk):
        pos = {v: k for k, v in enumerate(index_set(n))}
        q = bk.of(RF_q)
        e = ExactMatrix(n, n, {(pos[j - 1], pos[j + 1]): bk.one}, bk.one)
        f = ExactMatrix(n, n, {(pos[j + 1], pos[j - 1]): bk.one}, bk.one)
        h = {(k, k): q if v == j - 1 else 1 / q if v == j + 1 else bk.one for v, k in pos.items()}
        hinv = {k: 1 / v for k, v in h.items()}
        return e, f, ExactMatrix(n, n, h, bk.one), ExactMatrix(n, n, hinv, bk.one)

    @pytest.mark.parametrize("bk", [SYMBOLIC] + BENCH_POINTS[:2], ids=repr)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hopf_definition(self, bk, n):
        for j in index_set(n - 1):
            e1, f1, h1, hinv1 = self.elementary(n, j, bk)
            assert _coproducts(n, 1, j, bk) == (e1, f1, h1, hinv1)
            for d in (2, 3):
                e, f, h, hinv = _coproducts(n, d - 1, j, bk)
                one = ExactMatrix.identity(n ** (d - 1), bk.one)
                assert _coproducts(n, d, j, bk) == (
                    e.kron(hinv1) + one.kron(e1),
                    f.kron(ExactMatrix.identity(n, bk.one)) + h.kron(f1),
                    h.kron(h1),
                    hinv.kron(hinv1),
                )


class TestCoideal:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3)])
    def test_generators_commute_with_hecke(self, n, d):
        assert verify_coideal_commutation(n, d, SYMBOLIC) == []

    @pytest.mark.parametrize("point", ["Q=2,q=3", "Q=3,q=7"])
    def test_a_generator_that_fails_to_commute_is_reported(self, monkeypatch, point):
        """At a point the products are taken over Z, and report each
        (name, i) that the products over Q do."""
        bk = parse_backend(point)
        gens = dict(coideal_generators(3, 3, bk))
        g = gens["e_1/2"]
        gens["e_1/2"] = g + ExactMatrix(27, 27, {(0, 1): Fraction(1, 3)}, g.one)
        monkeypatch.setattr(rep, "coideal_generators", lambda n, d, bk: gens)
        heckes = [generator_matrix(3, 3, i, bk) for i in range(3)]
        expected = [
            (name, i) for name, g in gens.items() for i, h in enumerate(heckes) if g * h != h * g
        ]
        assert expected and {name for name, _ in expected} == {"e_1/2"}
        assert verify_coideal_commutation(3, 3, bk) == expected

    def test_generator_names(self):
        names = set(coideal_generators(3, 2, SYMBOLIC))
        assert "d_1" in names
        assert any(name.startswith("e_") for name in names)
        names_even = set(coideal_generators(4, 2, SYMBOLIC))
        assert "t" in names_even


# candidate roots: signs, denominators, a root and its negative, zero, and
# large heights
ROOTS = [
    Fraction(v)
    for v in (2, -2, Fraction(1, 2), Fraction(-3, 4), Fraction(4, 9), 5, 0, 2**61 - 1, 2**68 + 1)
]
BIG = Fraction(2**68 + 1)


class TestSpectra:
    s = default_specialization()

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_jm_eigenvalues_classified(self, n, d):
        for i in range(1, d + 1):
            m = rho(jucys_murphy(d, i), n, SPEC)
            mults = eigenvalue_multiplicities(m, jm_candidate_eigenvalues(i, self.s))
            assert mults
            assert poly_is_squarefree(minimal_polynomial(m))
            assert semisimple(mults) == poly_is_squarefree(minimal_polynomial(m))

    def test_jordan_block_not_semisimple(self):
        two = Fraction(2)
        m = ExactMatrix(2, 2, {(0, 0): two, (0, 1): Fraction(1), (1, 1): two})
        mults = eigenvalue_multiplicities(m, [two])
        assert mults == {two: 2}
        # a repeated candidate takes its first place and nothing more
        assert eigenvalue_multiplicities(m, [Fraction(3), two, two]) == {two: 2}
        assert not poly_is_squarefree(minimal_polynomial(m))
        assert not semisimple(mults)

    @given(
        roots=st.lists(st.tuples(st.sampled_from(ROOTS), st.integers(1, 3)), max_size=4),
        extra=st.sampled_from([[], [2, 0, 1], [-2, 0, 1], [Fraction(-1, 7), 1]]),
        cands=st.lists(st.sampled_from(ROOTS), unique=True, max_size=len(ROOTS)),
        beside=st.sampled_from([None, "same", "before", "after"]),
        over_z=st.booleans(),
    )
    # the 0 x 0 matrix, with and without candidates
    @example(roots=[], extra=[], cands=[], beside=None, over_z=False)
    @example(roots=[], extra=[], cands=ROOTS, beside="same", over_z=True)
    # a zero eigenvalue, as a candidate and not
    @example(roots=[(ROOTS[6], 2), (ROOTS[0], 1)], extra=[], cands=ROOTS, beside="after", over_z=False)
    @example(roots=[(ROOTS[6], 1)], extra=[], cands=[ROOTS[0]], beside="before", over_z=True)
    # a zero candidate that is no root
    @example(roots=[(ROOTS[0], 2)], extra=[], cands=[ROOTS[6], ROOTS[0]], beside=None, over_z=True)
    # roots of height 2^68 + 1: with their negative, beside a factor outside
    # the candidates, and with their inverse
    @example(roots=[(BIG, 2), (-BIG, 1)], extra=[], cands=[-BIG, BIG], beside="after", over_z=False)
    @example(roots=[(BIG, 1)], extra=[2, 0, 1], cands=[BIG], beside=None, over_z=True)
    @example(roots=[(1 / BIG, 2), (BIG, 1)], extra=[], cands=[BIG, 1 / BIG], beside="before", over_z=True)
    @settings(max_examples=80, deadline=None)
    def test_deflation_matches_the_fraction_loop(self, roots, extra, cands, beside, over_z):
        """The deflation over Z, chain by chain, gives the multiplicities (and
        the failure) of the Fraction oracle, minimal_polynomial deflated by
        poly_divmod.  The matrices are companion matrices whose minimal
        polynomial is a product of candidate and other factors; beside, the
        direct sum with a second block, one chain each: the same companion,
        or that of the roots taken once, before or after it, so a root's
        multiplicity differs between the chains; over_z, the integer multiple
        L m with an int unit, and the candidates scaled by L with it."""
        p, simple = [Fraction(1)], [Fraction(1)]
        for lam, k in roots:
            simple = poly_mul(simple, [-lam, Fraction(1)])
            for _ in range(k):
                p = poly_mul(p, [-lam, Fraction(1)])
        p = poly_mul(p, [Fraction(c) for c in extra] or [Fraction(1)])
        blocks = {None: [p], "same": [p, p], "before": [simple, p], "after": [p, simple]}[beside]
        e, size = {}, 0
        for q in blocks:
            deg = len(q) - 1
            e.update({(size + i + 1, size + i): Fraction(1) for i in range(deg - 1)})
            e.update({(size + i, size + deg - 1): -c / q[-1] for i, c in enumerate(q[:-1])})
            size += deg
        m = ExactMatrix(size, size, e)
        if over_z:
            den = math.lcm(*(v.denominator for v in e.values()))
            m = ExactMatrix(size, size, {k: int(v * den) for k, v in e.items()}, 1)
            cands = [lam * den for lam in cands]
        mp, expected = minimal_polynomial(m), {}
        for lam in cands:
            while len(mp) > 1:
                quot, rem = poly_divmod(mp, [-lam, Fraction(1)])
                if rem:
                    break
                expected[lam] = expected.get(lam, 0) + 1
                mp = quot
        try:
            got = eigenvalue_multiplicities(m, cands)
        except UnclassifiedEigenvalue:
            got = None
        assert got == (expected if len(mp) == 1 else None)
        # in candidate order
        assert got is None or list(got) == [lam for lam in cands if lam in got]

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
    def test_central_eigenvalues_classified(self, n, d):
        m = rho(central_element(d), n, SPEC)
        mults = eigenvalue_multiplicities(m, central_candidate_eigenvalues(d, self.s))
        assert mults
        assert poly_is_squarefree(minimal_polynomial(m))

    def test_u_images_are_eigenspaces(self):
        # im rho(u_d^+) lies in the positive generalized eigenspace of every
        # K_i, im rho(u_d^-) in the negative one; each image is K_i-invariant,
        # so that is the sign of every eigenvalue of K_i restricted to it
        n, d = 3, 2
        plus = rho(u_plus(d, d), n, SPEC).column_space()
        minus = rho(u_minus(d, d), n, SPEC).column_space()
        assert plus.dim == 4  # ceil(3/2)^2
        assert minus.dim == 1  # floor(3/2)^2
        for i in range(1, d + 1):
            m = rho(jucys_murphy(d, i), n, SPEC)
            cands = jm_candidate_eigenvalues(i, self.s)
            assert all(v > 0 for v in eigenvalue_multiplicities(restrict_to_subspace(m, plus), cands))
            assert all(v < 0 for v in eigenvalue_multiplicities(restrict_to_subspace(m, minus), cands))
