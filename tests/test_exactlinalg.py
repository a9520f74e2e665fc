"""Sparse exact matrices, canonical subspaces, and minimal polynomials."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heckeb import exactlinalg, schur
from heckeb.cli import UsageError, main, parse_backend
from heckeb.exactlinalg import (
    ExactMatrix,
    ShapeMismatch,
    Subspace,
    commutant_dimension,
    dual_pair_dimensions,
    hstack,
    intertwiner_dimension,
    krylov_annihilators,
    matrix_algebra_dimension,
    minimal_polynomial,
    poly_divmod,
    poly_eval_matrix,
    poly_gcd_monic,
    poly_is_squarefree,
    poly_lcm,
    poly_monic,
    poly_mul,
    vstack,
    _eliminate,
    _integer_matrix,
    _sylvester,
    integer_echelon,
)
from heckeb.rep import SYMBOLIC, coideal_generators, generator_matrix, tensor_tuples
from heckeb.scalars import RF_ONE, RF_Q, RF_q
from heckeb.weylcomb import dominant_tuples
from heckeb.schur import verify_double_centralizer

ONE = Fraction(1)
# the primes the sandwich tries at a point where no prime is unlucky
_PRIMES = exactlinalg.sandwich_primes(lambda p: True)


def elimination_rank(m):
    """The rank of m by `_eliminate` on its rows: the oracle of the other
    ranks."""
    return len(_eliminate(m.rows(), m.ncols))


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


integer_vectors = st.dictionaries(
    st.integers(0, 5),
    st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**61), 2**61)),
    max_size=6,
)


@st.composite
def integer_vector_lists(draw):
    """Integer vectors, with zero vectors, duplicates and multiples planted."""
    vecs = draw(st.lists(integer_vectors, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if vecs:
            v = draw(st.sampled_from(vecs))
            c = draw(st.sampled_from([1, -1, 2, 2**61 - 1]))
            vecs.insert(draw(st.integers(0, len(vecs))), {k: c * x for k, x in v.items()})
    return vecs + draw(st.lists(st.just({}), max_size=1)) + [{0: 0, 3: 0}]


def no_float(vectors):
    return all(type(x) in (int, Fraction) for v in vectors for x in v.values())


class TestIntegerEchelon:
    @given(integer_vector_lists())
    @settings(max_examples=100, deadline=None)
    def test_against_fraction_elimination(self, vecs):
        out = integer_echelon(vecs)
        assert len(out) == len(_eliminate([{k: x for k, x in v.items() if x} for v in vecs], 6))
        assert Subspace(6, out) == Subspace(6, vecs)
        pivots = [min(v) for v in out]
        assert pivots == sorted(set(pivots))
        for v in out:
            assert all(type(x) is int and x for x in v.values())
            assert math.gcd(*v.values()) == 1

    def test_int_unit_has_no_float(self):
        """A matrix over Z (an int unit) eliminates over Q: 1 / p in floating
        point once lost the rank of this unimodular matrix."""
        p = 2**61 - 1
        m = ExactMatrix(2, 2, {(0, 0): p, (0, 1): p + 1, (1, 0): p - 1, (1, 1): p}, 1)
        assert m.rank() == 2
        assert elimination_rank(m) == 2 and m.nullity() == 0
        space = m.column_space()
        assert space.dim == 2 and no_float(space.basis())
        assert space == Subspace(2, [{0: 1}, {1: 1}], 1)
        singular = ExactMatrix(2, 2, {(0, 0): p, (0, 1): p * 3, (1, 0): 2, (1, 1): 6}, 1)
        assert singular.rank() == 1
        assert elimination_rank(singular) == 1
        assert no_float(singular.column_space().basis())


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
        assert not poly_is_squarefree(sq)
        assert poly_is_squarefree([Fraction(-1), Fraction(0), ONE])


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


@st.composite
def krylov_matrices(draw):
    """Small square matrices, Fraction or int entries: a random block B, or
    B + B and the Jordan-like [[B, I], [0, B]], so that chains repeat an
    annihilator or raise a multiplicity."""
    k = draw(st.integers(0, 4))
    entries = st.one_of(st.just(Fraction(0)), fractions_mixed)
    block = {(i, j): v for i in range(k) for j in range(k) if (v := draw(entries))}
    shape = draw(st.sampled_from(["B", "B+B", "Jordan"]))
    if shape == "B":
        n, e = k, block
    else:
        n, e = 2 * k, {**block, **{(i + k, j + k): v for (i, j), v in block.items()}}
        if shape == "Jordan":
            e.update({(i, i + k): ONE for i in range(k)})
    m = ExactMatrix(n, n, e)
    return _integer_matrix(m) if draw(st.booleans()) else m


class TestKrylovAnnihilators:
    @given(krylov_matrices())
    @settings(max_examples=80, deadline=None)
    def test_each_annihilates_its_start_vector(self, m):
        """Each annihilator is a list of ints of content 1 with sum_k c_k
        M^k e_j = 0 for M = L m and e_j its start, of least degree (the
        Krylov vectors before it are independent); and the lcm of all of them
        is the minimal polynomial of M, by the Fraction oracle."""
        big = _integer_matrix(m)
        mp = []
        for j, c in krylov_annihilators(m):
            assert all(type(x) is int for x in c) and c[-1] and math.gcd(*c) == 1
            powers = [{j: 1}]
            for _ in c[1:]:
                powers.append(big.apply(powers[-1]))
            assert len(integer_echelon(powers[:-1])) == len(c) - 1
            total = {}
            for x, vec in zip(c, powers):
                for r, v in vec.items():
                    total[r] = total.get(r, 0) + x * v
            assert not any(total.values())
            mp = poly_lcm(mp, [Fraction(x) for x in c])
        assert (poly_monic(mp) or [ONE]) == minimal_polynomial(big)

    def test_not_square(self):
        with pytest.raises(ShapeMismatch):
            list(krylov_annihilators(ExactMatrix(2, 3)))


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


# ---------------------------------------------------------------------------
# ranks over Q by integer elimination against elimination over Fractions

POINTS = ["Q=2,q=3", "Q=3,q=2", "Q=5,q=3", "Q=3,q=7"]

fractions_small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
sparse_entries = st.one_of(st.just(Fraction(0)), fractions_small)


# numerators up to 2^61 in size over denominators that differ entry by entry
HEIGHT = 2**61
fractions_mixed = st.one_of(
    fractions_small,
    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.sampled_from([1, 2, 3, 7, 12, HEIGHT - 1])),
)


@st.composite
def planted_matrices(draw, entries=sparse_entries, factors=fractions_small):
    """Sparse rational matrices with dependent columns, then rows, planted
    as combinations of two earlier ones."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        a, b = draw(factors), draw(factors)
        for row in rows:
            row.append(a * row[i] + b * row[j])
        ncols += 1
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        a, b = draw(factors), draw(factors)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        nrows += 1
    return dense(rows)


def is_prime(n):
    """Deterministic Miller-Rabin: the prime bases up to 37 decide every
    n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestCertifiedRank:
    @given(planted_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_elimination(self, m):
        expected = elimination_rank(m)
        assert m.rank() == expected
        assert _integer_matrix(m).rank() == expected

    @given(planted_matrices(st.one_of(st.just(Fraction(0)), fractions_mixed), fractions_mixed))
    @settings(max_examples=60, deadline=None)
    def test_rank_with_mixed_denominators(self, m):
        """Large heights: the rank over Z, on the Fraction matrix and on its
        integer multiple."""
        expected = elimination_rank(m)
        assert m.rank() == _integer_matrix(m).rank() == expected

    @pytest.mark.parametrize("shape", [(9, 3), (3, 9), (4, 4)])
    def test_reduces_the_shorter_side(self, monkeypatch, shape):
        """A rank over Q eliminates the columns of a tall matrix, rank(A) =
        rank(A^T), and the rows otherwise."""
        nrows, ncols = shape
        cells = [(r, c) for r in range(nrows) for c in range(ncols)]
        m = ExactMatrix(nrows, ncols, {(r, c): Fraction(r * c + 1, c + 2) for r, c in cells})
        seen = []
        echelon = exactlinalg.integer_echelon
        monkeypatch.setattr(
            exactlinalg, "integer_echelon", lambda vs: seen.append(len(vs)) or echelon(vs)
        )
        assert m.rank() == m.transpose().rank() == elimination_rank(m) == 2
        assert seen == [min(shape), min(shape)]

    def test_primes_are_prime(self):
        assert [is_prime(n) for n in (2, 37, 41, 561, 2**31 - 1, 2**61 + 1)] == [
            True, True, True, False, True, False]
        assert all(is_prime(p) and p < 2**30 for p in _PRIMES)

    def test_primes_are_prime_by_sympy(self):
        sympy = pytest.importorskip("sympy")
        assert all(sympy.isprime(p) and p < 2**30 for p in _PRIMES)

    def test_point_at_the_first_prime_end_to_end(self, capsys):
        argv = ["verify", "--suite", "double-centralizer", "--n", "2", "--d", "2",
                "--backend", "Q=%d,q=3" % _PRIMES[0], "--output", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_kernel_entry_of_400_bits(self):
        # the kernel is spanned by (2^400, 1)
        big = 2**400
        m = dense([[1, -big], [2, -2 * big]])
        assert m.rank() == elimination_rank(m) == 1
        # a Sylvester system whose kernel holds the same vector
        assert intertwiner_dimension([dense([[0, big], [0, 0]])], [dense([[0, 1], [0, 0]])]) == 2

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_generators_match_fraction_route(self, n, point):
        bk = parse_backend(point)
        hecke = [generator_matrix(n, 2, i, bk) for i in range(2)]
        coideal = list(coideal_generators(n, 2, bk).values())
        for gens in (hecke, coideal):
            s = _sylvester(gens, gens)
            assert commutant_dimension(gens) == s.ncols - elimination_rank(s)
        # the per-quantity route against the sandwich, at d = 2 and 3
        for d in (2, 3):
            hecke = [generator_matrix(n, d, i, bk) for i in range(d)]
            coideal = list(coideal_generators(n, d, bk).values())
            dims = dual_pair_dimensions(coideal, hecke, _PRIMES, dominant_rows(n, d))
            assert per_quantity(coideal, hecke) == dims

    def test_coideal_closure_at_Q3_q7(self):
        bk = parse_backend("Q=3,q=7")
        coideal = list(coideal_generators(3, 2, bk).values())
        assert matrix_algebra_dimension(coideal) == 15


# ---------------------------------------------------------------------------
# the sandwich certificate of a dual pair


def per_quantity(gens_a, gens_b):
    return (
        matrix_algebra_dimension(gens_a),
        commutant_dimension(gens_a),
        matrix_algebra_dimension(gens_b),
        commutant_dimension(gens_b),
    )


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def polynomial_pairs(draw, size=3, entries=fractions):
    """A = {p(M), ...} against B = {M}: every a commutes with M."""
    m = dense([[draw(entries) for _ in range(size)] for _ in range(size)])
    polys = draw(st.lists(st.lists(fractions, min_size=1, max_size=3), min_size=1, max_size=2))
    return [poly_eval_matrix(p, m) for p in polys], [m]


# index rows of a 3 x 3 pair, offered to the row search: cyclic or not,
# repeated or not
offered_rows = st.lists(st.integers(0, 2), max_size=3)


def dominant_rows(n, d):
    """The rows of V_n^{(x) d} at the dominant tuples, one per W-orbit."""
    index = tensor_tuples(n, d)[1]
    return [index[t] for t in dominant_tuples(n, d)]


# every (n, d) the double-centralizer caps accept at a point
ACCEPTED = [
    (n, d)
    for n in range(1, 65)
    for d in range(1, schur.ALGEBRA_MAX_RANK + 1)
    if n**d <= schur.SPECIALIZED_BUDGET
    and n ** (2 * d) <= schur.SYLVESTER_MAX_WIDTH[False]
    and (n == 1 or d <= schur.DOUBLE_CENTRALIZER_MAX_RANK[False])
]


def nullity_mod(s, p):
    red = [{i: v % p for i, v in col.items() if v % p} for col in s.columns()]
    return s.ncols - len(_eliminate(red, s.nrows, p))


@st.composite
def random_points(draw):
    """A point of small height, and whether the first prime of `_PRIMES` is
    planted in the numerator or denominator of Q, or so that q = 1 mod it."""
    small = st.integers(1, 9)
    c, e, a, b = (draw(small) for _ in range(4))
    c, a = c * draw(st.sampled_from([1, -1])), a * draw(st.sampled_from([1, -1]))
    planted = draw(st.sampled_from([None, "Q", "1/Q", "q=1"]))
    if planted == "Q":
        c *= _PRIMES[0]
    elif planted == "1/Q":
        e *= _PRIMES[0]
    elif planted == "q=1":
        a = a * _PRIMES[0] + b
    try:
        return parse_backend("Q=%d/%d,q=%d/%d" % (c, e, a, b)), planted
    except UsageError:
        assume(False)


class TestDualPairDimensions:
    @given(polynomial_pairs())
    @settings(max_examples=80, deadline=None)
    def test_none_or_the_per_quantity_values(self, pair):
        a, b = pair
        got = dual_pair_dimensions(a, b, _PRIMES)
        assert got is None or got == per_quantity(a, b)

    @given(
        polynomial_pairs(entries=st.one_of(st.just(Fraction(0)), fractions)),
        offered_rows,
    )
    @settings(max_examples=150, deadline=None)
    def test_offered_rows_keep_it_sound(self, pair, rows):
        """Whatever rows are offered, cyclic or not, the sandwich gives the
        per-quantity values or None: rows that do not generate are
        completed, and bound the commutant on all rows."""
        a, b = pair
        got = dual_pair_dimensions(a, b, _PRIMES, rows)
        assert got is None or got == per_quantity(a, b)

    def test_rows_of_one_eigenspace_are_not_cyclic(self):
        # D = diag(1, 2, 2) and the matrix units E_00, E_11, E_12, E_21 are a
        # dual pair: both generate the other's commutant.  Under D, e_0
        # generates only span(e_0), on which the equations of row 0 would
        # bound Comm(D), of dimension 5, by 1
        d = dense([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
        units = [(0, 0), (1, 1), (1, 2), (2, 1)]
        a = [dense([[int((r, c) == rc) for c in range(3)] for r in range(3)]) for rc in units]
        assert dual_pair_dimensions(a, [d], _PRIMES, [0]) == per_quantity(a, [d]) == (5, 2, 2, 5)

    @pytest.mark.parametrize("point", POINTS)
    def test_dominant_rows_bound_the_schur_algebra_exactly(self, point):
        """At every (n, d) the caps accept, the dominant rows are cyclic
        for the Hecke action mod p, and the nullity mod p of their
        equations (the stabilizer eigen-conditions) is the full one."""
        p = _PRIMES[0]
        bk = parse_backend(point)
        for n, d in ACCEPTED:
            ints = [_integer_matrix(generator_matrix(n, d, i, bk)) for i in range(d)]
            dominant = dominant_rows(n, d)
            rows = exactlinalg._cyclic_rows([g.rows() for g in ints], n**d, dominant, p)
            assert rows == dominant
            assert nullity_mod(_sylvester(ints, ints, dominant), p) == nullity_mod(
                _sylvester(ints, ints), p
            ), (n, d)

    @pytest.mark.parametrize("point", POINTS + ["Q=%d,q=3" % (2**1024 - 1)])
    def test_hecke_bound_on_the_dominant_rows(self, monkeypatch, point):
        """n 3, d 3 closes at the first prime, and bounds the Schur algebra
        on its 4 dominant rows: no N^2-unknown Hecke system is built, and the
        coideal's system has only the unknowns on its weight blocks."""
        built, widths, primes = [], [], []
        sylvester, eliminate = exactlinalg._sylvester, exactlinalg._eliminate

        def spy_sylvester(gens_u, gens_w, rows=None):
            built.append(rows)
            s = sylvester(gens_u, gens_w, rows)
            widths.append(s.ncols)
            return s

        def refuse(gens):
            raise AssertionError("the sandwich did not close")

        monkeypatch.setattr(exactlinalg, "_sylvester", spy_sylvester)
        monkeypatch.setattr(
            exactlinalg, "_eliminate", lambda r, c, p: primes.append(p) or eliminate(r, c, p)
        )
        monkeypatch.setattr(schur, "matrix_algebra_dimension", refuse)
        monkeypatch.setattr(schur, "commutant_dimension", refuse)
        argv = ["verify", "--suite", "double-centralizer", "--n", "3", "--d", "3"]
        assert main(argv + ["--backend", point]) == 0
        dominant = dominant_rows(3, 3)
        assert len(dominant) == 4
        # the Schur algebra's bound on the dominant rows, then the coideal's
        # commutant on all 27 rows
        assert built == [dominant, None]
        # 27 unknowns on each dominant row; 245 of the 729 on the coideal's
        # 4 weight blocks
        assert widths == [4 * 27, 245]
        assert primes == [_PRIMES[0]] * 2

    def test_cyclic_matrix_closes(self):
        # M is cyclic, so Comm(M) = alg(M), and M^2 + M generates it too
        m = dense([[0, 0, 6], [1, 0, -11], [0, 1, 6]])
        a = [poly_eval_matrix([0, 1, 1], m)]
        assert dual_pair_dimensions(a, [m], _PRIMES) == per_quantity(a, [m]) == (3, 3, 3, 3)

    @pytest.mark.parametrize(
        "gens_a,gens_b",
        [
            # they commute, but alg(I) = 1 < 2 = dim Comm(diag(1, 2))
            ([dense([[1, 0], [0, 1]])], [dense([[1, 0], [0, 2]])]),
            # they do not commute
            ([dense([[0, 1], [0, 0]])], [dense([[1, 0], [0, 2]])]),
        ],
        ids=["bounds-apart", "not-commuting"],
    )
    def test_falls_back_to_the_per_quantity_route(self, monkeypatch, gens_a, gens_b):
        assert dual_pair_dimensions(gens_a, gens_b, _PRIMES) is None
        monkeypatch.setattr(schur, "coideal_generators", lambda n, d, bk: {"a": gens_a[0]})
        monkeypatch.setattr(schur, "generator_matrix", lambda n, d, i, bk: gens_b[i])
        alg_a, comm_a, alg_b, comm_b = per_quantity(gens_a, gens_b)
        assert verify_double_centralizer(2, 1, parse_backend("Q=2,q=3")) == {
            "schur_dim": comm_b,
            "coideal_algebra_dim": alg_a,
            "hecke_algebra_dim": alg_b,
            "commutant_of_coideal": comm_a,
            "double_centralizer": comm_b == alg_a and alg_b == comm_a,
        }

    def test_symbolic_entries_take_no_certificate(self):
        gens = [generator_matrix(2, 2, i, SYMBOLIC) for i in range(2)]
        assert dual_pair_dimensions(gens, gens, _PRIMES) is None

    @pytest.mark.parametrize(
        "point",
        [
            "Q=%d,q=3" % (2**61 - 1),
            "Q=1e300,q=3",
            "Q=3,q=%d" % (2**61 - 1),
            "Q=3,q=%d" % 2**61,
            "Q=3,q=%d" % _PRIMES[0],
            "Q=3,q=%d" % (_PRIMES[0] + 1),
            "Q=%d,q=3" % _PRIMES[0],
        ],
    )
    def test_large_height_closes_without_a_rank(self, monkeypatch, point):
        # Q of 61 and 997 bits, q = 0 or 1 mod 2^61 - 1, q = 0 or 1 mod the
        # first prime (the second closes it) and Q = 0 mod it: no dimension
        # is taken on its own
        def refuse(gens):
            raise AssertionError("the sandwich did not close")

        monkeypatch.setattr(schur, "matrix_algebra_dimension", refuse)
        monkeypatch.setattr(schur, "commutant_dimension", refuse)
        argv = ["verify", "--suite", "double-centralizer", "--n", "3", "--d", "3"]
        assert main(argv + ["--backend", point]) == 0

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3)])
    def test_unlucky_at_every_prime_takes_the_exact_route(self, monkeypatch, n, d):
        # q = 1 mod each prime of `_PRIMES`, which the walk is patched to
        # give: the bounds meet at neither, so each dimension is taken
        # exactly (the algebras over Z), and the pair still closes
        point = "Q=3,q=%d" % (3 * _PRIMES[0] * _PRIMES[1] + 1)
        bk = parse_backend(point)
        hecke = [generator_matrix(n, d, i, bk) for i in range(d)]
        coideal = list(coideal_generators(n, d, bk).values())
        assert dual_pair_dimensions(coideal, hecke, _PRIMES) is None
        monkeypatch.setattr(schur, "sandwich_primes", lambda lucky: _PRIMES)
        calls = []
        exact = schur.matrix_algebra_dimension
        monkeypatch.setattr(
            schur, "matrix_algebra_dimension", lambda g: calls.append(1) or exact(g)
        )
        argv = ["verify", "--suite", "double-centralizer", "--n", str(n), "--d", str(d)]
        assert main(argv + ["--backend", point]) == 0
        assert len(calls) == 2

    @given(random_points(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_random_point(self, point, n, d):
        """At a random point the walk takes only primes lucky for it (Q and
        q units, q^2k != 1 for k <= d), and the sandwich's four dimensions,
        when it closes, are the per-quantity route's, as is the report."""
        bk, planted = point
        (c, e), (a, b) = (x.as_integer_ratio() for x in (bk.spec.valueQ, bk.spec.valueq))
        walked, certified = [], []
        walk, certify = schur.sandwich_primes, schur.dual_pair_dimensions

        def spy_walk(lucky):
            walked.append(walk(lucky))
            return walked[-1]

        def spy_certify(gens_a, gens_b, primes, rows):
            certified.append((gens_a, gens_b, certify(gens_a, gens_b, primes, rows)))
            return certified[-1][2]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schur, "sandwich_primes", spy_walk)
            mp.setattr(schur, "dual_pair_dimensions", spy_certify)
            report = verify_double_centralizer(n, d, bk)
        ((primes,), ((gens_a, gens_b, dims),)) = walked, certified
        assert len(primes) == 2 and not (planted and _PRIMES[0] in primes)
        for p in primes:
            assert c * e * a * b % p
            assert all(pow(a, 2 * k, p) != pow(b, 2 * k, p) for k in range(1, d + 1))
        exact = per_quantity(gens_a, gens_b)
        assert dims is None or dims == exact
        keys = ("coideal_algebra_dim", "commutant_of_coideal", "hecke_algebra_dim", "schur_dim")
        assert tuple(report[k] for k in keys) == exact

    @pytest.mark.parametrize("n,d", [(2, 2), (4, 3)])
    def test_the_walk_passes_the_unlucky_primes(self, monkeypatch, n, d):
        """At q = 3 p_1 p_2 + 1 the walk passes p_1 and p_2, where q = 1,
        and the sandwich closes at the next prime below 2^30."""
        point = "Q=3,q=%d" % (3 * _PRIMES[0] * _PRIMES[1] + 1)
        walked = []
        walk = schur.sandwich_primes
        monkeypatch.setattr(
            schur, "sandwich_primes", lambda lucky: walked.append(walk(lucky)) or walked[-1]
        )

        def refuse(gens):
            raise AssertionError("the sandwich did not close")

        monkeypatch.setattr(schur, "matrix_algebra_dimension", refuse)
        monkeypatch.setattr(schur, "commutant_dimension", refuse)
        argv = ["verify", "--suite", "double-centralizer", "--n", str(n), "--d", str(d)]
        assert main(argv + ["--backend", point]) == 0
        assert walked == [(2**30 - 83, 2**30 - 101)]

    @given(st.integers(2, 2**64), st.integers(1, 6), st.integers(0, 3), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_the_walk_meets_its_condition(self, a, d, unlucky, b):
        """The walk yields the first two primes below 2^30, each prime, at
        which the predicate holds; here q = a/b and q^2k = 1 mod the first
        `unlucky` primes of the plain walk, which the bench points get."""
        assert _PRIMES == (2**30 - 35, 2**30 - 41)
        bad = [2**30 - x for x in (35, 41, 83)][:unlucky]
        a = a * math.prod(bad) + b  # q = a / b = 1 mod each bad prime

        def lucky(p):
            return a * b % p and all(pow(a, 2 * k, p) != pow(b, 2 * k, p) for k in range(1, d + 1))

        got = exactlinalg.sandwich_primes(lucky)
        assert len(got) == 2 and got[0] > got[1]
        assert all(is_prime(p) and p < 2**30 and lucky(p) for p in got)
        assert not set(got) & set(bad)
        # no prime between them, or above the first, is skipped while lucky
        assert all(not (is_prime(m) and lucky(m)) for m in range(got[1] + 1, 2**30) if m not in got)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_stop_at_the_upper_bound(self, monkeypatch, n, d):
        """Stopping the closure once it reaches the Sylvester bound changes
        no dimension and offers fewer products than the full closure, on
        the rows the CLI offers."""
        bk = parse_backend("Q=2,q=3")
        hecke = [generator_matrix(n, d, i, bk) for i in range(d)]
        coideal = list(coideal_generators(n, d, bk).values())
        rows = dominant_rows(n, d)
        insert = exactlinalg._insert
        counts = []
        for stop in (True, False):
            calls = []
            monkeypatch.setattr(
                exactlinalg, "_insert", lambda b, v, p=0: calls.append(p) or insert(b, v, p)
            )
            if not stop:
                monkeypatch.setattr(exactlinalg, "islice", lambda words, u: words)
            counts.append((dual_pair_dimensions(coideal, hecke, _PRIMES, rows), len(calls)))
        (stopped, offered), (full, offered_full) = counts
        assert stopped == full == per_quantity(coideal, hecke)
        assert offered < offered_full


# ---------------------------------------------------------------------------
# the Sylvester system on the support that the diagonal generators leave


def kronecker_system(gens_u, gens_w):
    """The full Sylvester system, built apart from `_sylvester`, from
    Kronecker products: vec(phi g_u - g_w phi) = (I (x) g_u^T - g_w (x) I)
    vec(phi) for a w x u phi vec'd row-major, stacked over the pairs with
    the zero rows dropped."""
    entries, nrows = {}, 0
    for gu, gw in zip(gens_u, gens_w):
        iu, iw = (ExactMatrix.identity(g.nrows, g.one) for g in (gu, gw))
        block = iw.kron(gu.transpose()) - gw.kron(iu)
        live = {r: k for k, r in enumerate(sorted({r for r, _ in block.entries}), nrows)}
        entries.update({(live[r], c): v for (r, c), v in block.entries.items()})
        nrows += len(live)
    return ExactMatrix(nrows, gens_w[0].nrows * gens_u[0].nrows, entries, gens_u[0].one)


def field_nullity(m):
    """The nullity over the field of the entries (Q for ints), by
    `_eliminate` on the columns."""
    return m.ncols - len(_eliminate(m.columns(), m.nrows))


def coideal_family(n, d, bk):
    """The coideal generators as the double centralizer takes them: the
    identity at n = 1, where there are none."""
    return list(coideal_generators(n, d, bk).values()) or [ExactMatrix.identity(n**d, bk.one)]


# every (n, d) the double-centralizer caps accept symbolically
SYMBOLIC_ACCEPTED = [
    (n, d)
    for n in range(1, 33)
    for d in range(1, schur.ALGEBRA_MAX_RANK + 1)
    if n**d <= schur.SYMBOLIC_BUDGET
    and n ** (2 * d) <= schur.SYLVESTER_MAX_WIDTH[True]
    and (n == 1 or d <= schur.DOUBLE_CENTRALIZER_MAX_RANK[True])
]


class TestSylvesterSupport:
    def test_a_diagonal_generator_keeps_its_blocks(self):
        """diag(1, 2) commutes with the diagonal matrices only: its system
        keeps phi[0, 0] and phi[1, 1] and no equation, so its nullity is 2,
        where all four unknowns without their equations would read 4."""
        d = dense([[1, 0], [0, 2]])
        s = _sylvester([d], [d])
        assert (s.nrows, s.ncols) == (0, 2)
        assert commutant_dimension([d]) == field_nullity(kronecker_system([d], [d])) == 2
        ints = [_integer_matrix(d)]
        assert nullity_mod(_sylvester(ints, ints), _PRIMES[0]) == 2
        assert commutant_dimension([ExactMatrix(2, 2, {(0, 0): RF_Q, (1, 1): RF_q}, RF_ONE)]) == 2

    @pytest.mark.parametrize(
        "gens,expected",
        [
            # X commutes with diag(1, 2) and E_01: a scalar
            ([[[1, 0], [0, 2]], [[0, 1], [0, 0]]], 1),
            # block diagonal for diag(1, 1, 2), then Comm(E_01) in the 2 x 2 block
            ([[[1, 0, 0], [0, 1, 0], [0, 0, 2]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]]], 3),
            # E_02 joins the blocks: only its terms on the support stay
            ([[[1, 0, 0], [0, 1, 0], [0, 0, 2]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]]], 3),
            # two diagonal generators: the joint eigenspaces {0}, {1, 2}, {3}
            ([[[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
              [[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]]], 6),
        ],
    )
    def test_mixed_generators_against_the_full_system(self, gens, expected):
        gens = [dense(g) for g in gens]
        full = kronecker_system(gens, gens)
        assert commutant_dimension(gens) == field_nullity(full) == expected
        ints = [_integer_matrix(g) for g in gens]
        assert nullity_mod(_sylvester(ints, ints), _PRIMES[0]) == expected

    def test_row_set_takes_the_support_on_its_rows(self):
        # diag(1, 2, 2) on rows {1, 2}: phi[1, 1], phi[1, 2], phi[2, 1],
        # phi[2, 2]; and between sizes, phi[i, c] with equal eigenvalues
        d = dense([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert _sylvester([d], [d], [1, 2]).ncols == 4
        assert _sylvester([dense([[1, 0], [0, 2]])], [d]).ncols == 3

    @pytest.mark.parametrize("point", POINTS)
    def test_coideal_against_the_full_system_at_a_point(self, point):
        """At every (n, d) the caps accept, the coideal's system on the
        support has the nullity of the full system, mod p (on the integer
        generators, as the sandwich takes them) and over Q."""
        bk = parse_backend(point)
        p = _PRIMES[0]
        for n, d in ACCEPTED:
            gens = coideal_family(n, d, bk)
            ints = [_integer_matrix(g) for g in gens]
            full = kronecker_system(ints, ints)
            assert nullity_mod(_sylvester(ints, ints), p) == nullity_mod(full, p), (n, d)
            assert field_nullity(_sylvester(gens, gens)) == field_nullity(full), (n, d)

    def test_coideal_against_the_full_system_symbolically(self):
        for n, d in SYMBOLIC_ACCEPTED:
            gens = coideal_family(n, d, SYMBOLIC)
            full = kronecker_system(gens, gens)
            assert _sylvester(gens, gens).nullity() == full.nullity(), (n, d)


@st.composite
def ring_vectors(draw, ring):
    """Sparse vectors mod a prime of `_PRIMES` (p = 0 on the other rings),
    over Z, over Q (Fraction entries) or over K = Q(Q, q), each drawn afresh
    or planted as a combination of two earlier ones, zeros dropped.  Over K
    they are fewer and shorter: a forward insert that pivots by index swells
    there."""
    p = draw(st.sampled_from(_PRIMES)) if ring == "mod p" else 0
    if ring == "mod p":
        entries = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    elif ring == "Z":
        entries = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-(2**61), 2**61))
    elif ring == "Q":
        entries = fractions
    else:
        entries = st.sampled_from(
            [0, 0, RF_ONE, -RF_ONE, RF_Q, RF_q, RF_Q - RF_q, RF_ONE / (RF_Q + RF_q)]
        )
    small = ring == "K"
    ncols = draw(st.integers(1, 4 if small else 7))
    vecs = []
    for _ in range(draw(st.integers(1, 5 if small else 9))):
        if vecs and draw(st.booleans()):
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            x, y = draw(entries), draw(entries)
            vec = {k: x * a.get(k, 0) + y * b.get(k, 0) for k in range(ncols)}
        else:
            vec = {k: draw(entries) for k in range(ncols)}
        vecs.append({k: r for k, v in vec.items() if (r := v % p if p else v)})
    return p, ncols, vecs


@st.composite
def generator_families(draw):
    """n <= 5, the rows of one or two sparse integer n x n matrices (some
    entries 0 mod p), a prime p of `_PRIMES`, and offered rows."""
    n = draw(st.integers(1, 5))
    entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.just(_PRIMES[0]))
    grows = [
        {i: {j: v for j in range(n) if (v := draw(entries))} for i in range(n)}
        for _ in range(draw(st.integers(1, 2)))
    ]
    offered = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return n, [[grow[i] for i in range(n)] for grow in grows], draw(st.sampled_from(_PRIMES)), offered


class TestCyclicRows:
    @given(generator_families())
    @settings(max_examples=150, deadline=None)
    def test_rows_generate_the_row_space(self, case):
        """The unit rows found generate F_p^n under the matrices mod p, by
        an independent rank: the span of e_s, e_s G, e_s G G', ... stops
        growing at n.  They are distinct, and the offered ones kept come
        first."""
        n, grows, p, offered = case
        rows = exactlinalg._cyclic_rows(grows, n, offered, p)
        assert len(rows) == len(set(rows)) <= n
        kept = [r for r in dict.fromkeys(offered) if r in rows]
        assert rows[: len(kept)] == kept
        vecs = [{s: 1} for s in rows]
        for _ in range(n + 1):  # the span grows in each round but the last
            more = vecs + [
                {j: x for j in range(n) if (x := sum(v.get(k, 0) * g[k].get(j, 0) for k in v) % p)}
                for v in vecs
                for g in grows
            ]
            rank = len(_eliminate([dict(v) for v in more], n, p))
            if rank == len(_eliminate([dict(v) for v in vecs], n, p)):
                break
            vecs = more
        else:
            raise AssertionError("the span grew in more than n rounds")
        assert rank == n


class TestInsertMod:
    """`_insert` on each ring: its grew flags are the rank increments of an
    independent elimination (`_eliminate`, mod p, over Q for Z and over K),
    and its basis is in echelon form, primitive over Z and with unit leads
    mod p and over K."""

    @staticmethod
    def check(case, one=ONE):
        p, ncols, vecs = case
        before = [dict(v) for v in vecs]
        basis = {}
        grew = [exactlinalg._insert(basis, v, p) for v in vecs]
        assert vecs == before  # each vector is left as it is
        ranks = [len(_eliminate([dict(v) for v in vecs[:k]], ncols, p))
                 for k in range(len(vecs) + 1)]
        assert grew == [b > a for a, b in zip(ranks, ranks[1:])]
        assert all(min(b) == q for q, b in basis.items())
        if p or one is RF_ONE:
            assert all(b[q] == 1 for q, b in basis.items())
        else:
            assert all(type(x) is int for b in basis.values() for x in b.values())
            assert all(math.gcd(*b.values()) == 1 for b in basis.values())

    @given(ring_vectors("mod p"))
    @settings(max_examples=150, deadline=None)
    def test_grew_flags_are_rank_increments(self, case):
        self.check(case)

    @given(ring_vectors("Z"))
    @settings(max_examples=150, deadline=None)
    def test_grew_flags_over_the_integers(self, case):
        self.check(case)

    @given(ring_vectors("K"))
    @settings(max_examples=80, deadline=None)
    def test_grew_flags_over_the_function_field(self, case):
        self.check(case, RF_ONE)


class TestEliminate:
    """`_eliminate` on each ring: each pivot row has a unit pivot entry and
    holds no earlier pivot column, mod p every entry is a residue, and the
    pivots count the rank that `_insert` finds."""

    @staticmethod
    def check(case):
        p, ncols, vecs = case
        basis = {}
        rank = sum(exactlinalg._insert(basis, v, p) for v in vecs)
        pivots = _eliminate([dict(v) for v in vecs], ncols, p)
        assert len(pivots) == rank
        for k, (pc, row) in enumerate(pivots):
            assert row[pc] == 1
            assert all(c not in row for c, _ in pivots[:k])
            assert all(0 < x < p for x in row.values()) if p else all(row.values())
        return pivots

    @given(ring_vectors("mod p"))
    @settings(max_examples=150, deadline=None)
    def test_pivot_rows_mod_p(self, case):
        self.check(case)

    @given(ring_vectors("Q"))
    @settings(max_examples=100, deadline=None)
    def test_pivot_rows_over_the_rationals(self, case):
        self.check(case)

    @given(ring_vectors("K"))
    @settings(max_examples=60, deadline=None)
    def test_pivot_rows_over_the_function_field(self, case):
        self.check(case)

    @given(ring_vectors("Z"))
    @settings(max_examples=100, deadline=None)
    def test_int_rows_eliminate_over_the_rationals(self, case):
        """At p = 0 an int stands for a rational: every entry of the pivot
        rows is a Fraction, never a float, as 1 / 3 of two ints would be."""
        pivots = self.check(case)
        assert all(type(x) is Fraction for _, row in pivots for x in row.values())
