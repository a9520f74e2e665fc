"""Ring and field arithmetic over the two-parameter Laurent coefficients."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeb.scalars import (
    DivisionByZero,
    InvalidSpecialization,
    LP_ONE,
    LaurentPoly2,
    PoleAtSpecialization,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    RF_q,
    RationalFunction,
    Specialization,
    default_specialization,
    poly_divexact,
    poly_gcd,
    specialize,
)

coeffs = st.integers(min_value=-4, max_value=4)
exps = st.integers(min_value=-2, max_value=2)


@st.composite
def laurent_polys(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n):
        key = (draw(exps), draw(exps))
        terms[key] = terms.get(key, 0) + draw(coeffs)
    out = LaurentPoly2()
    for (a, b), c in terms.items():
        out = out + LaurentPoly2.monomial(c, a, b)
    return out


@st.composite
def monomials(draw):
    c = draw(coeffs.filter(bool)) * draw(st.sampled_from([1, 2, 3, 6]))
    return LaurentPoly2.monomial(c, draw(exps), draw(exps))


@st.composite
def polys_two_terms(draw):
    """A true polynomial with at least two terms."""
    p = LaurentPoly2()
    while len(p.terms) < 2:
        p = p + LaurentPoly2.monomial(
            draw(coeffs.filter(bool)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
        )
    return p


@st.composite
def rational_functions(draw):
    num = draw(laurent_polys())
    den = draw(laurent_polys().filter(bool))
    return RationalFunction(num, den)


class TestLaurentPoly2:
    @given(laurent_polys(), laurent_polys(), laurent_polys())
    @settings(max_examples=30, deadline=None)
    def test_ring_axioms(self, x, y, z):
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + LaurentPoly2() == x
        assert x * LaurentPoly2.from_int(1) == x
        assert x - x == LaurentPoly2()

    @given(laurent_polys())
    @settings(max_examples=40, deadline=None)
    def test_string_is_stable(self, x):
        assert str(x) == str(x + LaurentPoly2())

    def test_canonical_strings(self):
        assert str(LaurentPoly2()) == "0*Q^0*q^0"
        p = LaurentPoly2.monomial(3, 1, 0) + LaurentPoly2.monomial(-1, 0, 2)
        assert str(p) == "3*Q^1*q^0 + -1*Q^0*q^2"

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=40, deadline=None)
    def test_evaluate_is_a_homomorphism(self, x, y):
        vQ, vq = Fraction(2), Fraction(3)
        assert (x * y).evaluate(vQ, vq) == x.evaluate(vQ, vq) * y.evaluate(vQ, vq)
        assert (x + y).evaluate(vQ, vq) == x.evaluate(vQ, vq) + y.evaluate(vQ, vq)

    @given(laurent_polys().filter(bool), laurent_polys().filter(bool))
    @settings(max_examples=15, deadline=None)
    def test_gcd_divides(self, x, y):
        x = x.shift(-min(a for a, _ in x.terms), -min(b for _, b in x.terms))
        y = y.shift(-min(a for a, _ in y.terms), -min(b for _, b in y.terms))
        g = poly_gcd(x, y)
        assert poly_divexact(x, g) * g == x
        assert poly_divexact(y, g) * g == y


class TestRationalFunction:
    @given(rational_functions(), rational_functions(), rational_functions())
    @settings(max_examples=15, deadline=None)
    def test_field_axioms(self, x, y, z):
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        assert x - x == RF_ZERO
        if x:
            assert x * x.inverse() == RF_ONE

    @given(rational_functions())
    @settings(max_examples=20, deadline=None)
    def test_canonical_form_idempotent(self, x):
        rebuilt = RationalFunction(x.num, x.den)
        assert rebuilt.num == x.num and rebuilt.den == x.den

    def test_canonical_examples(self):
        x = RF_Q.inverse() - RF_Q
        assert str(x) == "(-1*Q^2*q^0 + 1*Q^0*q^0)/(1*Q^1*q^0)"
        y = (RF_Q * RF_Q - RF_ONE) / (RF_Q * RF_Q - RF_Q)
        assert str(y) == "(1*Q^1*q^0 + 1*Q^0*q^0)/(1*Q^1*q^0)"

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            RationalFunction(LaurentPoly2.from_int(1), LaurentPoly2())
        with pytest.raises(DivisionByZero):
            RF_ZERO.inverse()

    @given(rational_functions(), rational_functions())
    @settings(max_examples=15, deadline=None)
    def test_specialize_is_a_homomorphism(self, x, y):
        s = default_specialization()
        try:
            vx, vy = specialize(x, s), specialize(y, s)
        except PoleAtSpecialization:
            return
        assert specialize(x * y, s) == vx * vy
        assert specialize(x + y, s) == vx + vy

    @given(laurent_polys(), monomials(), polys_two_terms())
    @example(
        LaurentPoly2.monomial(2, 0, 0),
        LaurentPoly2.monomial(-6, 1, 0),
        LaurentPoly2.monomial(2, 0, 0) + LaurentPoly2.monomial(4, 0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_monomial_denominator_route(self, num, den, p):
        # the right side has a denominator of two or more terms, so it takes
        # the gcd route; canonical forms are unique, so the two must agree
        fast = RationalFunction(num, den)
        slow = RationalFunction(num * p, den * p)
        assert fast.num == slow.num and fast.den == slow.den
        # both pairs have joint integer content 1 and a positive leading
        # denominator coefficient
        for x in (fast, slow):
            assert gcd(*x.num.terms.values(), *x.den.terms.values()) == 1
            assert x.den.terms[x.den.leading_key()] > 0

    @given(laurent_polys(), monomials(), polys_two_terms())
    @settings(max_examples=30, deadline=None)
    def test_canonical_form_against_sympy(self, num, den, p):
        sympy = pytest.importorskip("sympy")
        Q, q = sympy.symbols("Q q")

        def expr(x):
            return sum(c * Q**a * q**b for (a, b), c in x.terms.items())

        for n, d in ((num, den), (num * p, den * p)):
            x = RationalFunction(n, d)
            assert sympy.cancel(expr(x.num) / expr(x.den) - expr(n) / expr(d)) == 0
            assert all(a >= 0 and b >= 0 for a, b in [*x.num.terms, *x.den.terms])
            assert sympy.gcd(expr(x.num), expr(x.den)) == 1
            assert x.den.terms[x.den.leading_key()] > 0

    def test_power(self):
        assert RF_q**3 == RF_q * RF_q * RF_q
        assert RF_q**-2 == (RF_q * RF_q).inverse()


def has_negative_exponent(p):
    return any(a < 0 or b < 0 for a, b in p.terms)


class TestRingBoundary:
    """RationalFunction.laurent(), and equality / hashing of either type
    against int."""

    @given(laurent_polys().filter(has_negative_exponent))
    @settings(max_examples=60, deadline=None)
    def test_laurent_round_trip(self, p):
        assert RationalFunction(p).laurent() == p

    @given(laurent_polys(), st.integers(-10**30, 10**30))
    @settings(max_examples=80, deadline=None)
    def test_constants_equal_and_hash_as_their_int(self, p, c):
        assert len({RF_ONE, 1}) == len({LP_ONE, 1}) == 1
        lp, rf = LaurentPoly2.from_int(c), RationalFunction(c)
        assert lp == c == rf and c == lp and c == rf
        assert hash(lp) == hash(c) == hash(rf)
        assert len({lp, c}) == len({rf, c}) == 1
        # any value: equal ones hash alike, each type against int
        for values in ([p, c, lp], [RationalFunction(p), c, rf]):
            for x in values:
                for y in values:
                    if x == y:
                        assert y == x and hash(x) == hash(y)
        assert (p == c) == (RationalFunction(p) == c) == (c == p)

    def test_laurent_rejects_a_proper_denominator(self):
        Q_plus_one = LaurentPoly2.monomial(1, 1, 0) + LaurentPoly2.from_int(1)
        with pytest.raises(ArithmeticError):
            RationalFunction(LaurentPoly2.from_int(1), Q_plus_one).laurent()
        with pytest.raises(ArithmeticError):
            RationalFunction(1, 2).laurent()

    def test_laurent_of_a_unit_monomial_denominator(self):
        x = RF_Q.inverse() - RF_Q
        assert x.laurent() == LaurentPoly2.monomial(1, -1, 0) - LaurentPoly2.monomial(1, 1, 0)


class TestSpecialization:
    def test_default_point(self):
        s = default_specialization()
        assert (s.valueQ, s.valueq) == (2, 3)

    def test_invalid_points_rejected(self):
        with pytest.raises(InvalidSpecialization):
            Specialization(0, 3)
        with pytest.raises(InvalidSpecialization):
            Specialization(1, 3)
        with pytest.raises(InvalidSpecialization):
            Specialization(2, -1)
        # Q = q^2 makes K_2 eigenvalues collide: -Q q^-2 = -1 is excluded
        with pytest.raises(InvalidSpecialization):
            Specialization(9, 3)

    bases = st.sampled_from([2, 3, 6, Fraction(2, 3), Fraction(3, 10)])

    @given(
        bases,
        bases,
        st.integers(-6, 6).filter(bool),
        st.integers(-6, 6).filter(bool),
        st.sampled_from([1, -1]),
        st.integers(1, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_unit_relations_match_the_box_scan(self, bQ, bq, s, t, sign, degree):
        vQ, vq = Fraction(bQ) ** s, sign * Fraction(bq) ** t
        if vQ * vQ == 1 or vq * vq == 1:
            return
        ibound, jbound = 2 * degree, 4 * degree * max(degree - 1, 1)
        first = None
        for i in range(-ibound, ibound + 1):
            for j in range(-jbound, jbound + 1):
                if (i, j) != (0, 0) and abs(vQ**i * vq**j) == 1:
                    first = first or (i, j)
        if first is None:
            Specialization(vQ, vq, degree)
        else:
            with pytest.raises(InvalidSpecialization, match=r"Q\^%d q\^%d " % first):
                Specialization(vQ, vq, degree)

    def test_pole_detection(self):
        s = default_specialization()
        x = RationalFunction(LaurentPoly2.from_int(1), Q_minus_two())
        with pytest.raises(PoleAtSpecialization):
            specialize(x, s)


def Q_minus_two():
    return LaurentPoly2.monomial(1, 1, 0) + LaurentPoly2.monomial(-2, 0, 0)
