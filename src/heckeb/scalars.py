"""
Exact scalar arithmetic for the two-parameter ground field.

The tower is: integers -> bivariate Laurent polynomials in Q, q with integer
coefficients -> their fraction field (RationalFunction), plus evaluation
homomorphisms at exact rational points (Specialization).

Laurent polynomials are stored sparsely as {(a, b): c} with a the exponent of
Q and b the exponent of q; negative exponents are allowed.  Rational functions
are kept in a canonical form so that structural equality decides mathematical
equality:

- numerator and denominator are true polynomials (no negative exponents) with
  no common monomial factor and no common polynomial factor,
- the joint integer content of the two is 1,
- the lexicographically leading coefficient of the denominator is positive.

When the denominator is one term c Q^a q^b, the only factor it can share
with the numerator is an integer, so the canonical pair comes from one pass
over the numerator (its minimum exponents and its content), the integer
gcd(content, |c|) signed like c, and the monomial split; no polynomial gcd
runs.  Every other denominator takes the general route: polynomial gcds over
ZZ[Q][q] by a content / primitive-part PRS, which keeps intermediate
coefficients small enough for everything this package does.  The gcd carries
the gcd of the two integer contents, so by Gauss's lemma the quotients have
joint content 1.

Work whose entries stay in ZZ[Q^{+-1}, q^{+-1}] (the R- and K-matrix blocks,
images of the Hecke algebra over that ring) runs on LaurentPoly2 directly:
RationalFunction.laurent() gives the equal Laurent polynomial when the
denominator is a unit monomial Q^a q^b and raises ArithmeticError otherwise.
A LaurentPoly2 is canonical too (no zero coefficient is stored), so its
structural equality is also mathematical.  Across the two types, equality
goes through RationalFunction: LaurentPoly2.__eq__ leaves any type but int to
it, and it coerces, so L == R and R == L agree.  An int equals the constant
of either type.  Hashes agree with that equality: a constant LaurentPoly2
hashes as its int, and a RationalFunction with a unit-monomial denominator
hashes as its Laurent polynomial, so {RF_ONE, LP_ONE, 1} has one element.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd


class DivisionByZero(ZeroDivisionError):
    pass


class PoleAtSpecialization(ArithmeticError):
    pass


class InvalidSpecialization(ValueError):
    pass


# ---------------------------------------------------------------------------
# univariate helpers over ZZ (dense lists, index = exponent)


def _qtrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _qadd(f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return _qtrim(out)


def _qneg(f):
    return [-c for c in f]


def _qmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return _qtrim(out)


def _qscale(f, c):
    if c == 0:
        return []
    return [a * c for a in f]


def _qcontent(f):
    c = 0
    for a in f:
        c = _igcd(c, abs(a))
    return c


def _qdivexact_int(f, c):
    return [a // c for a in f]


def _qdivexact(f, g):
    """Exact division of univariate integer polynomials (g | f required)."""
    if not f:
        return []
    f = list(f)
    out = [0] * (len(f) - len(g) + 1)
    while f:
        d = len(f) - len(g)
        if d < 0 or f[-1] % g[-1] != 0:
            raise ArithmeticError("inexact univariate division")
        c = f[-1] // g[-1]
        out[d] = c
        for i, b in enumerate(g):
            f[d + i] -= c * b
        _qtrim(f)
    return _qtrim(out)


def _qgcd(f, g):
    """Gcd in ZZ[q] via primitive PRS, sign-normalized to positive lead."""
    f, g = list(f), list(g)
    if not f:
        r = g
    elif not g:
        r = f
    else:
        cf, cg = _qcontent(f), _qcontent(g)
        cont = _igcd(cf, cg)
        f = _qdivexact_int(f, cf)
        g = _qdivexact_int(g, cg)
        if len(f) < len(g):
            f, g = g, f
        while g:
            # pseudo-remainder of f by g
            r = list(f)
            lg = g[-1]
            while r and len(r) >= len(g):
                d = len(r) - len(g)
                lr = r[-1]
                r = _qscale(r, lg)
                for i, b in enumerate(g):
                    r[d + i] -= lr * b
                _qtrim(r)
            cr = _qcontent(r)
            f, g = g, (_qdivexact_int(r, cr) if cr else [])
        r = _qscale(f, cont)
    if r and r[-1] < 0:
        r = _qneg(r)
    return r


# ---------------------------------------------------------------------------
# bivariate helpers: polynomial in Q with ZZ[q] coefficients
# (dense list over Q-degree, entries are q-lists)


def _btrim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _to_rec(terms):
    da = max(a for a, _ in terms)
    db = max(b for _, b in terms)
    p = [[0] * (db + 1) for _ in range(da + 1)]
    for (a, b), c in terms.items():
        p[a][b] = c
    return [_qtrim(row) for row in p]


def _from_rec(p):
    out = {}
    for a, row in enumerate(p):
        for b, c in enumerate(row):
            if c:
                out[(a, b)] = c
    return out


def _bcontent(p):
    cont = []
    for row in p:
        if row:
            cont = _qgcd(cont, row)
    return cont


def _bprem(f, g):
    """Pseudo-remainder of f by g in (ZZ[q])[Q]."""
    r = [list(c) for c in f]
    lg = g[-1]
    while r and len(r) >= len(g):
        d = len(r) - len(g)
        lr = r[-1]
        r = [_qmul(c, lg) for c in r]
        for i, c in enumerate(g):
            r[d + i] = _qadd(r[d + i], _qneg(_qmul(lr, c)))
        _btrim(r)
    return r


def _gcd_terms(x, y):
    """Gcd of two nonzero polynomial term-dicts with nonnegative exponents."""
    f, g = _to_rec(x), _to_rec(y)
    cf, cg = _bcontent(f), _bcontent(g)
    cont = _qgcd(cf, cg)
    f = [_qdivexact(c, cf) for c in f]
    g = [_qdivexact(c, cg) for c in g]
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _bprem(f, g)
        cr = _bcontent(r)
        f, g = g, ([_qdivexact(c, cr) for c in r] if cr else [])
    cf = _bcontent(f)
    f = [_qdivexact(c, cf) for c in f]
    p = [_qmul(c, cont) for c in f]
    return _from_rec(p)


def _divexact_terms(num, den):
    """Exact division of term-dicts (den | num required), lex order on (a, b)."""
    if not num:
        return {}
    rem = dict(num)
    dkey = max(den)
    dc = den[dkey]
    quot = {}
    while rem:
        rkey = max(rem)
        ea, eb = rkey[0] - dkey[0], rkey[1] - dkey[1]
        if ea < 0 or eb < 0 or rem[rkey] % dc != 0:
            raise ArithmeticError("inexact bivariate division")
        c = rem[rkey] // dc
        quot[(ea, eb)] = c
        for (a, b), dv in den.items():
            k = (a + ea, b + eb)
            v = rem.get(k, 0) - c * dv
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return quot


# ---------------------------------------------------------------------------


class LaurentPoly2:
    """A Laurent polynomial in Q and q with integer coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, c in terms.items():
                if c:
                    t[k] = c
        self.terms = t
        self._hash = None

    # -- constructors

    @staticmethod
    def from_int(c):
        return LaurentPoly2({(0, 0): c})

    @staticmethod
    def monomial(c, a, b):
        return LaurentPoly2({(a, b): c})

    # -- predicates / views

    def __bool__(self):
        return bool(self.terms)

    def is_one(self):
        return self.terms == {(0, 0): 1}

    def min_exponents(self):
        if not self.terms:
            return (0, 0)
        return (min(a for a, _ in self.terms), min(b for _, b in self.terms))

    def leading_key(self):
        return max(self.terms)

    def shift(self, da, db):
        if not (da or db):
            return self
        return LaurentPoly2({(a + da, b + db): c for (a, b), c in self.terms.items()})

    # -- arithmetic

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return _lp(out)

    def __neg__(self):
        return _lp({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                v = out.get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        return _lp(out)

    def scale(self, c):
        if c == 0:
            return LaurentPoly2()
        return LaurentPoly2({k: c * v for k, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = LaurentPoly2.from_int(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        # an int is the constant it names; any other type decides through its
        # own __eq__ (RationalFunction coerces), so L == R and R == L agree
        if isinstance(other, LaurentPoly2):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            t = self.terms
            if t.keys() <= {(0, 0)}:  # a constant hashes as its int
                self._hash = hash(t.get((0, 0), 0))
            else:
                self._hash = hash(frozenset(t.items()))
        return self._hash

    def evaluate(self, vq, vqq):
        """Evaluate at Q = vq, q = vqq (exact rationals)."""
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * vq**a * vqq**b
        return total

    def __str__(self):
        if not self.terms:
            return "0*Q^0*q^0"
        parts = []
        for a, b in sorted(self.terms, reverse=True):
            parts.append("%d*Q^%d*q^%d" % (self.terms[(a, b)], a, b))
        return " + ".join(parts)

    def __repr__(self):
        return "LaurentPoly2(%r)" % (self.terms,)


def _lp(terms):
    """A LaurentPoly2 on a dict that already holds no zero coefficient."""
    r = LaurentPoly2.__new__(LaurentPoly2)
    r.terms = terms
    r._hash = None
    return r


LP_ZERO = LaurentPoly2()
LP_ONE = LaurentPoly2.from_int(1)
Q_POLY = LaurentPoly2.monomial(1, 1, 0)
q_POLY = LaurentPoly2.monomial(1, 0, 1)


def poly_gcd(x: LaurentPoly2, y: LaurentPoly2) -> LaurentPoly2:
    """Gcd of true polynomials (nonnegative exponents only)."""
    if not x:
        return y
    if not y:
        return x
    if x.min_exponents() < (0, 0) or y.min_exponents() < (0, 0):
        raise ValueError("poly_gcd needs nonnegative exponents")
    return LaurentPoly2(_gcd_terms(x.terms, y.terms))


def poly_divexact(x: LaurentPoly2, y: LaurentPoly2) -> LaurentPoly2:
    if not y:
        raise DivisionByZero("division by the zero polynomial")
    return LaurentPoly2(_divexact_terms(x.terms, y.terms))


class RationalFunction:
    """An element of the fraction field of ZZ[Q^{+-1}, q^{+-1}], canonical."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _canonical=False):
        if isinstance(num, int):
            num = LaurentPoly2.from_int(num)
        if den is None:
            den = LP_ONE
        elif isinstance(den, int):
            den = LaurentPoly2.from_int(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if _canonical:
            self.num, self.den = num, den
        else:
            self.num, self.den = _canonicalize(num, den)
        self._hash = None

    # -- predicates

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def term_count(self):
        return len(self.num.terms) + len(self.den.terms)

    def laurent(self):
        """The equal LaurentPoly2; raises ArithmeticError unless the
        denominator is a unit monomial Q^a q^b."""
        unit = _unit_monomial(self.den)
        if unit is None:
            raise ArithmeticError("%s is not a Laurent polynomial" % self)
        return self.num.shift(-unit[0], -unit[1])

    # -- arithmetic

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        r = RationalFunction.__new__(RationalFunction)
        r.num, r.den, r._hash = -self.num, self.den, None
        return r

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = RF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # equal to a LaurentPoly2 exactly when the denominator is a unit
        # monomial: then hash as that Laurent polynomial
        if self._hash is None:
            if _unit_monomial(self.den) is None:
                self._hash = hash((self.num, self.den))
            else:
                self._hash = hash(self.laurent())
        return self._hash

    def __str__(self):
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


def _unit_monomial(p: LaurentPoly2):
    """(a, b) when p is Q^a q^b, else None."""
    if len(p.terms) == 1:
        ((k, c),) = p.terms.items()
        if c == 1:
            return k
    return None


def _coerce(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, int):
        return RationalFunction(x)
    if isinstance(x, LaurentPoly2):
        return RationalFunction(x)
    return NotImplemented


def _canonicalize(num: LaurentPoly2, den: LaurentPoly2):
    if not num:
        return LP_ZERO, LP_ONE
    if len(den.terms) == 1:
        return _canonicalize_monomial_den(num, den)
    na, nb = num.min_exponents()
    da, db = den.min_exponents()
    num = num.shift(-na, -nb)
    den = den.shift(-da, -db)
    ua, ub = na - da, nb - db
    g = poly_gcd(num, den)
    if not g.is_one():
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    if den.terms[den.leading_key()] < 0:
        num, den = -num, -den
    # distribute the monomial unit: nonnegative part to the numerator,
    # the rest to the denominator, so both stay true polynomials
    num = num.shift(max(ua, 0), max(ub, 0))
    den = den.shift(max(-ua, 0), max(-ub, 0))
    return num, den


def _canonicalize_monomial_den(num: LaurentPoly2, den: LaurentPoly2):
    """The canonical pair of num / (c Q^a q^b) for a nonzero num, with no
    polynomial gcd (see the module docstring)."""
    ((a, b), c), = den.terms.items()
    terms = num.terms
    na = nb = None
    g = abs(c)
    for (x, y), v in terms.items():
        if na is None or x < na:
            na = x
        if nb is None or y < nb:
            nb = y
        if g != 1:
            g = _igcd(g, v)
    if c < 0:
        g = -g
    # num / den = (Q^na q^nb / Q^a q^b) * (num shifted to exponents >= 0) / c
    sa, sb = max(-a, -na), max(-b, -nb)
    out = _lp({(x + sa, y + sb): v // g for (x, y), v in terms.items()})
    return out, _lp({(max(a - na, 0), max(b - nb, 0)): c // g})


RF_ZERO = RationalFunction(0)
RF_ONE = RationalFunction(1)
RF_Q = RationalFunction(Q_POLY)
RF_q = RationalFunction(q_POLY)


def _coprime_base(values):
    """Pairwise coprime integers > 1 such that every value > 1 is a product of
    their powers."""
    base, work = [], [v for v in values if v > 1]
    while work:
        x = work.pop()
        for k, b in enumerate(base):
            g = _igcd(x, b)
            if g > 1:
                del base[k]
                work.extend(v for v in (g, b // g, x // g) if v > 1)
                break
        else:
            base.append(x)
    return base


def _exponents(x, base):
    """The exponents of the positive rational x over a coprime base."""
    num, den = x.numerator, x.denominator
    out = []
    for p in base:
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        out.append(e)
    return out


def _first_unit_relation(vQ, vq, ibound, jbound):
    """The lexicographically first (i, j) != (0, 0) with |i| <= ibound,
    |j| <= jbound and Q^i q^j = +-1, or None; needs |Q|, |q| != 1.

    Q^i q^j = +-1 means |Q|^i |q|^j = 1, a linear relation between the
    exponent vectors of |Q| and |q| over a coprime base.  Both vectors are
    nonzero, so the relations are the multiples of one primitive (i0, j0)
    with i0 > 0, or there are none.
    """
    a, b = abs(vQ), abs(vq)
    base = _coprime_base([a.numerator, a.denominator, b.numerator, b.denominator])
    ea, eb = _exponents(a, base), _exponents(b, base)
    k = next(k for k, v in enumerate(ea) if v)
    if any(x * eb[k] != y * ea[k] for x, y in zip(ea, eb)):
        return None
    g = _igcd(ea[k], eb[k])
    i0, j0 = eb[k] // g, -ea[k] // g
    if i0 < 0:
        i0, j0 = -i0, -j0
    m = min(ibound // i0, jbound // abs(j0))
    return (-m * i0, -m * j0) if m else None


class Specialization:
    """An exact rational evaluation point (Q, q) valid up to degree maxDegree.

    Validity packs the genericity needed at desk scale: every f_i with
    i <= maxDegree is nonzero, Q^2 != 1 != q^2, and Q^i q^j avoids +-1 inside
    the exponent box used by the higher signed powers.  Each factor
    Q^-2 + q^{2k} of f_i is positive at a rational point, so f_i never
    vanishes there.  The box is searched through the multiplicative relations
    of |Q| and |q|, not cell by cell, so the check costs the same at any
    degree.
    """

    __slots__ = ("valueQ", "valueq", "maxDegree")

    def __init__(self, valueQ, valueq, maxDegree=6):
        vQ = Fraction(valueQ)
        vq = Fraction(valueq)
        if vQ == 0 or vq == 0:
            raise InvalidSpecialization("Q and q must be nonzero")
        if vq * vq == 1 or vQ * vQ == 1:
            raise InvalidSpecialization("Q^2 = 1 or q^2 = 1")
        ibound = 2 * maxDegree
        jbound = 4 * maxDegree * max(maxDegree - 1, 1)
        hit = _first_unit_relation(vQ, vq, ibound, jbound)
        if hit:
            raise InvalidSpecialization(
                "Q^%d q^%d = +-1 breaks eigenvalue separation" % hit
            )
        self.valueQ = vQ
        self.valueq = vq
        self.maxDegree = maxDegree

    def __repr__(self):
        return "Specialization(Q=%s, q=%s, maxDegree=%d)" % (
            self.valueQ,
            self.valueq,
            self.maxDegree,
        )


DEFAULT_SPECIALIZATION_POINT = (Fraction(2), Fraction(3))


def default_specialization(maxDegree=6):
    return Specialization(*DEFAULT_SPECIALIZATION_POINT, maxDegree=maxDegree)


def specialize(x: RationalFunction, s: Specialization) -> Fraction:
    """Evaluate x at the point s; raises PoleAtSpecialization on a pole."""
    den = x.den.evaluate(s.valueQ, s.valueq)
    if den == 0:
        raise PoleAtSpecialization("denominator vanishes at %r" % s)
    return x.num.evaluate(s.valueQ, s.valueq) / den
