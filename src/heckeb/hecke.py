"""
The two-parameter Iwahori-Hecke algebra of type B in its natural basis.

Generators T_0, T_1, ..., T_{d-1} satisfy
    (T_0 + Q)(T_0 - 1/Q) = 0,
    (T_i + q)(T_i - 1/q) = 0            for i >= 1,
the braid relations of type B, and commutation for distant indices.  Elements
are stored as {group element: rational function coefficient} over the natural
basis {T_w}; products are computed by peeling reduced words and applying the
one-generator multiplication rule
    T_i T_w = T_{s_i w}                     if l(s_i w) > l(w),
    T_i T_w = T_{s_i w} + (a + b) T_w       otherwise,
with a, b = quadratic_roots(i), the two eigenvalues of T_i.
"""

from __future__ import annotations

from functools import cache
from math import prod

from .scalars import RF_ONE, RF_Q, RF_q
from .weylcomb import (
    SignedPermutation,
    column_reading_element,
    conjugate,
    descends,
    parabolic_elements,
    shuffle_element,
)


class HeckeElement:
    __slots__ = ("d", "terms")

    def __init__(self, d, terms=None):
        self.d = d
        t = {}
        if terms:
            for w, c in terms.items():
                if c:
                    t[w] = c
        self.terms = t

    # -- constructors

    @staticmethod
    def one(d):
        return HeckeElement(d, {SignedPermutation.identity(d): RF_ONE})

    @staticmethod
    def basis(d, w, coeff=RF_ONE):
        return HeckeElement(d, {w: coeff})

    @staticmethod
    def generator(d, i):
        return HeckeElement(d, {SignedPermutation.generator(d, i): RF_ONE})

    # -- predicates

    def __bool__(self):
        return bool(self.terms)

    def support_size(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    # -- linear structure

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("rank mismatch")
        t = dict(self.terms)
        for w, c in other.terms.items():
            _bump(t, w, c)
        out = HeckeElement(self.d)
        out.terms = t
        return out

    def __neg__(self):
        out = HeckeElement(self.d)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return HeckeElement(self.d)
        out = HeckeElement(self.d)
        out.terms = {w: c * v for w, v in self.terms.items()}
        return out

    # -- multiplication

    def __mul__(self, other):
        if self.d != other.d:
            raise ValueError("rank mismatch")
        out = {}
        for w, c in self.terms.items():
            part = other.terms
            for i in reversed(w.reduced_word()):
                part = _gen_mul(self.d, i, part)
            for u, v in part.items():
                _bump(out, u, c * v)
        return HeckeElement(self.d, out)

    # -- serialization

    def to_lines(self):
        lines = []
        for w in sorted(self.terms, key=lambda u: (u.length(), u.images)):
            lines.append("%s : %s" % (w, self.terms[w].num if self.terms[w].den.is_one() else self.terms[w]))
        return lines

    def __str__(self):
        if not self.terms:
            return "0"
        return "\n".join(self.to_lines())

    def __repr__(self):
        return "HeckeElement(d=%d, support=%d)" % (self.d, len(self.terms))


def _bump(terms, w, c):
    """Add c at key w of a sparse {w: coefficient} dict, dropping the entry
    if it cancels."""
    t = terms.get(w)
    t = c if t is None else t + c
    if t:
        terms[w] = t
    else:
        terms.pop(w, None)


@cache
def quadratic_roots(i):
    """The two eigenvalues (1/x, -x) of T_i, (T_i - 1/x)(T_i + x) = 0, with
    x = Q for T_0 and x = q for every other generator: the one place a
    generator's parameter is chosen."""
    x = RF_q if i > 0 else RF_Q
    return x.inverse(), -x


def _gen_mul(d, i, terms):
    """Multiply {w: c} on the left by T_i; s_i is a left descent of w when it
    is a right descent of w^-1 (descends)."""
    s = SignedPermutation.generator(d, i)
    a, b = quadratic_roots(i)
    shift = a + b
    out = {}
    for w, c in terms.items():
        _bump(out, s * w, c)
        if descends(w.inverse_images(), i):
            _bump(out, w, shift * c)
    return out


def braid_relations_hold(t):
    """The braid relations of type B on generators t_0, ..., t_{d-1}, Hecke
    elements or their matrices: t_0 t_1 t_0 t_1 = t_1 t_0 t_1 t_0,
    t_i t_{i+1} t_i = t_{i+1} t_i t_{i+1} for i >= 1, and t_i t_j = t_j t_i
    for |i - j| >= 2."""
    d = len(t)
    return (
        (d < 2 or t[0] * t[1] * t[0] * t[1] == t[1] * t[0] * t[1] * t[0])
        and all(t[i] * t[i + 1] * t[i] == t[i + 1] * t[i] * t[i + 1] for i in range(1, d - 1))
        and all(t[i] * t[j] == t[j] * t[i] for i in range(d) for j in range(i + 2, d))
    )


# ---------------------------------------------------------------------------
# distinguished elements


def jucys_murphy(d, i):
    """K_i = T_{i-1} ... T_1 T_0 T_1 ... T_{i-1}."""
    if not 1 <= i <= d:
        raise ValueError("index out of range")
    out = HeckeElement.generator(d, 0)
    for j in range(1, i):
        t = HeckeElement.generator(d, j)
        out = t * out * t
    return out


def central_element(d):
    """c_K = K_1 K_2 ... K_d."""
    out = HeckeElement.one(d)
    for i in range(1, d + 1):
        out = out * jucys_murphy(d, i)
    return out


def jucys_murphy_commute(d):
    """The K_i commute pairwise, and c_K commutes with every T_i."""
    ks = [jucys_murphy(d, i) for i in range(1, d + 1)]
    ck = central_element(d)
    gens = [HeckeElement.generator(d, i) for i in range(d)]
    commute = all(a * b == b * a for k, a in enumerate(ks) for b in ks[k + 1 :])
    return commute and all(ck * t == t * ck for t in gens)


def _jm_shifts(d, i, root):
    """The factors K_j - root for j = 1..i."""
    return [jucys_murphy(d, j) - HeckeElement.one(d).scale(root) for j in range(1, i + 1)]


def u_plus(d, i):
    """prod_{j=1}^{i} (K_j + Q)."""
    return prod(_jm_shifts(d, i, quadratic_roots(0)[1]), start=HeckeElement.one(d))


def u_minus(d, i):
    """prod_{j=1}^{i} (K_j - 1/Q)."""
    return prod(_jm_shifts(d, i, quadratic_roots(0)[0]), start=HeckeElement.one(d))


def _embed(w, offset, d):
    """w of rank k on strands offset+1..offset+k of rank d: each image moves
    by offset away from 0, keeping its sign; the other strands are fixed."""
    img = list(range(1, offset + 1))
    img += [v + offset if v > 0 else v - offset for v in w.images]
    img += range(offset + w.rank + 1, d + 1)
    return SignedPermutation(img)


def shuffle_t(a, b, d):
    """T_{w} for the (a, b) block shuffle, on the first a + b strands of rank d."""
    return HeckeElement.basis(d, _embed(shuffle_element(a, b), 0, d))


def _young_sum(lam, offset, d, c):
    """sum_w c^{l(w)} T_w over the Young subgroup of the composition lam,
    embedded at the given strand offset."""
    gens, pos = [], offset
    for p in lam:
        gens += range(pos + 1, pos + p)
        pos += p
    return HeckeElement(d, {w: c**l for w, l in parabolic_elements(d, gens).items()})


def symmetrizer(lam, offset, d):
    """x = sum_w q^{-l(w)} T_w over the Young subgroup of lam (image lies in
    the 1/q eigenspace of each T_i in the subgroup)."""
    return _young_sum(lam, offset, d, quadratic_roots(1)[0])


def antisymmetrizer(lam, offset, d):
    """y = sum_w (-q)^{l(w)} T_w over the Young subgroup of lam (image lies in
    the -q eigenspace of each T_i in the subgroup)."""
    return _young_sum(lam, offset, d, quadratic_roots(1)[1])


def _young_factors(lam, offset, d):
    """x_lam, T_{c(lam)} and y_{lam'}, embedded at the given strand offset."""
    c = HeckeElement.basis(d, _embed(column_reading_element(lam), offset, d))
    return [symmetrizer(lam, offset, d), c, antisymmetrizer(conjugate(lam), offset, d)]


def young_idempotent(lam, offset, d):
    """The element x_lam T_{c(lam)} y_{lam'} attached to a partition,
    embedded at the given strand offset.  Despite the name it is not
    quasi-idempotent in general: for lam = (2, 1) it squares to 0.  Only the
    images of the products it enters are read."""
    return prod(_young_factors(lam, offset, d), start=HeckeElement.one(d))


def embed_in_rank(elem, d_big):
    """View an element of a smaller rank algebra inside rank d_big, acting on
    the first strands."""
    return HeckeElement(d_big, {_embed(w, 0, d_big): c for w, c in elem.terms.items()})


def cylinder_identity_holds(d, e):
    """c_K in rank d+e factors through the block shuffles:
    c_K^{d+e} = T_{d,e} (c_K^e x 1) T_{e,d} (c_K^d x 1), and the same with the
    last factor rotated to the front."""
    n = d + e
    ckn = central_element(n)
    ckd = embed_in_rank(central_element(d), n)
    cke = embed_in_rank(central_element(e), n)
    lhs = shuffle_t(d, e, n) * cke * shuffle_t(e, d, n) * ckd
    rot = ckd * shuffle_t(d, e, n) * cke * shuffle_t(e, d, n)
    return ckn == lhs and ckn == rot


def bipartition_factors(shape):
    """The factors of e'_{lam,mu}, left to right: T_{a,b}, K_j - 1/Q (j <= b),
    T_{b,a}, K_j + Q (j <= a), then x, T_c, y for lam and for mu."""
    lam, mu = shape
    a, b = sum(lam), sum(mu)
    d = a + b
    inv, neg = quadratic_roots(0)
    return [
        shuffle_t(a, b, d), *_jm_shifts(d, b, inv),
        shuffle_t(b, a, d), *_jm_shifts(d, a, neg),
        *_young_factors(lam, 0, d), *_young_factors(mu, a, d),
    ]


def bipartition_element(shape):
    """e'_{lam,mu} = T_{a,b} u_b^- T_{b,a} u_a^+ e_lam e_mu in rank a + b: the
    product of bipartition_factors, taken from the right so that the left
    operand, whose reduced words a product walks, is always a short factor."""
    out = HeckeElement.one(sum(map(sum, shape)))
    for f in reversed(bipartition_factors(shape)):
        out = f * out
    return out
