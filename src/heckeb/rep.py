"""
Tensor space actions: the Hecke algebra on V_n^{(x) d}, the inductive R- and
K-matrices, permutation modules, index-shift intertwiners, and the coideal
generators that commute with everything, built on the tensor tuples from the
coproducts of the quantum group's E, F and H, as the Hecke generators are.

Conventions.  The Hecke algebra acts on the right of V_n^{(x) d}; matrices act
on the left of coordinate columns, so rho(x y) = rho(y) rho(x).  The generator
T_i (i >= 1) acts on tensor factors i, i+1 by the R-matrix

    v_i (x) v_j  |->  (1/q) v_i (x) v_j                   i = j,
    v_i (x) v_j  |->  v_j (x) v_i                          i < j,
    v_i (x) v_j  |->  v_j (x) v_i + (1/q - q) v_i (x) v_j  i > j,

and T_0 acts on the first factor by the K-matrix

    v_i  |->  (1/Q) v_i                   i = 0,
    v_i  |->  v_{-i}                      i > 0,
    v_i  |->  v_{-i} + (1/Q - Q) v_i      i < 0.

Everything can run either symbolically over the rational function field or at
an exact rational specialization point; there the integral twin of a backend
builds every Hecke matrix over Z, as a stated positive multiple (rho).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm, prod

from .exactlinalg import ExactMatrix, _integer_matrix, krylov_annihilators
from .hecke import braid_relations_hold, central_element, quadratic_roots
from .scalars import (
    LP_ONE,
    RF_ONE,
    RF_Q,
    RF_q,
    Specialization,
    specialize,
)
from .weylcomb import (
    SignedPermutation,
    fmt_index,
    index_set,
    orbit_with_minimal_reps,
    shift_outward,
)


class UnclassifiedEigenvalue(ArithmeticError):
    pass


class BudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# backends


class _Backend:
    """Backends compare and hash by key, so the caches below share entries
    between backends at the same point."""

    def __eq__(self, other):
        return isinstance(other, _Backend) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


class SymbolicBackend(_Backend):
    is_symbolic = True
    one = RF_ONE
    key = ("symbolic",)

    def of(self, rf):
        return rf

    def laurent(self, x):
        """A matrix or scalar of this backend over ZZ[Q^{+-1}, q^{+-1}]: each
        entry as its LaurentPoly2 (ArithmeticError if one is not Laurent)."""
        if isinstance(x, ExactMatrix):
            e = {k: v.laurent() for k, v in x.entries.items()}
            return ExactMatrix(x.nrows, x.ncols, e, LP_ONE)
        return x.laurent()

    def kronecker(self, blocks, pairs):
        """Integer images of LaurentPoly2 blocks {key: matrix} that decide the
        comparisons pairs {name: (left keys, right keys)} of their products:
        ({key: image}, {name: (left unit, right unit)}).  A product of images
        times its side's unit equals the other side's exactly when the two
        Laurent products are equal (_kronecker_point)."""
        k, W, shift, comp = _kronecker_point(blocks, pairs)

        def phi(a, b):  # Q^a q^b |-> 2^phi(a, b)
            return k * (a * (W + 1) + b)

        images = {}
        for key, m in blocks.items():
            A, B = shift[key]
            e = {
                at: sum(c << phi(a + A, b + B) for (a, b), c in v.terms.items())
                for at, v in m.entries.items()
            }
            images[key] = ExactMatrix(m.nrows, m.ncols, e, 1)
        return images, {name: tuple(1 << phi(a, b) for a, b in c) for name, c in comp.items()}

    def __repr__(self):
        return "SymbolicBackend()"


class SpecializedBackend(_Backend):
    """Q at a point (unit Fraction(1)), or with integral=True its twin over Z
    (unit 1, its own key), which builds the Hecke matrices with integer
    entries: see _coeffs and rho.  bk.integral is the twin of either."""

    is_symbolic = False

    def __init__(self, spec: Specialization, integral=False):
        self.spec = spec
        self.one = 1 if integral else Fraction(1)
        self.key = ("integral" if integral else "specialized", spec.valueQ, spec.valueq)
        self.integral = self if integral else SpecializedBackend(spec, True)

    def of(self, rf):
        return specialize(rf, self.spec)

    def laurent(self, x):
        """At a point the ring is Q itself: x unchanged."""
        return x

    def kronecker(self, blocks, pairs):
        """At a point the blocks are over Q already: unchanged, every unit 1."""
        return blocks, {name: (1, 1) for name in pairs}

    def __repr__(self):
        twin = ", integral" if self.integral is self else ""
        return "SpecializedBackend(Q=%s, q=%s%s)" % (self.spec.valueQ, self.spec.valueq, twin)


SYMBOLIC = SymbolicBackend()


# ---------------------------------------------------------------------------
# tensor space bookkeeping


# The caches below are unbounded: a CLI run is one process at one point, and
# no caller sweeps points inside a process.


@functools.cache
def tensor_tuples(n, d):
    """All index tuples of V_n^{(x) d} in lexicographic order, with lookup."""
    tups = list(itertools.product(index_set(n), repeat=d))
    return tups, {t: k for k, t in enumerate(tups)}


@functools.cache
def _coeffs(bk, i):
    """The entries (1, a, a + b) of rho(T_i), with a, b = (1/x, -x) its roots
    (hecke.quadratic_roots).  Over Z (the integral twin) each is times s_i,
    the lcm of their denominators: s_0 for T_0, s_1 for every other T_i."""
    a, b = quadratic_roots(i)
    c = (bk.one, bk.of(a), bk.of(a + b))
    if isinstance(bk.one, int):
        s = lcm(c[1].denominator, c[2].denominator)
        c = tuple(int(v * s) for v in c)
    return c


def action_matrix_on(tuples, index, i, bk):
    """Matrix of the right action of T_i on the span of the given index tuples.

    The tuple list must be closed under the move (it always is for full tensor
    spaces and for orbits).
    """
    one, inv, dif = _coeffs(bk, i)
    e = {}
    for col, a in enumerate(tuples):
        if i == 0:
            x = a[0]
            if x == 0:
                e[(col, col)] = inv
            else:
                b = (-x,) + a[1:]
                e[(index[b], col)] = one
                if x < 0:
                    e[(col, col)] = dif
        else:
            x, y = a[i - 1], a[i]
            if x == y:
                e[(col, col)] = inv
            else:
                b = a[: i - 1] + (y, x) + a[i + 1 :]
                e[(index[b], col)] = one
                if x > y:
                    e[(col, col)] = dif
    m = len(tuples)
    return ExactMatrix(m, m, e, bk.one)


@functools.cache
def generator_matrix(n, d, i, bk):
    """rho(T_i) on V_n^{(x) d}; s_i rho(T_i) over Z (_coeffs)."""
    tups, index = tensor_tuples(n, d)
    return action_matrix_on(tups, index, i, bk)


@functools.cache
def rho_basis(n, d, w, bk):
    """rho(T_w) = rho(T_s) rho(T_{ws}) for the last letter s of a reduced word
    of w: one product on the cached matrix of the shorter prefix.  Over Z it
    is sigma(w) rho(T_w), sigma(w) = s_0^{l_0} s_1^{l_1} over the letters of
    the word (SignedPermutation.length_split)."""
    word = w.reduced_word()
    if not word:
        return ExactMatrix.identity(n**d, bk.one)
    s = word[-1]
    prefix = w * SignedPermutation.generator(d, s)
    return generator_matrix(n, d, s, bk) * rho_basis(n, d, prefix, bk)


@functools.cache
def rho(elem, n, bk=SYMBOLIC):
    """Matrix of a Hecke element acting on V_n^{(x) d} (d = elem.d); cached,
    so each distinct factor of a bipartition element is built once.

    At a point the integral twin builds it over Z.  Its generator matrices
    are s_i rho(T_i) with integer entries (_coeffs), so its rho_basis(w), a
    product along a reduced word, is sigma(w) rho(T_w) with
    sigma(w) = s_0^{l_0} s_1^{l_1}.  With c_w = a_w / b_w in lowest terms and
    L = lcm(b_w sigma(w)) > 0, L rho(elem) is the sum over w of the integer
    matrices sigma(w) rho(T_w) times the integers a_w L / (b_w sigma(w)):
    over Z rho is that sum, and over Q that sum divided once by L.  A
    nonzero multiple has the same image, which is all the ledger reads."""
    N = n**elem.d
    if bk.is_symbolic:
        terms = (rho_basis(n, elem.d, w, bk).scale(c) for w, c in elem.terms.items())
        return sum(terms, ExactMatrix.zeros(N, N, bk.one))
    zk = bk.integral
    s0, s1 = _coeffs(zk, 0)[0], _coeffs(zk, 1)[0]
    terms = []
    for w, c in elem.terms.items():
        c, (l0, l1) = zk.of(c), w.length_split()
        terms.append((rho_basis(n, elem.d, w, zk), c.numerator, c.denominator * s0**l0 * s1**l1))
    den = lcm(*(t[2] for t in terms))
    acc = {}
    for m, a, t in terms:
        a *= den // t
        for k, v in m.entries.items():
            acc[k] = acc.get(k, 0) + a * v
    if bk is zk:
        return ExactMatrix(N, N, acc, 1)
    return ExactMatrix(N, N, {k: Fraction(v, den) for k, v in acc.items() if v}, bk.one)


# ---------------------------------------------------------------------------
# inductive R- and K-matrices on tensor blocks


def embed_factors(mat, n, left, right):
    """Id^{(x) left} (x) mat (x) Id^{(x) right} on tensor factors of V_n."""
    out = mat
    if left:
        out = ExactMatrix.identity(n**left, mat.one).kron(out)
    if right:
        out = out.kron(ExactMatrix.identity(n**right, mat.one))
    return out


@functools.cache
def r_block(a, b, n, bk=SYMBOLIC):
    """R_{V^{(x) a}, V^{(x) b}} on V_n^{(x)(a+b)}, built by the cabling rules
    R_{XY,Z} = (R_{X,Z} (x) 1)(1 (x) R_{Y,Z}) and
    R_{X,YZ} = (1 (x) R_{X,Z})(R_{X,Y} (x) 1).

    The blocks are images of the Hecke algebra over ZZ[Q^{+-1}, q^{+-1}], so
    the symbolic backend builds them in that ring: every entry is a
    LaurentPoly2 and no product canonicalises.  verify_rk_equations compares
    their products exactly over Z at one Kronecker point (proof in
    _kronecker_point).  At a point they are over Fraction as everywhere
    else."""
    if a == 1 and b == 1:
        return bk.laurent(generator_matrix(n, 2, 1, bk))
    if a > 1:
        return embed_factors(r_block(a - 1, b, n, bk), n, 0, 1) * embed_factors(
            r_block(1, b, n, bk), n, a - 1, 0
        )
    return embed_factors(r_block(a, b - 1, n, bk), n, 1, 0) * embed_factors(
        r_block(a, 1, n, bk), n, 0, b - 1
    )


@functools.cache
def k_block(d, n, bk=SYMBOLIC):
    """K_{V^{(x) d}} by the cylinder rule
    K_{VW} = (K_V (x) 1) R_{W,V} (K_W (x) 1) R_{V,W} with V the first factor;
    LaurentPoly2 entries in the symbolic backend, compared as r_block's
    (_kronecker_point)."""
    if d == 1:
        return bk.laurent(generator_matrix(n, 1, 0, bk))
    kv = embed_factors(k_block(1, n, bk), n, 0, d - 1)
    kw = embed_factors(k_block(d - 1, n, bk), n, 0, 1)
    return kv * r_block(d - 1, 1, n, bk) * kw * r_block(1, d - 1, n, bk)


def _kronecker_point(blocks, pairs):
    """The Kronecker point at which integer images decide the comparisons
    pairs {name: (left keys, right keys)} of products of the LaurentPoly2
    blocks {key: matrix}: (k, W, shift, comp).

    Q^A q^B, (A, B) = shift[key] >= 0 least, clears the negative exponents of
    a block; phi evaluates at Q = Y^(W+1), q = Y with Y = 2^k.  phi is a ring
    map Z[Q, q] -> Z, so the product of the blocks' images phi(Q^A q^B M) is
    the image of the shifted product.  The shifts of two sides may differ
    (K_{2e} against the cylinder product): comp[name] gives the monomial
    Q^a q^b by which each side is multiplied to bring its shift up to the
    larger one, so both sides are images of one multiple Q^A' q^B' of their
    Laurent products, and their difference D has exponents >= 0.

    The range: every q-degree of D is at most W, the largest over all sides
    of the sum of the factors' shifted q-degrees plus that side's b.  The
    bound: a row norm (the largest row sum of the entries' coefficient
    1-norms) is submultiplicative, and embedding a block by an identity
    (embed_factors) leaves it unchanged, so every coefficient of D is at most
    the sum over its two sides of the product of their factors' row norms,
    which is less than 2^k.  Then Q^a q^b |-> Y^(a(W+1)+b) is one-to-one on
    the monomials of D, and its lowest term d Y^t with 0 < |d| < Y is not
    divisible by Y^(t+1): phi(D) = 0 only when D = 0.  So the images are
    equal exactly when the products are, with no probability and no float.
    """
    shift, deg, norm = {}, {}, {}
    for key, m in blocks.items():
        exps = [t for v in m.entries.values() for t in v.terms] or [(0, 0)]
        A = max(0, -min(a for a, _ in exps))
        B = max(0, -min(b for _, b in exps))
        rows = {}
        for (r, _), v in m.entries.items():
            rows[r] = rows.get(r, 0) + sum(map(abs, v.terms.values()))
        shift[key], deg[key] = (A, B), max(b for _, b in exps) + B
        norm[key] = max(rows.values(), default=0)
    k = W = 0
    comp = {}
    for name, sides in pairs.items():
        As = [sum(shift[x][0] for x in side) for side in sides]
        Bs = [sum(shift[x][1] for x in side) for side in sides]
        comp[name] = [(max(As) - a, max(Bs) - b) for a, b in zip(As, Bs)]
        for side, (_, b) in zip(sides, comp[name]):
            W = max(W, sum(deg[x] for x in side) + b)
        k = max(k, sum(prod(norm[x] for x in side) for side in sides).bit_length())
    return k, W, shift, comp


# the two products of the blocks R, K and K2 = K_{2e} that each equation of
# verify_rk_equations compares, as lists of factors (embeddings aside); the
# last is the negative control, the cylinder product with K := Id against K2
_RK_PAIRS = {
    "yang_baxter": ("RRR", "RRR"),
    "reflection": ("KRKR", "RKRK"),
    "k_consistency": ("KRKR", ("K2",)),
    "negative_control": ("RR", ("K2",)),
}


def verify_rk_equations(n, e=1, bk=SYMBOLIC):
    """Braid (Yang-Baxter) and reflection equations for the block R and K.

    With e > 1 the block versions on V^{(x) e} cables are checked.  Beside
    `all` stands negative_control, which is not part of it: whether R R, the
    cylinder product k1 R k1 R with K replaced by the identity, equals K_{2e}.
    It must not, or k_consistency could not tell K from the identity, and
    the CLI then fails the run.

    Symbolically no Laurent product is formed for the four block comparisons:
    R, K and K_{2e} are each mapped once to an integer matrix at one
    Kronecker point (bk.kronecker), where the images, each side times its
    unit, are equal exactly when the products are (proof in
    _kronecker_point).  k_quadratic checks the n x n base K,
    generator_matrix(n, 1, 0), over the backend's field (_quadratic_holds).
    At a point the blocks are compared over Fraction as they are.
    """
    blocks = {"R": r_block(e, e, n, bk), "K": k_block(e, n, bk), "K2": k_block(2 * e, n, bk)}
    images, units = bk.kronecker(blocks, _RK_PAIRS)
    rz, kz = images["R"], images["K"]

    def holds(name, lhs, rhs):
        ul, ur = units[name]
        return (lhs if ul == 1 else lhs.scale(ul)) == (rhs if ur == 1 else rhs.scale(ur))

    # braid relation on three e-blocks
    r1 = embed_factors(rz, n, 0, e)
    r2 = embed_factors(rz, n, e, 0)
    # reflection equation on two e-blocks
    k1 = embed_factors(kz, n, 0, e)
    cyl = k1 * rz * k1 * rz
    results = {
        "yang_baxter": holds("yang_baxter", r1 * r2 * r1, r2 * r1 * r2),
        "reflection": holds("reflection", cyl, rz * k1 * rz * k1),
        # quadratic relation of the base K
        "k_quadratic": _quadratic_holds(generator_matrix(n, 1, 0, bk), 0, bk),
        # the cabled K against the cylinder rule on e + e blocks
        "k_consistency": holds("k_consistency", cyl, images["K2"]),
    }
    results["all"] = all(results.values())
    results["negative_control"] = holds("negative_control", rz * rz, images["K2"])
    return results


def verify_k_against_center(n, d, bk=SYMBOLIC):
    """K_{V^{(x) d}} equals the action of the central element c_K, compared
    over the blocks' ring: symbolically the rho matrix is taken to its
    Laurent entries first (bk.laurent)."""
    return k_block(d, n, bk) == bk.laurent(rho(central_element(d), n, bk))


def _quadratic_holds(m, i, bk):
    """(m - a)(m - b) = 0 for the roots a, b of T_i (hecke.quadratic_roots),
    over the backend's field."""
    ident = ExactMatrix.identity(m.nrows, bk.one)
    a, b = (ident.scale(bk.of(r)) for r in quadratic_roots(i))
    return ((m - a) * (m - b)).is_zero()


def verify_rho_relations(n, d, bk=SYMBOLIC):
    """All defining relations hold under rho on V_n^{(x) d}: each generator
    matrix satisfies its quadratic relation (_quadratic_holds), and the
    braid relations hold (hecke.braid_relations_hold)."""
    g = [generator_matrix(n, d, i, bk) for i in range(d)]
    return all(_quadratic_holds(m, i, bk) for i, m in enumerate(g)) and braid_relations_hold(g)


# ---------------------------------------------------------------------------
# permutation modules and index-shift intertwiners


class PermutationModule:
    """The span of one W-orbit of basis vectors inside V_n^{(x) d}."""

    def __init__(self, n, dominant, bk=SYMBOLIC):
        self.n = n
        self.d = len(dominant)
        self.dominant = tuple(dominant)
        self.bk = bk
        self.reps = orbit_with_minimal_reps(self.dominant)
        self.tuples = sorted(self.reps)
        self.index = {t: k for k, t in enumerate(self.tuples)}
        self._gens = {}

    @property
    def dim(self):
        return len(self.tuples)

    def generator(self, i):
        if i not in self._gens:
            self._gens[i] = action_matrix_on(self.tuples, self.index, i, self.bk)
        return self._gens[i]


def index_shift_matrix(module: PermutationModule, value_map, n_target):
    """The linear map sending each orbit vector v_b to v_{value_map(b)} in the
    ambient target tensor space V_{n_target}^{(x) d}."""
    _, index = tensor_tuples(n_target, module.d)
    one = module.bk.one
    e = {}
    for col, b in enumerate(module.tuples):
        target = tuple(value_map(x) for x in b)
        e[(index[target], col)] = one
    return ExactMatrix(n_target**module.d, module.dim, e, one)


def barv_map(a, n_odd, bk=SYMBOLIC):
    """Matrix of the half-shift embedding V(a) -> V_{n_odd + 1}^{(x) d}.

    a is a dominant doubled tuple over an odd n with some leading zeros; all
    indices gain 1/2 and the zero block is replaced by the signed, weighted
    orbit of (1/2, ..., 1/2).  Columns are indexed like the permutation
    module of a.
    """
    module = PermutationModule(n_odd, a, bk)
    n_even = n_odd + 1
    d = module.d
    nzeros = sum(1 for x in a if x == 0)
    tail = tuple(x + 1 for x in a[nzeros:])
    _, index = tensor_tuples(n_even, d)
    # the seed vector: signed orbit of (1/2, ..., 1/2) on the zero block, each
    # vector weighted by the character T_i -> 1/x of its minimal representative
    seed = {}
    if nzeros:
        reps = orbit_with_minimal_reps((1,) * nzeros)
        for b, w in reps.items():
            weight = prod((quadratic_roots(i)[0] for i in w.reduced_word()), start=RF_ONE)
            seed[index[b + tail]] = bk.of(weight)
    else:
        seed[index[tail]] = bk.one
    gens = [generator_matrix(n_even, d, i, bk) for i in range(d)]
    cols = []
    for b in module.tuples:
        w = module.reps[b]
        vec = seed
        for i in w.inverse().reduced_word():
            vec = gens[i].apply(vec)
        cols.append(vec)
    return ExactMatrix.from_columns(n_even**d, cols, bk.one)


def verify_permutation_intertwiners(n_odd, d, bk=SYMBOLIC):
    """The outward shift V(2, ..., 2) -> V_{n_odd + 2}^{(x) d} and the half
    shift V(0, ..., 0) -> V_{n_odd + 1}^{(x) d} commute with every rho(T_i),
    and the half shift is injective."""
    pm = PermutationModule(n_odd, (2,) * d, bk)
    psi = index_shift_matrix(pm, lambda v: shift_outward(v, 2), n_odd + 2)
    pmz = PermutationModule(n_odd, (0,) * d, bk)
    phi = barv_map((0,) * d, n_odd, bk)
    return phi.rank() == pmz.dim and all(
        psi * pm.generator(i) == generator_matrix(n_odd + 2, d, i, bk) * psi
        and phi * pmz.generator(i) == generator_matrix(n_odd + 1, d, i, bk) * phi
        for i in range(d)
    )


# ---------------------------------------------------------------------------
# quantum group and coideal operators


def _coproducts(n, d, j, bk):
    """The d-fold coproducts (E, F, H, H^-1) on V_n^{(x) d} at the node j, a
    doubled index between the basis indices j - 1 and j + 1, built on the
    tensor tuples.  H puts q on each letter j - 1 and 1/q on each letter
    j + 1.  By Delta E = E (x) H^-1 + 1 (x) E, E turns one letter j + 1 into
    j - 1 and H^-1 acts on the letters after it; by Delta F = F (x) 1 + H (x) F,
    F turns one letter j - 1 into j + 1 and H acts on the letters before it."""
    tups, index = tensor_tuples(n, d)
    q = bk.of(RF_q)
    power = {k: q**k for k in range(-d, d + 1)}
    e, f, h, hinv = {}, {}, {}, {}
    for col, a in enumerate(tups):
        ws = [(x == j - 1) - (x == j + 1) for x in a]  # H is q^w on a letter
        total, before = sum(ws), 0
        h[(col, col)], hinv[(col, col)] = power[total], power[-total]
        for k, x in enumerate(a):
            if x == j + 1:
                e[(index[a[:k] + (j - 1,) + a[k + 1 :]], col)] = power[before + ws[k] - total]
            elif x == j - 1:
                f[(index[a[:k] + (j + 1,) + a[k + 1 :]], col)] = power[before]
            before += ws[k]
    N = len(tups)
    return tuple(ExactMatrix(N, N, m, bk.one) for m in (e, f, h, hinv))


@functools.cache
def coideal_generators(n, d, bk=SYMBOLIC):
    """The coideal generators on V_n^{(x) d}, as {name: matrix} (cached: no caller changes it).

    For every positive index i the Cartan product d_i is q to the number of
    letters equal to +-i; away from the middle of the diagram the pairs
    e_i, f_i take the generic twisted form of the coproducts (_coproducts).
    At the middle, the parity of n decides the shape: for odd n the pair at
    i = 1/2 carries the extra Q-twist, for even n the single generator t with
    the (Q - 1/Q)/(q - 1/q) constant term appears.
    """
    tups, _ = tensor_tuples(n, d)
    q = bk.of(RF_q)
    out = {}
    for di in index_set(n):
        if di > 0:
            diag = {(c, c): q ** (a.count(di) + a.count(-di)) for c, a in enumerate(tups)}
            out["d_" + fmt_index(di)] = ExactMatrix(len(tups), len(tups), diag, bk.one)
    cQ = bk.of(RF_Q)
    cQi = bk.of(RF_Q.inverse())
    for di in index_set(n - 1) if n > 1 else ():
        if di < 0:
            continue
        e, f, _, hinv = _coproducts(n, d, di, bk)
        if di == 0:
            # middle node exists only for even n
            const = bk.of((RF_Q - RF_Q.inverse()) / (RF_q - RF_q.inverse()))
            out["t"] = e + f.scale(q) * hinv + hinv.scale(const)
            continue
        em, fm, _, hminv = _coproducts(n, d, -di, bk)
        if di == 1 and n % 2 == 1:
            # middle pair for odd n carries the Q-twist
            out["e_1/2"] = e + (fm * hinv).scale(cQi)
            out["f_1/2"] = em + (hminv * f).scale(cQ)
        else:
            out["e_" + fmt_index(di)] = e + fm * hinv
            out["f_" + fmt_index(di)] = em + hminv * f
    return out


def verify_coideal_commutation(n, d, bk=SYMBOLIC):
    """The (name, i) of each coideal generator that fails to commute with
    rho(T_i); at a point over Z, on `_integer_matrix` multiples, which commute
    exactly when the matrices do."""
    over = (lambda g: g) if bk.is_symbolic else _integer_matrix
    gens = {name: over(g) for name, g in coideal_generators(n, d, bk).items()}
    heckes = [over(generator_matrix(n, d, i, bk)) for i in range(d)]
    return [(name, i) for name, g in gens.items() for i, h in enumerate(heckes) if g * h != h * g]


# ---------------------------------------------------------------------------
# spectra


def _powers(x, k):
    """[x^-k, ..., x^k] for a nonzero Fraction x, one product each."""
    up = [x**0]
    for _ in range(k):
        up.append(up[-1] * x)
    return [1 / v for v in reversed(up[1:])] + up


def jm_candidate_eigenvalues(i, s: Specialization):
    """The possible eigenvalues of K_i: -Q q^{2j} and (1/Q) q^{2j} with
    |j| < i, each a cached power of q^2 times -Q or 1/Q."""
    Qi = 1 / s.valueQ
    return [x for v in _powers(s.valueq**2, i - 1) for x in (-s.valueQ * v, v * Qi)]


def central_candidate_eigenvalues(d, s: Specialization):
    """The possible eigenvalues +-Q^i q^j, |i| <= d and |j| <= 2d^2, of the
    central element's action, each a product of two cached powers."""
    qs = _powers(s.valueq, 2 * d * d)
    out = []
    for x in _powers(s.valueQ, d):
        for y in qs:
            v = x * y
            out += (v, -v)
    return out


def _deflate(c, a, b):
    """c / (b t - a) for integer coefficients c (constant first) if a/b, in
    lowest terms with b > 0, is a root, else None: by Gauss's lemma the
    quotient is integral, so a remainder at any step shows a/b is no root."""
    r = [0] * len(c)
    for k in range(len(c) - 1, 0, -1):
        r[k - 1], rem = divmod(c[k] + a * r[k], b)
        if rem:
            return None
    return r[:-1] if c[0] + a * r[0] == 0 else None


def eigenvalue_multiplicities(m: ExactMatrix, candidates):
    """{eigenvalue: multiplicity in the minimal polynomial}, in candidate
    order, over Z: the minimal polynomial is never formed.

    Each annihilator of a Krylov chain of M = L m (`krylov_annihilators`) is
    rescaled once to m's scale, c_k L^k with the content removed, and
    deflated (_deflate) by each candidate a/b that the rational root theorem
    allows: b | c[-1] and a | c[0].  The minimal polynomial is the lcm of the
    annihilators, so a candidate's multiplicity there is its largest over the
    chains.  Raises UnclassifiedEigenvalue if a chain leaves a nonconstant
    factor.
    """
    L = lcm(*(v.denominator for v in m.entries.values()))
    roots = [(lam, lam.numerator, lam.denominator) for lam in candidates]
    found = {}  # candidate position -> multiplicity
    for _, c in krylov_annihilators(m):
        scaled, power = [], 1
        for x in c:
            scaled.append(x * power)
            power *= L
        g = gcd(*scaled)
        c = [x // g for x in scaled]
        for pos, (_, a, b) in enumerate(roots):
            if len(c) == 1:
                break
            k = 0
            while len(c) > 1 and not c[-1] % b and not (c[0] % a if a else c[0]):
                r = _deflate(c, a, b)
                if r is None:
                    break
                c, k = r, k + 1
            if k > found.get(pos, 0):
                found[pos] = k
        if len(c) > 1:
            raise UnclassifiedEigenvalue(
                "minimal polynomial has a factor outside the candidate set"
            )
    return {roots[pos][0]: k for pos, k in sorted(found.items())}
