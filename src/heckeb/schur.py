"""
Signed symmetric and exterior powers, Schur algebras and Schur functors.

The four signed powers of V_n^{(x) d} are cut out by one sign choice for the
K-generator and one for the R-generators:

    kind          T_0 class   T_i class   quotient relations
    s_plus        1/Q         1/q         (T_0 - 1/Q), (T_i - 1/q)
    s_minus       -Q          1/q         (T_0 + Q),   (T_i - 1/q)
    wedge_plus    1/Q         -q          (T_0 - 1/Q), (T_i + q)
    wedge_minus   -Q          -q          (T_0 + Q),   (T_i + q)

Each comes in a quotient flavour (divide by the images of the complementary
relations) and a kernel flavour (intersect the kernels); generically both have
the binomial dimensions recorded in expected_pm_dimension.

The Schur algebra is the centralizer of the Hecke action.  Its dimension is
computed two independent ways: as a joint-commutant kernel, and orbit by orbit
through Frobenius reciprocity (each permutation module is induced from a
one-dimensional character of a parabolic, so Hom(V(a), V(b)) is a simultaneous
eigenspace inside V(b)).  That eigenspace depends only on the stabilizers of a
and of b (weylcomb.stabilizer_parabolic), so the orbit route takes one rank
per pair of stabilizers: 56 at n 7, d 3 for its 20 x 20 pairs of tuples.
The ledger takes the orbit route; the centralizer command compares the two.

The Schur functor of a bipartition is the image of
e'_{lam,mu} = f_1 ... f_k (hecke.bipartition_factors); its dimension matches
the count of semistandard bitableaux.  e' need not be quasi-idempotent (for
lam, mu = (2, 1), () it squares to 0), so only its image is read.  The ledger
reads it factor by factor and never expands e' (the diagram route:
product_images); the schur command also expands e' (the element route) and
compares the two images.
"""

from __future__ import annotations

from collections import Counter
from math import comb, prod

from .exactlinalg import (
    ExactMatrix,
    Subspace,
    commutant_dimension,
    dual_pair_dimensions,
    hstack,
    integer_echelon,
    intertwiner_dimension,
    matrix_algebra_dimension,
    sandwich_primes,
    vstack,
)
from .hecke import (
    HeckeElement,
    bipartition_element,
    bipartition_factors,
    braid_relations_hold,
    central_element,
    quadratic_roots,
)
from .rep import (
    SYMBOLIC,
    BudgetExceeded,
    PermutationModule,
    SpecializedBackend,
    central_candidate_eigenvalues,
    coideal_generators,
    eigenvalue_multiplicities,
    embed_factors,
    generator_matrix,
    k_block,
    r_block,
    rho,
    rho_basis,
    tensor_tuples,
)
from .scalars import Specialization
from .weylcomb import (
    bipartitions,
    block_flip,
    block_transposition,
    dominant_tuples,
    semistandard_bitableaux_count,
    stabilizer_parabolic,
    standard_bitableaux_count,
)

PM_KINDS = ("s_plus", "s_minus", "wedge_plus", "wedge_minus")

SYMBOLIC_BUDGET = 125
SPECIALIZED_BUDGET = 400
# largest rank of the Hecke algebra in which a command multiplies out Hecke
# elements, work that n^d does not bound (at n = 1 it bounds nothing): rank d
# for hecke-relations, jucys-murphy, spectra and eigen, d + e for cylinder,
# max(d, 2e) for rk-equations, d * e for e-hecke.  At the cap jucys-murphy
# takes 1.2 s, cylinder 0.6 s at d = e = 8, and eigen ~1 s at n = 1 (2-vCPU
# Xeon)
ALGEBRA_MAX_RANK = 16
# the same for the ledger (decompose, schur), which multiplies out
# bipartition elements or their factors
LEDGER_MAX_RANK = 4
# largest n**d at which the centralizer command cross-checks the orbit route
# against the full commutant, whose Sylvester system has n**(2d) columns
COMMUTANT_MAX_DIM = 30
# the double-centralizer suite solves Sylvester systems in N^2 = n^(2d)
# unknowns and closes algebras inside the N^2-dimensional matrix space; its
# cost also grows with d through the dimension of the Hecke algebra, so it
# caps the width N^2 and the rank d, per backend (keyed by bk.is_symbolic;
# at n = 1, where every system is 1 x 1, the rank at ALGEBRA_MAX_RANK).
# From a sweep of every (n, d) the tensor budgets accept (Q=2, q=3 and
# symbolic, 2-vCPU Xeon): the slowest accepted input is n 3, d 3 symbolic
# (~12 s); at the point n 2, d 5 (N^2 = 1,024) and n 3, d 4 took over 30 s,
# and symbolically n 2, d 4 took 22 s and n 6, d 2 (N^2 = 1,296) 19 s
SYLVESTER_MAX_WIDTH = {True: 1024, False: 4096}
DOUBLE_CENTRALIZER_MAX_RANK = {True: 3, False: 4}
# the spectra suite and the eigen command take minimal polynomials of the
# d Jucys-Murphy matrices and c_K, N x N with N = n^d, whose degrees grow with
# d; they cap N * d.  In the same sweep the slowest accepted input took ~3 s
# (n 2, d 6); n 4, d 4 (N d = 1,024) took 19 s, n 2, d 8 over 30 s
SPECTRA_MAX_WIDTH = 800
# Their Krylov powers grow with the height h = b_Q + d b_q of the point (b_x
# the bit length of x) and with the eigenvalue count, which grows with n up
# to n = 2d: they cap min(n, 2d) N d^3 h, which holds verify all n 3, d 3 at
# Q = 2^1024 - 1, q = 3.  In a sweep of every (n, d) at the largest h it
# takes (as Q, then q) the slowest took 17 s (n 2, d 6 at b_Q = 69)
SPECTRA_MAX_HEIGHT = 3 * 27 * 3**3 * (1024 + 3 * 2)
# the largest bit length of a numerator or denominator of Q and q at a point,
# checked first: entries grow with the height of the point, and at
# Q = 10^1000000 even dims --n 2 --d 2 ran over 60 s.  It holds 10^300 (997
# bits).  In a sweep at 2^1024 - 1 (as Q, then q) every row but spectra took
# at most 6.5 s (verify all n 3, d 3, e 1); spectra, which grows faster with
# height, takes SPECTRA_MAX_HEIGHT
POINT_MAX_BITS = 1024
# the rk-equations suite checks Yang-Baxter on three cables of width e, on
# V_n^{(x) 3e}, which the tensor budgets on n^d and n^(2e) do not bound: at
# n 2, e 4 (V^{(x) 12}) it took 12 s at Q = 2, q = 3 and 25 s at
# Q = 2^1024 - 1, q = 3, while every other accepted (n, e) took at most 2.4 s
# (2-vCPU Xeon).  It caps e at n >= 2; at n = 1 every block is 1 x 1
YANG_BAXTER_MAX_CABLE = 3


def check_budget(n, d, bk):
    cap = SYMBOLIC_BUDGET if bk.is_symbolic else SPECIALIZED_BUDGET
    if n > 1 and d > 1000:
        # far over any cap, and n**d is too long to build or print
        dim = "%d^%d" % (n, d)
    elif n**d > cap:
        dim = "%d" % n**d
    else:
        return
    raise BudgetExceeded(
        "tensor space dimension %s exceeds the %s budget %d"
        % (dim, "symbolic" if bk.is_symbolic else "specialized", cap)
    )


def check_cap(what, size, cap, budget):
    if size > cap:
        raise BudgetExceeded("%s %d exceeds the %s budget %d" % (what, size, budget, cap))


def check_rank(d, cap=ALGEBRA_MAX_RANK, budget="Hecke algebra"):
    check_cap("Hecke rank", d, cap, budget)


def _kind_signs(kind):
    if kind not in PM_KINDS:
        raise ValueError("unknown signed power kind %r" % (kind,))
    k_pos = kind.endswith("plus")
    r_pos = kind.startswith("s")
    return k_pos, r_pos


def _pm_relation_ops(kind, n, d, bk):
    """The relation operators whose images are divided out (equivalently whose
    kernels are intersected) for a signed power: T_i minus its class in the
    module table, the root 1/x (hecke.quadratic_roots) on a plus side and -x
    on a minus side."""
    k_pos, r_pos = _kind_signs(kind)
    ident = ExactMatrix.identity(n**d, bk.one)
    return [
        generator_matrix(n, d, i, bk) - ident.scale(bk.of(quadratic_roots(i)[0 if pos else 1]))
        for i, pos in enumerate([k_pos] + [r_pos] * (d - 1))
    ]


def pm_power_dimension(kind, n, d, bk=SYMBOLIC, flavour="quotient"):
    """Dimension of a signed power, as a quotient or as a kernel subspace."""
    ops = _pm_relation_ops(kind, n, d, bk)
    N = n**d
    if flavour == "quotient":
        return N - hstack(ops).rank()
    if flavour == "kernel":
        return vstack(ops).nullity()
    raise ValueError("flavour must be 'quotient' or 'kernel'")


def expected_pm_dimension(kind, n, d):
    """The closed-form dimensions of the signed powers."""
    r = n // 2
    k_pos, r_pos = _kind_signs(kind)
    if r_pos:  # symmetric flavours
        if n % 2 == 0:
            return comb(r + d - 1, d)
        return comb(r + d, d) if k_pos else comb(r + d - 1, d)
    if n % 2 == 0:
        return comb(r, d)
    return comb(r + 1, d) if k_pos else comb(r, d)


# ---------------------------------------------------------------------------
# Schur algebra dimension


def schur_algebra_dimension_commutant(n, d, bk=SYMBOLIC):
    """dim of the full centralizer of the Hecke action, by the Sylvester
    kernel over all generators at once."""
    gens = [generator_matrix(n, d, i, bk) for i in range(d)]
    return commutant_dimension(gens)


def schur_algebra_dimension_orbit(n, d, bk=SYMBOLIC):
    """The same dimension orbit by orbit: sum over pairs of dominant tuples of
    dim Hom(V(a), V(b)), each Hom being the simultaneous eigenspace of the
    parabolic character T_i -> 1/x (hecke.quadratic_roots) of a inside the
    permutation module of b.

    That eigenspace depends only on the stabilizers J of a and J' of b
    (weylcomb.stabilizer_parabolic), so it is taken once per (J, J') and
    counted with the number of pairs on that key.  This is exact.  J' tells
    which neighbours of b are equal (i >= 1 in J') and, as the zeros of a
    dominant tuple form a prefix, which entries are 0: those up to the end
    of the run 0, 1, 2, ... in J'.  So two dominant tuples of one (n, d) with
    one stabilizer differ by an odd, strictly increasing relabelling of the
    values (0 to 0, positive to positive), which preserves the sorted order
    of the orbit's tuples and the relations x == 0, x < 0, x == y and x > y,
    the only ones rep.action_matrix_on reads; so both permutation modules
    have the same generator matrices."""
    stabilizers = Counter()
    reps = {}
    for a in dominant_tuples(n, d):
        J = stabilizer_parabolic(a)
        stabilizers[J] += 1
        reps.setdefault(J, a)
    chars = [bk.of(quadratic_roots(i)[0]) for i in range(d)]
    total = 0
    for Jb, count_b in stabilizers.items():
        pm = PermutationModule(n, reps[Jb], bk)
        ident = ExactMatrix.identity(pm.dim, bk.one)
        for J, count_a in stabilizers.items():
            if J:
                hom = vstack([pm.generator(i) - ident.scale(chars[i]) for i in J]).nullity()
            else:
                hom = pm.dim
            total += count_a * count_b * hom
    return total


# ---------------------------------------------------------------------------
# Schur functors and the Schur-Weyl ledger


def schur_functor_subspace(shape, n, bk=SYMBOLIC) -> Subspace:
    """Image of rho(e'_{lam,mu}) inside V_n^{(x) d} (the element route); at a
    point rho sums e' over Z and the column space is cut back over Z."""
    return rho(bipartition_element(shape), n, bk).column_space()


def product_images(factor_lists, n, bk=SYMBOLIC):
    """For each list f_1, ..., f_k of Hecke elements of one rank d, a matrix
    whose columns are a basis of the image of rho(f_1 ... f_k) inside
    V_n^{(x) d}: its width is the dimension of the image.

    rho is an anti-homomorphism, so the image is the column space of
    rho(f_k) ... rho(f_1).  The basis starts as rho(f_1) and is replaced by
    the sparse product rho(f) * basis at each later factor.  A multiple of
    one T_w is invertible and keeps the columns independent, unless its
    coefficient vanishes at the point; after any other factor the basis is
    cut back, symbolically to the canonical basis of a Subspace.  At a point
    the chain runs over Z: each factor is the integral twin's L rho(f),
    L > 0, which has the same image (proof in rep.rho), and the cut-back is
    exactlinalg.integer_echelon.

    The generator holds the path of the previous list as (factor, basis
    after it) pairs, None for the identity basis, and multiplies only past
    the longest common prefix: the ten bipartitions of 3 have 52
    non-identity factors but 30 distinct prefix products, and rep.rho is
    cached, so each distinct factor matrix is built once per process."""
    if bk.is_symbolic:
        cut = lambda m: m.column_space().basis()
    else:
        bk, cut = bk.integral, lambda m: integer_echelon(m.columns())
    chain = []
    for factors in factor_lists:
        k = 0
        for (g, _), f in zip(chain, factors):
            if g != f:
                break
            k += 1
        del chain[k:]
        N, one = n ** factors[0].d, HeckeElement.one(factors[0].d)
        basis = chain[-1][1] if chain else None
        for f in factors[k:]:
            if f != one:
                m = rho(f, n, bk)
                basis = m if basis is None else m * basis
                if f.support_size() != 1 or m.is_zero():
                    basis = ExactMatrix.from_columns(N, cut(basis), bk.one)
            chain.append((f, basis))
        yield ExactMatrix.identity(N, bk.one) if basis is None else basis


def schur_functor_diagram_subspace(shape, n, bk=SYMBOLIC) -> Subspace:
    """The same space built factor by factor, not from one algebra product:
    the product_images basis of hecke.bipartition_factors(shape), each factor
    matrix built once per process (rep.rho is cached)."""
    (basis,) = product_images([bipartition_factors(shape)], n, bk)
    return basis.column_space()


def schur_weyl_decompose(n, d, bk=SYMBOLIC):
    """The full decomposition ledger of V_n^{(x) d}.

    Returns a dict with one row per bipartition of d carrying the computed
    Schur functor dimension (dimL), the closed-form semistandard count, and
    the standard bitableaux count (dimM), together with the two global checks
    sum(dimL * dimM) = n^d and sum(dimL^2) = dim of the Schur algebra.
    """
    check_budget(n, d, bk)
    shapes = bipartitions(d)
    bases = product_images([bipartition_factors(s) for s in shapes], n, bk)
    rows = []
    for shape, basis in zip(shapes, bases):
        rows.append(
            {
                "shape": shape,
                "dimL": basis.ncols,
                "dimL_formula": semistandard_bitableaux_count(shape, n),
                "dimM": standard_bitableaux_count(shape),
            }
        )
    sum_ld = sum(r["dimL"] * r["dimM"] for r in rows)
    sum_l2 = sum(r["dimL"] ** 2 for r in rows)
    schur_dim = schur_algebra_dimension_orbit(n, d, bk)
    return {
        "n": n,
        "d": d,
        "rows": rows,
        "sum_dimL_dimM": sum_ld,
        "tensor_dim": n**d,
        "sum_dimL_sq": sum_l2,
        "schur_algebra_dim": schur_dim,
        "pass": sum_ld == n**d
        and sum_l2 == schur_dim
        and all(r["dimL"] == r["dimL_formula"] for r in rows),
    }


# ---------------------------------------------------------------------------
# intertwiners and irreducibility


def restrict_to_subspace(g: ExactMatrix, sub: Subspace) -> ExactMatrix:
    """Matrix of g on an invariant subspace, in the echelon basis."""
    cols = []
    for v in sub.basis():
        coords = sub.coordinates(g.apply(v))
        if coords is None:
            raise ValueError("subspace is not invariant")
        cols.append(coords)
    return ExactMatrix.from_columns(sub.dim, cols, g.one)


def irreducibility_report(n, d, bk, shapes=None):
    """Pairwise intertwiner dimensions between Schur functor images under the
    centralizing coideal action: 1 on the diagonal and 0 off it certifies the
    pieces are pairwise non-isomorphic irreducibles."""
    if shapes is None:
        shapes = [s for s in bipartitions(d) if semistandard_bitableaux_count(s, n)]
    coideal = list(coideal_generators(n, d, bk).values())
    restricted = {}
    bases = product_images([bipartition_factors(s) for s in shapes], n, bk)
    for s, basis in zip(shapes, bases):
        sub = basis.column_space()
        restricted[s] = [restrict_to_subspace(g, sub) for g in coideal]
    report = {}
    for s1 in shapes:
        for s2 in shapes:
            report[(s1, s2)] = intertwiner_dimension(restricted[s1], restricted[s2])
    return report


def verify_double_centralizer(n, d, bk):
    """Both centralizer dimensions of the dual pair on V_n^{(x) d}:
    the commutant of the Hecke action and the commutant of the coideal
    action, each computed from the generating matrices.

    At a point all four dimensions come from one sandwich certificate (proof
    in exactlinalg.dual_pair_dimensions), the Hecke side offered the dominant
    rows, one per W-orbit, at the first primes below 2^30 where Q, q are
    units and [k]_{q^2} != 0 for k <= d.  Otherwise, and symbolically, each
    dimension is computed on its own."""
    hecke_gens = [generator_matrix(n, d, i, bk) for i in range(d)]
    # at n = 1 there is no coideal generator; the identity generates the same
    # unital algebra and has the same commutant
    coideal = list(coideal_generators(n, d, bk).values()) or [ExactMatrix.identity(n**d, bk.one)]
    dims = None
    if not bk.is_symbolic:
        (c, e), (a, b) = (x.as_integer_ratio() for x in (bk.spec.valueQ, bk.spec.valueq))
        bad = c * e * a * b * prod(a**k - b**k for k in range(2, 2 * d + 1, 2))
        dominant = list(map(tensor_tuples(n, d)[1].get, dominant_tuples(n, d)))
        primes = sandwich_primes(lambda p: bad % p)
        dims = dual_pair_dimensions(coideal, hecke_gens, primes, dominant)
    dims = dims or (
        matrix_algebra_dimension(coideal),
        commutant_dimension(coideal),
        matrix_algebra_dimension(hecke_gens),
        commutant_dimension(hecke_gens),
    )
    coideal_alg_dim, hecke_commutant_of_coideal, hecke_alg_dim, schur_dim = dims
    return {
        "schur_dim": schur_dim,
        "coideal_algebra_dim": coideal_alg_dim,
        "hecke_algebra_dim": hecke_alg_dim,
        "commutant_of_coideal": hecke_commutant_of_coideal,
        "double_centralizer": schur_dim == coideal_alg_dim
        and hecke_alg_dim == hecke_commutant_of_coideal,
    }


# ---------------------------------------------------------------------------
# the e-cabled generators


def e_hecke_generators(n, d, e, bk=SYMBOLIC):
    """Matrices of T_{w_0}, T_{w_1}, ..., T_{w_{d-1}} on V_n^{(x) de}: the
    cabled K on the first e strands and the e-block transpositions."""
    dd = d * e
    gens = [rho_basis(n, dd, block_flip(e, d), bk)]
    for i in range(1, d):
        gens.append(rho_basis(n, dd, block_transposition(i, e, d), bk))
    return gens


def verify_e_hecke(n, d, e, bk=SYMBOLIC):
    """The cabled generators agree with the inductive block R and K matrices,
    and satisfy the braid pattern of type B (hecke.braid_relations_hold);
    symbolically both over the blocks' ring (bk.laurent)."""
    gens = [bk.laurent(g) for g in e_hecke_generators(n, d, e, bk)]
    ok = gens[0] == embed_factors(k_block(e, n, bk), n, 0, (d - 1) * e)
    for i in range(1, d):
        blk = embed_factors(r_block(e, e, n, bk), n, (i - 1) * e, (d - i - 1) * e)
        ok = ok and gens[i] == blk
    return ok and braid_relations_hold(gens)


def e_hecke_rank1_eigenvalue_count(n, e, s: Specialization):
    """Number of distinct eigenvalues of the cabled K on V_n^{(x) e}: the
    central candidates found in its minimal polynomial."""
    m = rho(central_element(e), n, SpecializedBackend(s))
    return len(eigenvalue_multiplicities(m, central_candidate_eigenvalues(e, s)))
