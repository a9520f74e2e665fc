"""End-to-end acceptance checks.

Each test covers one headline claim at desk scale, prints a single PASS/FAIL
line (visible with pytest -s or in captured output), and asserts it.  Checks
that exceed the symbolic budget run at the default exact rational point.
"""

from heckeb.cli import jm_spectra
from heckeb.exactlinalg import minimal_polynomial, poly_is_squarefree
from heckeb.hecke import (
    HeckeElement,
    braid_relations_hold,
    central_element,
    cylinder_identity_holds,
    jucys_murphy_commute,
)
from heckeb.rep import (
    SYMBOLIC,
    PermutationModule,
    SpecializedBackend,
    barv_map,
    generator_matrix,
    index_shift_matrix,
    k_block,
    rho,
    verify_k_against_center,
    verify_permutation_intertwiners,
    verify_rho_relations,
    verify_rk_equations,
)
from heckeb.scalars import RF_Q, RF_q, default_specialization
from heckeb.schur import (
    PM_KINDS,
    SYMBOLIC_BUDGET,
    e_hecke_rank1_eigenvalue_count,
    expected_pm_dimension,
    irreducibility_report,
    pm_power_dimension,
    schur_functor_diagram_subspace,
    schur_functor_subspace,
    schur_weyl_decompose,
    verify_double_centralizer,
)
from heckeb.weylcomb import (
    bipartitions,
    composition_to_index,
    dominant_representative,
    shift_center,
    shift_outward,
)

S = default_specialization()
SPEC = SpecializedBackend(S)


def backend_for(n, d):
    return SYMBOLIC if n**d <= SYMBOLIC_BUDGET else SPEC


def report(number, label, ok):
    print("ACCEPTANCE %2d %-38s %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (number, label)


def test_01_hecke_relations():
    ok = True
    for d in range(1, 5):
        t = [HeckeElement.generator(d, i) for i in range(d)]
        one = HeckeElement.one(d)
        for g, x in zip(t, [RF_Q] + [RF_q] * (d - 1)):
            ok = ok and (g + one.scale(x)) * (g - one.scale(x.inverse())) == HeckeElement(d)
        ok = ok and braid_relations_hold(t)
    for n in range(2, 6):
        for d in range(1, 4):
            ok = ok and verify_rho_relations(n, d, backend_for(n, d))
    report(1, "Hecke relations, abstract and on tensors", ok)


def test_02_jucys_murphy_commute():
    ok = all(jucys_murphy_commute(d) for d in range(1, 5))
    report(2, "Jucys-Murphy commute, c_K central", ok)


def test_03_spectra_classified():
    ok = True
    for n in range(2, 6):
        for d in range(1, 4):
            spectra = jm_spectra(n, d, SPEC)
            ok = ok and all(mults and set(mults.values()) == {1} for mults in spectra.values())
            # the gcd route: the minimal polynomial of c_K is squarefree
            mc = rho(central_element(d), n, SPEC)
            ok = ok and poly_is_squarefree(minimal_polynomial(mc))
    report(3, "JM and central spectra at (2, 3)", ok)


def test_04_braid_and_reflection():
    ok = True
    for n in (2, 3):
        for e in (1, 2):
            ok = ok and verify_rk_equations(n, e, SYMBOLIC)["all"]
    control = verify_rk_equations(3, 2, SYMBOLIC, sabotage_k=True)
    ok = ok and not control["k_quadratic"] and not control["k_consistency"]
    report(4, "Yang-Baxter and reflection equations", ok)


def test_05_cylinder_identity():
    ok = True
    for d in range(1, 4):
        for e in range(1, 5 - d):
            ok = ok and cylinder_identity_holds(d, e)
    for n in range(2, 5):
        for d in range(1, 4):
            bk = backend_for(n, d)
            ok = ok and verify_k_against_center(n, d, bk)
            ok = ok and k_block(d, n, bk) == rho(central_element(d), n, bk)
    report(5, "cylinder identity and cabled K", ok)


def test_06_signed_power_dimensions():
    ok = True
    for n in range(2, 8):
        for d in range(1, 4):
            bk = backend_for(n, d)
            for kind in PM_KINDS:
                expected = expected_pm_dimension(kind, n, d)
                ok = ok and pm_power_dimension(kind, n, d, bk, "quotient") == expected
                ok = ok and pm_power_dimension(kind, n, d, bk, "kernel") == expected
    report(6, "signed power dimensions are binomial", ok)


def test_07_decomposition_ledger():
    ok = True
    for n in (5, 7):
        for d in (1, 2, 3):
            if n < 2 * d:
                continue
            led = schur_weyl_decompose(n, d, backend_for(n, d))
            ok = ok and led["pass"]
            ok = ok and led["sum_dimL_dimM"] == n**d
            ok = ok and led["sum_dimL_sq"] == led["schur_algebra_dim"]
    report(7, "Schur-Weyl decomposition ledger", ok)


def test_08_irreducibility():
    rep = irreducibility_report(5, 2, SYMBOLIC)
    ok = all(dim == (1 if s1 == s2 else 0) for (s1, s2), dim in rep.items())
    report(8, "functor images pairwise distinct irreducible", ok)


def test_09_schur_functor_routes_agree():
    ok = True
    for shape in bipartitions(2):
        ok = ok and schur_functor_subspace(shape, 5, SYMBOLIC) == schur_functor_diagram_subspace(
            shape, 5, SYMBOLIC
        )
    report(9, "Schur functor: element vs diagram route", ok)


def test_10_permutation_module_intertwiners():
    ok = True
    # outward shift: composition (2, 1, 2) over three indices grows to
    # (2, 0, 1, 0, 2) over five by inserting a pair of zero parts
    src = composition_to_index((2, 1, 2), 3)
    tgt = composition_to_index((2, 0, 1, 0, 2), 5)
    ok = ok and tuple(shift_outward(v, 2) for v in src) == tgt
    pm = PermutationModule(3, dominant_representative(src), SYMBOLIC)
    psi = index_shift_matrix(pm, lambda v: shift_outward(v, 2), 5)
    for i in range(pm.d):
        ok = ok and psi * pm.generator(i) == generator_matrix(5, pm.d, i, SYMBOLIC) * psi
    # center shift: even to odd
    pm2 = PermutationModule(2, (1, 1), SYMBOLIC)
    psi2 = index_shift_matrix(pm2, shift_center, 3)
    for i in range(pm2.d):
        ok = ok and psi2 * pm2.generator(i) == generator_matrix(3, pm2.d, i, SYMBOLIC) * psi2
    # half shift into the even space one dimension up
    for a in ((0,), (2,), (0, 0), (0, 2), (2, 2)):
        phi = barv_map(a, 3, SYMBOLIC)
        pma = PermutationModule(3, a, SYMBOLIC)
        ok = ok and phi.rank() == pma.dim
        for i in range(pma.d):
            ok = ok and phi * pma.generator(i) == generator_matrix(4, pma.d, i, SYMBOLIC) * phi
    # the CLI check at the odd sizes it accepts
    for n, d in ((3, 1), (3, 2), (5, 2)):
        ok = ok and verify_permutation_intertwiners(n, d, SYMBOLIC)
    report(10, "index shift and half shift intertwiners", ok)


def test_11_double_centralizer():
    ok = True
    for d, expected in ((1, 5), (2, 15)):
        rep = verify_double_centralizer(3, d, SYMBOLIC)
        ok = ok and rep["double_centralizer"]
        ok = ok and rep["schur_dim"] == expected
        ok = ok and rep["coideal_algebra_dim"] == expected
    report(11, "double centralizer at n = 3", ok)


def test_12_cabled_eigenvalue_counts():
    got = [e_hecke_rank1_eigenvalue_count(n, 2, S) for n in (2, 3, 4, 5)]
    ok = got == [3, 4, 5, 5]
    report(12, "cabled K eigenvalue counts (width 2)", ok)
