"""
Command line interface.

Subcommands:

  verify      run a named verification suite (relations, spectra, braid and
              reflection equations, cylinder identity, permutation-module
              intertwiners, double centralizer, cabled generators)
  dims        the eight signed-power dimensions (quotient and kernel flavours)
  decompose   the full Schur-Weyl decomposition ledger
  schur       the Schur functor of one bipartition
  eigen       Jucys-Murphy and central-element spectra at a rational point
  centralizer Schur algebra dimensions by independent methods

Backends: --backend symbolic (exact rational functions) or --backend
"Q=<rat>,q=<rat>" (exact rational specialization).  Exit status is 0 when all
requested checks pass, 1 when a check fails, 2 on usage or budget errors.

Each verify suite and each other command is one row of a table (SUITES,
COMMANDS) that states what it refuses, the tensor spaces it builds, the rank
of the Hecke algebra it works in and what it runs.  main reads the rows in
that order: refusals, every budget (tensor spaces, Hecke ranks and the caps
of the double-centralizer and spectra rows), the point checked up to that
rank, then the work.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .rep import (
    SYMBOLIC,
    BudgetExceeded,
    SpecializedBackend,
    UnclassifiedEigenvalue,
    central_candidate_eigenvalues,
    eigenvalue_multiplicities,
    jm_candidate_eigenvalues,
    rho,
    verify_coideal_commutation,
    verify_k_against_center,
    verify_permutation_intertwiners,
    verify_rho_relations,
    verify_rk_equations,
)
from .hecke import central_element, cylinder_identity_holds, jucys_murphy, jucys_murphy_commute
from .scalars import InvalidSpecialization, Specialization
from .schur import (
    ALGEBRA_MAX_RANK,
    COMMUTANT_MAX_DIM,
    DOUBLE_CENTRALIZER_MAX_RANK,
    LEDGER_MAX_RANK,
    PM_KINDS,
    POINT_MAX_BITS,
    SPECTRA_MAX_HEIGHT,
    SPECTRA_MAX_WIDTH,
    SYLVESTER_MAX_WIDTH,
    YANG_BAXTER_MAX_CABLE,
    check_budget,
    check_cap,
    check_rank,
    expected_pm_dimension,
    pm_power_dimension,
    schur_algebra_dimension_commutant,
    schur_algebra_dimension_orbit,
    schur_functor_diagram_subspace,
    schur_functor_subspace,
    schur_weyl_decompose,
    verify_double_centralizer,
    verify_e_hecke,
)
from .weylcomb import semistandard_bitableaux_count, standard_bitableaux_count

class UsageError(Exception):
    pass


def parse_backend(text, degree=6):
    """The backend named by text, with a specialization point checked to be
    valid up to the given degree."""
    if text == "symbolic":
        return SYMBOLIC
    items = [p.split("=", 1) for p in text.split(",")]
    parts = dict(p for p in items if len(p) == 2)
    if len(items) != 2 or set(parts) != {"Q", "q"}:
        raise UsageError("backend must be 'symbolic' or 'Q=<rat>,q=<rat>'")
    try:
        spec = Specialization(point_value("Q", parts["Q"]), point_value("q", parts["q"]), degree)
    except (ValueError, ZeroDivisionError, InvalidSpecialization) as exc:
        raise UsageError("invalid specialization: %s" % exc)
    return SpecializedBackend(spec)


# the decimal exponent of a value as Fraction reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def point_value(name, text):
    """The value of Q or q, within the point height budget.  A decimal
    exponent e over the budget is refused before Fraction builds 10^|e|,
    which has over 3|e| bits."""
    m = _EXPONENT.search(text)
    if m:
        check_cap("decimal exponent of " + name, abs(int(m.group(1))), POINT_MAX_BITS, "point height")
    v = Fraction(text)
    bits = max(v.numerator.bit_length(), v.denominator.bit_length())
    check_cap("bit length of " + name, bits, POINT_MAX_BITS, "point height")
    return v


def parse_shape(text):
    if "|" not in text:
        raise UsageError("shape must look like '2,1|1' (use '-' for an empty side)")
    left, right = text.split("|", 1)

    def side(s):
        s = s.strip()
        if s in ("", "-"):
            return ()
        try:
            parts = tuple(int(x) for x in s.split(","))
        except ValueError:
            raise UsageError("bad partition %r" % s)
        if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
            raise UsageError("partition parts must be positive and weakly decreasing")
        return parts

    return side(left), side(right)


def fmt_shape(shape):
    def side(p):
        return ",".join(str(x) for x in p) if p else "-"

    return "%s|%s" % (side(shape[0]), side(shape[1]))


# ---------------------------------------------------------------------------
# suites


def jm_spectra(n, d, bk):
    """{"K_1": mults, ..., "K_d": mults, "c_K": mults}: the eigenvalue
    multiplicities in the minimal polynomials of the Jucys-Murphy elements and
    of c_K on V_n^{(x) d}, at a specialized backend."""
    s = bk.spec
    out = {}
    for i in range(1, d + 1):
        m = rho(jucys_murphy(d, i), n, bk)
        out["K_%d" % i] = eigenvalue_multiplicities(m, jm_candidate_eigenvalues(i, s))
    mc = rho(central_element(d), n, bk)
    out["c_K"] = eigenvalue_multiplicities(mc, central_candidate_eigenvalues(d, s))
    return out


def semisimple(mults):
    """Whether one spectrum of jm_spectra is semisimple.  Its minimal
    polynomial splits over the candidates, so it is squarefree exactly when
    every multiplicity is 1."""
    return all(k == 1 for k in mults.values())


def all_semisimple(n, d, bk):
    """Whether every spectrum of jm_spectra is semisimple; False when an
    eigenvalue falls outside the candidates."""
    try:
        return all(map(semisimple, jm_spectra(n, d, bk).values()))
    except UnclassifiedEigenvalue:
        return False


# ---------------------------------------------------------------------------
# output handling


def emit(args, results, text, tsv, ok):
    """Write the report of a command: its text lines, its tsv rows, or the
    JSON document {tool, version, command, params, results, pass}, whose
    params are the command's own parsed arguments."""
    if args.output == "json":
        params = {k: v for k, v in vars(args).items() if k not in ("command", "output", "out")}
        doc = {
            "tool": "heckeb",
            "version": __version__,
            "command": args.command,
            "params": params,
            "results": results,
            "pass": bool(ok),
        }
        lines = [json.dumps(doc, indent=2, sort_keys=True, default=str)]
    elif args.output == "tsv":
        lines = ["\t".join(str(x) for x in row) for row in tsv]
    else:
        lines = text
    report = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)


# ---------------------------------------------------------------------------
# commands: each returns (results, text, tsv, ok), the JSON results object,
# the text lines, the tsv rows and whether every check passed


def cmd_verify(args, bk, rows):
    checks = {}
    for row in rows:
        checks.update(row.run(args, bk))
    ok = all(checks.values())
    tsv = [(k, "PASS" if v else "FAIL") for k, v in sorted(checks.items())]
    text = ["%s: %s" % row for row in tsv]
    text.append("overall: %s" % ("PASS" if ok else "FAIL"))
    return checks, text, tsv, ok


def cmd_dims(args, bk):
    rows = []
    ok = True
    for kind in PM_KINDS:
        exp = expected_pm_dimension(kind, args.n, args.d)
        for flavour in ("quotient", "kernel"):
            got = pm_power_dimension(kind, args.n, args.d, bk, flavour)
            ok = ok and got == exp
            rows.append((kind, flavour, got, exp))
    results = {
        "dims": {"%s_%s" % (k, f): g for k, f, g, _ in rows},
        "expected": {k: expected_pm_dimension(k, args.n, args.d) for k in PM_KINDS},
    }
    text = ["%s %s: %d (expected %d)" % r for r in rows]
    return results, text, rows, ok


def cmd_decompose(args, bk):
    led = schur_weyl_decompose(args.n, args.d, bk)
    rows = [dict(r, shape=fmt_shape(r["shape"])) for r in led["rows"]]
    text = [
        "%(shape)-12s dimL=%(dimL)-4d dimM=%(dimM)-4d (formula %(dimL_formula)d)" % r
        for r in rows
    ]
    text.append("sum dimL*dimM = %(sum_dimL_dimM)d (tensor dim %(tensor_dim)d)" % led)
    text.append("sum dimL^2 = %(sum_dimL_sq)d (Schur algebra dim %(schur_algebra_dim)d)" % led)
    tsv = [[r["shape"], r["dimL"], r["dimM"], r["dimL_formula"]] for r in rows]
    totals = ("sum_dimL_dimM", "tensor_dim", "sum_dimL_sq", "schur_algebra_dim")
    results = {k: led[k] for k in totals}
    results["rows"] = rows
    return results, text, tsv, led["pass"]


def cmd_schur(args, bk):
    shape = parse_shape(args.shape)
    sub = schur_functor_subspace(shape, args.n, bk)
    dia = schur_functor_diagram_subspace(shape, args.n, bk)
    formula = semistandard_bitableaux_count(shape, args.n)
    routes_equal = sub == dia
    ok = routes_equal and sub.dim == formula
    results = {
        "shape": fmt_shape(shape),
        "dim": sub.dim,
        "dim_formula": formula,
        "diagram_dim": dia.dim,
        "routes_equal": routes_equal,
        "dimM": standard_bitableaux_count(shape),
    }
    text = [
        "schur functor %s on V_%d: dim %d (formula %d)"
        % (fmt_shape(shape), args.n, sub.dim, formula),
        "diagram route dim %d, images %s" % (dia.dim, "equal" if routes_equal else "DIFFER"),
        "multiplicity space dim %d" % results["dimM"],
    ]
    tsv = [[fmt_shape(shape), sub.dim, formula, dia.dim, int(routes_equal)]]
    return results, text, tsv, ok


def cmd_eigen(args, bk):
    text = []
    tsv = []
    data = {}
    results = {"spectra": data}
    ok = True
    try:
        spectra = jm_spectra(args.n, args.d, bk)
    except UnclassifiedEigenvalue as exc:
        spectra, ok = {}, False
        results["unclassified"] = str(exc)
        text.append("spectra: FAIL (unclassified eigenvalue: %s)" % exc)
        tsv.append(["unclassified", str(exc)])
    for name, mults in spectra.items():
        simple = semisimple(mults)
        ok = ok and simple
        vals = sorted(mults)
        data[name] = {str(v): mults[v] for v in vals}
        text.append(
            "%s eigenvalues: %s%s"
            % (name, ", ".join(str(v) for v in vals), "" if simple else " (NOT semisimple)")
        )
        for v in vals:
            tsv.append([name, str(v), mults[v]])
    return results, text, tsv, ok


def cmd_centralizer(args, bk):
    orbit = schur_algebra_dimension_orbit(args.n, args.d, bk)
    results = {"orbit_method": orbit}
    text = ["Schur algebra dim (orbit method): %d" % orbit]
    ok = True
    if args.n ** args.d <= COMMUTANT_MAX_DIM:
        comm = schur_algebra_dimension_commutant(args.n, args.d, bk)
        results["commutant_method"] = comm
        text.append("Schur algebra dim (commutant method): %d" % comm)
        ok = comm == orbit
    return results, text, [[k, v] for k, v in sorted(results.items())], ok


# ---------------------------------------------------------------------------
# the table: one row per verify suite and per other command


class Row(NamedTuple):
    """What a suite or command runs.  Its callables take the parsed arguments a
    (and the backend bk) and reach the check functions through this module's
    globals, so that rebinding those names (monkeypatch, a tracer) reaches the
    table too."""

    run: Callable  # (a, bk) -> {check: bool} for a suite, (results, text, tsv, ok) for a command
    spaces: Callable = lambda a: [(a.n, a.d)]  # (base, exponent) of each tensor space built
    degree: Callable = lambda a: a.d  # rank of the Hecke algebra the point must be valid to
    # why it cannot run at all: a usage error when named alone, a skip in 'all'
    refusal: Callable = lambda a, bk: None
    # check_rank arguments (Hecke rank[, cap, budget]) of the elements it multiplies
    # out, which its tensor spaces do not bound (n^d = 1 at n = 1), rank 0 for none;
    # the ledger (decompose, schur) multiplies the factors of e', at the ledger cap
    rank: Callable = lambda a: (0,)
    # check_cap arguments (what, size, cap, budget) of each cost that grows
    # faster than its tensor spaces; taken after them, which keep each size
    # small enough to compute
    caps: Callable = lambda a, bk: ()


def shape_size(a):
    return sum(map(sum, parse_shape(a.shape)))


def spectra_caps(a, bk):
    """The spectra budget (spectra suite, eigen command): N * d over the d
    Jucys-Murphy matrices, N x N with N = n^d, and min(n, 2d) * N * d^3 * h
    at a point of height h = b_Q + d b_q, b_x the bit length of x
    (SPECTRA_MAX_HEIGHT)."""
    s = bk.spec
    bQ, bq = (max(map(int.bit_length, x.as_integer_ratio())) for x in (s.valueQ, s.valueq))
    cost = min(a.n, 2 * a.d) * a.n**a.d * a.d**3 * (bQ + a.d * bq)
    return [
        ("Jucys-Murphy width n^d * d", a.n**a.d * a.d, SPECTRA_MAX_WIDTH, "spectra"),
        ("Jucys-Murphy height min(n, 2d) * n^d * d^3 * h", cost, SPECTRA_MAX_HEIGHT, "spectra"),
    ]


def double_centralizer_caps(a, bk):
    """The double-centralizer budget, per backend: the Hecke rank d and the
    width N^2 = n^(2d) of its Sylvester systems.  At n = 1 every system is
    1 x 1, so the rank takes the Hecke algebra cap there."""
    sym = bk.is_symbolic
    rank_cap = DOUBLE_CENTRALIZER_MAX_RANK[sym] if a.n > 1 else ALGEBRA_MAX_RANK
    return [
        ("Hecke rank", a.d, rank_cap, "double-centralizer"),
        ("Sylvester width n^2d", a.n ** (2 * a.d), SYLVESTER_MAX_WIDTH[sym], "double-centralizer"),
    ]


def specialized_only(name):
    return lambda a, bk: "%s requires a specialized backend" % name if bk.is_symbolic else None


SUITES = {
    # the braid and commutation checks take O(d^2) products, which n^d = 1 at
    # n = 1 does not bound
    "hecke-relations": Row(
        lambda a, bk: {"rho_relations": verify_rho_relations(a.n, a.d, bk)},
        rank=lambda a: (a.d,),
    ),
    "jucys-murphy": Row(
        lambda a, bk: {"jucys_murphy_commute": jucys_murphy_commute(a.d)},
        spaces=lambda a: [],
        rank=lambda a: (a.d,),
    ),
    "spectra": Row(
        lambda a, bk: {"spectra": all_semisimple(a.n, a.d, bk)},
        refusal=specialized_only("spectra"),
        rank=lambda a: (a.d,),
        caps=spectra_caps,
    ),
    "rk-equations": Row(
        lambda a, bk: {
            "rk_equations": verify_rk_equations(a.n, a.e, bk)["all"],
            "rk_negative_control_fails": not verify_rk_equations(
                a.n, a.e, bk, sabotage_k=True
            )["k_consistency"],
            "k_matches_central_element": verify_k_against_center(a.n, a.d, bk),
        },
        # V^{(x) d} for the central element, V^{(x) 2e} for the R and K blocks
        spaces=lambda a: [(a.n, a.d), (a.n, 2 * a.e)],
        rank=lambda a: (max(a.d, 2 * a.e),),
        # Yang-Baxter on V^{(x) 3e}
        caps=lambda a, bk: [
            ("Yang-Baxter cable width e", a.e if a.n > 1 else 0, YANG_BAXTER_MAX_CABLE, "rk-equations")
        ],
    ),
    "cylinder": Row(
        lambda a, bk: {"cylinder_identity": cylinder_identity_holds(a.d, a.e)},
        spaces=lambda a: [],
        rank=lambda a: (a.d + a.e,),
    ),
    "permutation": Row(
        lambda a, bk: {"permutation_intertwiners": verify_permutation_intertwiners(a.n, a.d, bk)},
        spaces=lambda a: [(a.n + 2, a.d)],
        refusal=lambda a, bk: (
            "the permutation suite needs an odd n >= 3" if a.n % 2 == 0 or a.n < 3 else None
        ),
    ),
    "double-centralizer": Row(
        lambda a, bk: {
            "double_centralizer": verify_double_centralizer(a.n, a.d, bk)["double_centralizer"],
            "coideal_commutation": not verify_coideal_commutation(a.n, a.d, bk),
        },
        caps=double_centralizer_caps,
    ),
    "e-hecke": Row(
        lambda a, bk: {"e_hecke_consistency": verify_e_hecke(a.n, a.d, a.e, bk)},
        spaces=lambda a: [(a.n, a.d * a.e)],
        degree=lambda a: a.d * a.e,
        rank=lambda a: (a.d * a.e,),
    ),
}

COMMANDS = {
    # at n = 1, where n^d = 1 bounds no d, the Hecke rank d bounds dims and centralizer
    "dims": Row(lambda a, bk: cmd_dims(a, bk), rank=lambda a: (a.d,)),
    "decompose": Row(
        lambda a, bk: cmd_decompose(a, bk), rank=lambda a: (a.d, LEDGER_MAX_RANK, "ledger")
    ),
    "schur": Row(
        lambda a, bk: cmd_schur(a, bk),
        spaces=lambda a: [(a.n, shape_size(a))],
        degree=lambda a: shape_size(a),
        rank=lambda a: (shape_size(a), LEDGER_MAX_RANK, "ledger"),
        refusal=lambda a, bk: "a shape needs at least one box" if not shape_size(a) else None,
    ),
    "eigen": Row(
        lambda a, bk: cmd_eigen(a, bk),
        refusal=specialized_only("eigen"),
        rank=lambda a: (a.d,),
        caps=spectra_caps,
    ),
    "centralizer": Row(lambda a, bk: cmd_centralizer(a, bk), rank=lambda a: (a.d,)),
}


def plan(args, bk):
    """The rows a command runs: one, or for the 'all' suite every suite that
    does not refuse."""
    if args.command != "verify":
        row = COMMANDS[args.command]
    elif args.suite == "all":
        return [row for row in SUITES.values() if not row.refusal(args, bk)]
    else:
        row = SUITES[args.suite]
    reason = row.refusal(args, bk)
    if reason:
        raise UsageError(reason)
    return [row]


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line in one line on stderr, as every other
    usage error is, and exits 2."""

    def error(self, message):
        self.exit(2, "error: %s: %s (see '%s --help')\n" % (self.prog, message, self.prog))


def build_parser():
    p = _Parser(prog="heckeb", description=__doc__.splitlines()[1])
    p.add_argument("--version", action="version", version="heckeb %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_d=True):
        sp.add_argument(
            "--n", type=positive_int, required=True, help="dimension of the base space"
        )
        if need_d:
            sp.add_argument("--d", type=positive_int, required=True, help="tensor degree")
        sp.add_argument(
            "--backend",
            default="symbolic",
            help="'symbolic' or 'Q=<rat>,q=<rat>' (default: symbolic)",
        )
        sp.add_argument("--output", choices=("text", "tsv", "json"), default="text")
        sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=(*SUITES, "all"), required=True)
    sp.add_argument("--e", type=positive_int, default=1, help="cable width for block checks")
    common(sp)

    sp = sub.add_parser("dims", help="signed power dimensions")
    common(sp)

    sp = sub.add_parser("decompose", help="Schur-Weyl decomposition ledger")
    common(sp)

    sp = sub.add_parser("schur", help="Schur functor of a bipartition")
    sp.add_argument("--shape", required=True, help="bipartition, e.g. '2,1|1' or '2|-'")
    common(sp, need_d=False)

    sp = sub.add_parser("eigen", help="Jucys-Murphy spectra at a rational point")
    common(sp)

    sp = sub.add_parser("centralizer", help="Schur algebra dimension")
    common(sp)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value that starts with '-' for an option: join a shape
    # with an empty left side to its flag, '--shape -|4' to '--shape=-|4'
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] == "--shape" and "|" in argv[i]:
            argv[i - 1 : i + 1] = ["--shape=" + argv[i]]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bk = parse_backend(args.backend)
        rows = plan(args, bk)
        for row in rows:  # every budget before any work
            for base, exponent in row.spaces(args):
                check_budget(base, exponent, bk)
            check_rank(*row.rank(args))
            for cap in row.caps(args, bk):
                check_cap(*cap)
        degree = max(row.degree(args) for row in rows)
        if degree > 6:  # parse_backend checked the point up to degree 6
            bk = parse_backend(args.backend, degree)
        if args.command == "verify":
            results, text, tsv, ok = cmd_verify(args, bk, rows)
        else:
            results, text, tsv, ok = rows[0].run(args, bk)
    except (UsageError, BudgetExceeded) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    try:
        emit(args, results, text, tsv, ok)
    except OSError as exc:
        sys.stderr.write("error: cannot write %s: %s\n" % (args.out, exc.strerror))
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
