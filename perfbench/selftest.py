"""Self-test of the benchmark itself.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

Checks, in about a minute on two cores:

* a deliberately wrong reference digest is reported as a failed run
  (``correct`` false, every attempt failed), never as a fast one;
* the tracer rebinds every heckeb name that refers to a wrapped function,
  including names imported from another module (``cli.rho``);
* one traced run per workload reports every per-layer metric listed in
  ``BENCHMARK.json``, records a nonzero value for each metric the workload
  exercises, finds the expected dominant layer, and its layer self times
  account for at least 90% of the traced wall time.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import types

import run
import tracer

# metrics each workload must record as nonzero; together they cover every
# per-layer metric except trace.overhead_s, which may be of either sign
EXERCISED = {
    "rk-symbolic": (
        "scalars.canonicalize.count",
        "scalars.canonicalize.self_s",
        "scalars.monomial_den_frac",
        "scalars.poly_gcd.count",
        "scalars.poly_gcd.self_s",
        "exactlinalg.matmul.count",
        "exactlinalg.matmul.self_s",
        "exactlinalg.matmul.nnz_out",
        "exactlinalg.kron.self_s",
        "rep.rk_blocks.self_s",
    ),
    "ledger-symbolic": (
        "scalars.poly_gcd.nontrivial_frac",
        "exactlinalg.echelon.count",
        "exactlinalg.echelon.self_s",
        "exactlinalg.echelon.cells",
        "exactlinalg.echelon.pivots",
        "exactlinalg.insert.count",
        "exactlinalg.insert.self_s",
        "exactlinalg.insert.grew_frac",
        "schur.self_s",
        "schur.functor.count",
    ),
    "ledger-specialized": (
        "scalars.specialize.count",
        "exactlinalg.matadd.count",
        "exactlinalg.matadd.self_s",
        "exactlinalg.scale.self_s",
        "weylcomb.reduced_word.count",
        "hecke.mul.count",
        "hecke.mul.support_out",
        "rep.rho.count",
        "rep.rho.support_total",
        "rep.rho_basis.count",
        "rep.rho_basis.distinct",
        "schur.functor.count",
    ),
    "verify-specialized": (
        "exactlinalg.minpoly.self_s",
        "exactlinalg.insert.count",
        "rep.coideal.self_s",
        "rep.eigen.self_s",
    ),
}
EVERYWHERE = tuple(layer + ".self_s" for layer in tracer.LAYERS if layer != "schur") + ("trace.coverage_frac",)
DOMINANT = {
    "rk-symbolic": "scalars",
    "ledger-symbolic": "scalars",
    "ledger-specialized": "exactlinalg",
    "verify-specialized": "exactlinalg",
}
MIN_COVERAGE = 0.9


def quiet(_line):
    pass


def check_wrong_reference():
    result = run.bench("verify-specialized", 0, 1, 0, reference="0" * 64, log=quiet)
    ok = result["correct"] is False and result["failed"] == result["attempted"] >= 1
    return ok, "wrong reference: %d of %d runs failed, correct=%s" % (
        result["failed"], result["attempted"], result["correct"])


def check_bindings():
    sys.path.insert(0, str(run.SRC))
    mods = tracer.install(tracer.Tracer())
    missed = []
    for name, mod in mods.items():
        for attr, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith("heckeb."):
                layer = obj.__module__.split(".", 1)[1]
                wanted = tracer._wanted(attr) or attr in tracer.EXTRA.get(layer, ())
                if wanted and not hasattr(obj, "__perfbench_original__"):
                    missed.append("%s.%s" % (name, attr))
    same = mods["cli"].rho is mods["rep"].rho is mods["schur"].rho
    ok = not missed and same and hasattr(mods["cli"].rho, "__perfbench_original__")
    return ok, "bindings: %d unwrapped names %s; cli.rho is rep.rho: %s" % (len(missed), missed[:5], same)


def check_traced(workload, per_layer):
    result = run.bench(workload, 0, 1, 1, log=quiet)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    problems = []
    if not result["correct"]:
        problems.append("run failed")
    missing = sorted(set(per_layer) - set(metrics))
    extra = sorted(set(metrics) - set(per_layer))
    if missing or extra:
        problems.append("missing %s, unlisted %s" % (missing, extra))
    for name in EXERCISED[workload] + EVERYWHERE:
        if not metrics.get(name, 0) > 0:
            problems.append("%s not recorded" % name)
    selfs = {layer: metrics.get(layer + ".self_s", 0) for layer in tracer.LAYERS}
    top = max(selfs, key=selfs.get)
    if top != DOMINANT[workload]:
        problems.append("dominant layer %s, expected %s" % (top, DOMINANT[workload]))
    if metrics.get("trace.coverage_frac", 0) < MIN_COVERAGE:
        problems.append("layer self times cover %.1f%% of traced wall" % (100 * metrics.get("trace.coverage_frac", 0)))
    if workload == "rk-symbolic" and metrics.get("scalars.poly_gcd.nontrivial_frac") != 0:
        problems.append("rk-symbolic has nontrivial gcds")
    share = selfs[top] / sum(selfs.values()) if sum(selfs.values()) else 0.0
    return not problems, "%s: dominant %s (%.0f%%), coverage %.1f%% %s" % (
        workload, top, 100 * share, 100 * metrics.get("trace.coverage_frac", 0), "; ".join(problems))


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    covered = set(EVERYWHERE).union(*EXERCISED.values()) | {"trace.overhead_s"}
    checks = [(set(per_layer) == covered, "self-test covers every per-layer metric: %s" % sorted(set(per_layer) ^ covered))]
    checks.append(check_wrong_reference())
    checks.append(check_bindings())
    for workload in EXERCISED:
        checks.append(check_traced(workload, per_layer))
    for ok, line in checks:
        print("%s %s" % ("PASS" if ok else "FAIL", line))
    return 0 if all(ok for ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
