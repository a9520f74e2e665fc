"""End-to-end and per-layer benchmark of the heckeb CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``perfbench/workloads.json``.  Each timed sample is
one fresh ``python -m heckeb.cli ... --output json`` process, run alone, so
the module-level caches start empty exactly as they do for a user.  The loop
is closed with a single client: the next sample starts when the previous one
has been reaped.  Samples are taken until the ``--seconds`` window is used.

``--trace 0`` reports the end-to-end metrics (medians over the samples):

* ``wall_s``: wall time of one CLI run;
* ``cpu_s``: user + system time of that child, from ``os.wait4``;
* ``peak_rss_mb``: peak RSS of that child, from ``os.wait4``;
* ``setup_s``: a fresh interpreter that imports ``heckeb.cli``, parses the
  workload's backend and exits (median over several, run between samples).

The three times are given in reference seconds.  On a shared host each
virtual CPU switches, independently of the others, between speeds that differ
by up to 2x, for a second or for minutes; that moves every time alike, and no
statistic over one run removes it.  So the samples run on one CPU, and beside
them on that CPU ``perfbench/probe.py`` times a fixed slice of exact rational
arithmetic (the kind of work heckeb does) twenty times a second, taking 3-5%
of the CPU.  Each time is multiplied by ``PROBE_REF_S`` over the mean probe
cost during that sample: the time it would have taken at the speed at which
one probe iteration costs ``PROBE_REF_S``.  The raw seconds and the speed
factor of every sample are printed in the summary lines.

Specialized workloads cycle through every point of the fixed list, in an
order drawn from the seed, so that a median does not hang on one point.

``--trace 1`` alternates untraced samples with samples run under
``perfbench/tracer.py`` and reports per-layer self times and counters (medians
over the traced samples) plus ``trace.overhead_s``.

Every sample is checked: exit code 0, JSON ``pass`` true, and the SHA-256 of
the ``results`` object equal to the workload's reference.  A traced sample must
also print exactly the bytes its untraced twin printed.  The last line of
stdout is one JSON object ``{correct, attempted, failed, metrics}``; the lines
before it give provenance and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS, TRACE_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
PROBE = HERE / "probe.py"

# Set-up runs are interleaved with the CLI samples, a few after each, so
# that a burst of contention on the host lands on few of them.
SETUP_PER_SAMPLE = 5
MIN_SAMPLES = 3
# A sample is killed (and counted as failed) after this long, and no new
# sample starts after SAMPLE_CAP_S of measuring, so one invocation stays well
# inside three minutes even on a program several times slower than today's.
SAMPLE_TIMEOUT_S = 60.0
SAMPLE_CAP_S = 90.0
# Speed probe (perfbench/probe.py): one sample every PROBE_PERIOD_S on the
# measured CPU.  A time in reference seconds is what it would be at the speed
# at which one probe iteration costs PROBE_REF_S of CPU time.
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.001
MIN_PROBE_SAMPLES = 5

# per-layer metric -> how it is read from the tracer's report
LAYER_SPANS = {
    "rep.rk_blocks": (
        "rep.r_block",
        "rep.k_block",
        "rep.r_matrix",
        "rep.k_matrix",
        "rep.embed_factors",
        "rep.verify_rk_equations",
        "rep.verify_k_against_center",
    ),
    "rep.coideal": ("rep.coideal_generators", "rep.qg_iterated", "rep.verify_coideal_commutation"),
    "rep.eigen": (
        "rep.jm_candidate_eigenvalues",
        "rep.central_candidate_eigenvalues",
        "rep.eigenvalue_multiplicities",
        "rep.generalized_eigensplit",
    ),
    "scalars.canonicalize": ("scalars._canonicalize",),
    "scalars.poly_gcd": ("scalars.poly_gcd",),
    "scalars.specialize": ("scalars.specialize",),
    "exactlinalg.matmul": ("exactlinalg.ExactMatrix.__mul__",),
    "exactlinalg.matadd": ("exactlinalg.ExactMatrix.__add__",),
    "exactlinalg.scale": ("exactlinalg.ExactMatrix.scale",),
    "exactlinalg.kron": ("exactlinalg.ExactMatrix.kron",),
    "exactlinalg.echelon": ("exactlinalg.ExactMatrix.rank", "exactlinalg.ExactMatrix.kernel_basis"),
    "exactlinalg.insert": ("exactlinalg.Subspace.insert",),
    "exactlinalg.minpoly": ("exactlinalg.minimal_polynomial",),
    "weylcomb.reduced_word": ("weylcomb.SignedPermutation.reduced_word",),
    "hecke.mul": ("hecke.HeckeElement.__mul__",),
    "rep.rho": ("rep.rho",),
    "rep.rho_basis": ("rep.rho_basis",),
    "schur.functor": ("schur.schur_functor_subspace", "schur.schur_functor_diagram_subspace"),
}


class BenchError(Exception):
    """The benchmark cannot run here (bad arguments or no program)."""


def load_spec():
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)


def pick_backends(workload, seed, spec):
    """The CLI backends in the order the samples cycle through them.

    Symbolic workloads have one.  A specialized workload runs at every point of
    the fixed list, in an order drawn from the seed, so that its median does not
    hang on which point one seed happens to draw.
    """
    if workload["backend"] == "symbolic":
        return ["symbolic"]
    points = list(spec["points"])
    random.Random(seed).shuffle(points)
    return points


def results_digest(doc):
    blob = json.dumps(doc["results"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- running one child -------------------------------------------------------


def child_env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_child(argv, env, timeout=SAMPLE_TIMEOUT_S):
    """Run argv to completion; returns a dict with wall, cpu, rss and output.

    The child is reaped with os.wait4, so cpu and peak RSS are its own, not
    the running maximum over all children that RUSAGE_CHILDREN reports.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "stdout": out,
        "stderr": err[0].decode(errors="replace") if err else "",
    }


def cli_argv(workload, backend):
    return [sys.executable, "-m", "heckeb.cli", *workload["argv"], "--backend", backend, "--output", "json"]


def check_sample(sample, reference):
    """Why this CLI sample is wrong, or None if it is right."""
    if sample["code"] != 0:
        return "exit code %d: %s" % (sample["code"], sample["stderr"].strip()[-300:])
    try:
        doc = json.loads(sample["stdout"])
    except ValueError:
        return "stdout is not JSON"
    if doc.get("pass") is not True:
        return "JSON pass is not true"
    if "results" not in doc:
        return "JSON has no results object"
    digest = results_digest(doc)
    if digest != reference:
        return "results digest %s differs from the reference %s" % (digest, reference)
    return None


def setup_argv(backend):
    """A fresh interpreter that imports the CLI, parses the backend and exits."""
    code = "import sys, heckeb.cli as c; c.parse_backend(sys.argv[1])"
    return [sys.executable, "-c", code, backend]


def measure_setup(argv, env, repeats):
    walls = []
    for _ in range(repeats):
        s = run_child(argv, env)
        if s["code"] != 0:
            raise BenchError("cannot import heckeb.cli from %s: %s" % (SRC, s["stderr"].strip()))
        walls.append(s["wall_s"])
    return walls


# -- speed probe -------------------------------------------------------------


class SpeedProbe:
    """perfbench/probe.py on the measured CPU, sampling its speed as it goes."""

    def __init__(self, cpu):
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE), str(cpu), str(PROBE_PERIOD_S)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples = []
        self.reader = threading.Thread(target=self._read)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            t, cost = line.split()
            self.samples.append((float(t), float(cost)))

    def close(self):
        """Stop the probe and wait for it; safe to call twice."""
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()

    def factor(self, t0, t1):
        """PROBE_REF_S over the mean probe cost from t0 to t1 (CLOCK_MONOTONIC).

        The mean of samples taken at even intervals is the mean cost of a unit
        of work over the interval, which is what stretches a sample's time.
        A short interval takes the MIN_PROBE_SAMPLES samples nearest to it.
        """
        costs = [c for t, c in self.samples if t0 <= t <= t1]
        if len(costs) < MIN_PROBE_SAMPLES:
            mid = (t0 + t1) / 2.0
            costs = [c for t, c in sorted(self.samples, key=lambda tc: abs(tc[0] - mid))[:MIN_PROBE_SAMPLES]]
        if not costs:
            raise BenchError("the speed probe recorded no samples")
        return PROBE_REF_S / statistics.fmean(costs)


def measured_cpu():
    """The CPU that the samples and the probe share: the last one allowed."""
    return max(os.sched_getaffinity(0))


# -- the two modes -----------------------------------------------------------


def keep_sampling(start, seconds, rounds, min_rounds):
    """Start another round if one more fits in the window (rounds: their durations)."""
    elapsed = time.perf_counter() - start
    if elapsed > SAMPLE_CAP_S:
        return False
    if len(rounds) < min_rounds:
        return True
    return elapsed + statistics.median(rounds) <= seconds


def timed_run(workload, backends, env, seconds, reference, log):
    """Closed-loop samples on one CPU, beside the speed probe; times in reference seconds."""
    start = time.perf_counter()
    measure_setup(setup_argv(backends[0]), env, 1)  # writes the bytecode caches; not timed
    cpu = measured_cpu()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # every child inherits it
    probe = SpeedProbe(cpu)
    samples, setup, rounds, failures = [], [], [], []
    try:
        while keep_sampling(start, seconds, rounds, MIN_SAMPLES):
            t0 = time.perf_counter()
            backend = backends[len(samples) % len(backends)]
            m0 = time.monotonic()
            s = run_child(cli_argv(workload, backend), env)
            s["span"] = (m0, time.monotonic())
            why = check_sample(s, reference)
            if why:
                failures.append(why)
            samples.append(s)
            m0 = time.monotonic()
            walls = measure_setup(setup_argv(backend), env, SETUP_PER_SAMPLE)
            setup.append((walls, (m0, time.monotonic())))
            rounds.append(time.perf_counter() - t0)
        time.sleep(2 * PROBE_PERIOD_S)  # lets the probe sample past the last run
    finally:
        probe.close()
        os.sched_setaffinity(0, allowed)
    factors = [probe.factor(*s["span"]) for s in samples]
    ref_setup = [w * probe.factor(*span) for walls, span in setup for w in walls]
    metrics = {
        "wall_s": (statistics.median(s["wall_s"] * f for s, f in zip(samples, factors)), "s"),
        "cpu_s": (statistics.median(s["cpu_s"] * f for s, f in zip(samples, factors)), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "setup_s": (statistics.median(ref_setup), "s"),
    }
    walls = [s["wall_s"] for s in samples]
    log("samples: %d CLI runs, %d set-up runs, %d probe samples on CPU %d" % (
        len(samples), len(ref_setup), len(probe.samples), cpu))
    log("raw wall_s per run, in order: %s" % " ".join("%.3f" % w for w in walls))
    log("speed factor per run, in order: %s" % " ".join("%.3f" % f for f in factors))
    log("raw medians: wall_s %.4f s, cpu_s %.4f s, setup_s %.4f s" % (
        statistics.median(walls),
        statistics.median(s["cpu_s"] for s in samples),
        statistics.median(w for walls, _ in setup for w in walls)))
    log("wall_s tail (reference seconds): %s" % tail_percentile(sorted(s["wall_s"] * f for s, f in zip(samples, factors))))
    return metrics, len(samples), failures


def tail_percentile(sorted_values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(sorted_values)
    if n < 11:
        return "none (n=%d; needs at least 11 samples)" % n
    k = n - 11  # index of the value with exactly ten samples above it
    return "p%.0f = %.4f s (n=%d)" % (100.0 * (k + 1) / n, sorted_values[k], n)


def traced_run(workload, backends, env, seconds, reference, log):
    start = time.perf_counter()
    plain_argv = cli_argv(workload, backends[0])
    traced_argv = [sys.executable, str(TRACER), str(SRC), *plain_argv[3:]]
    plain, traced, reports, rounds, failures = [], [], [], [], []
    while keep_sampling(start, seconds, rounds, 1):
        t0 = time.perf_counter()
        p = run_child(plain_argv, env)
        t = run_child(traced_argv, env)
        why = check_sample(p, reference)
        if why:
            failures.append(why)
        report = parse_trace(t["stderr"])
        why = check_sample(t, reference)
        if why is None and t["stdout"] != p["stdout"]:
            why = "traced stdout differs from untraced stdout"
        if why is None and report is None:
            why = "traced run wrote no trace report"
        if why:
            failures.append("traced: " + why)
        if report is not None:
            reports.append((report, t["wall_s"]))
        plain.append(p)
        traced.append(t)
        rounds.append(time.perf_counter() - t0)
    empty = {"spans": {}, "counters": {}, "distinct": {}}
    per_run = [layer_metrics(r, wall) for r, wall in reports] or [layer_metrics(empty, 1.0)]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_run), unit)
        for name, (_, unit) in per_run[0].items()
    }
    overhead = statistics.median(t["wall_s"] for t in traced) - statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    log("samples: %d untraced + %d traced CLI runs" % (len(plain), len(traced)))
    return metrics, len(plain) + len(traced), failures


def parse_trace(stderr):
    for line in reversed(stderr.splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    return None


def layer_metrics(report, traced_wall):
    """Per-layer metrics from one tracer report: {name: (value, unit)}.

    ``trace.coverage_frac`` is the share of the traced process's wall time
    that the layer self times account for; the rest is interpreter start,
    imports and tracer installation.
    """
    spans = report["spans"]
    counters = report["counters"]

    def span(key, field):
        return sum(spans.get(name, (0, 0.0, 0.0))[field] for name in LAYER_SPANS[key])

    def count(key):
        return span(key, 0)

    def self_s(key):
        return span(key, 2)

    def frac(numer, denom):
        return numer / denom if denom else 0.0

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = (sum(v[2] for k, v in spans.items() if k.split(".", 1)[0] == layer), "s")
    m["trace.coverage_frac"] = (sum(v[2] for v in spans.values()) / traced_wall, "ratio")

    canon = count("scalars.canonicalize")
    gcds = count("scalars.poly_gcd")
    m["scalars.canonicalize.count"] = (canon, "count")
    m["scalars.canonicalize.self_s"] = (self_s("scalars.canonicalize"), "s")
    m["scalars.monomial_den_frac"] = (frac(counters.get("scalars.canonicalize.monomial_den", 0), canon), "ratio")
    m["scalars.poly_gcd.count"] = (gcds, "count")
    m["scalars.poly_gcd.self_s"] = (self_s("scalars.poly_gcd"), "s")
    m["scalars.poly_gcd.nontrivial_frac"] = (frac(counters.get("scalars.poly_gcd.nontrivial", 0), gcds), "ratio")
    m["scalars.specialize.count"] = (count("scalars.specialize"), "count")

    m["exactlinalg.matmul.count"] = (count("exactlinalg.matmul"), "count")
    m["exactlinalg.matmul.self_s"] = (self_s("exactlinalg.matmul"), "s")
    m["exactlinalg.matmul.nnz_out"] = (counters.get("exactlinalg.matmul.nnz_out", 0), "count")
    m["exactlinalg.matadd.count"] = (count("exactlinalg.matadd"), "count")
    m["exactlinalg.matadd.self_s"] = (self_s("exactlinalg.matadd"), "s")
    m["exactlinalg.scale.self_s"] = (self_s("exactlinalg.scale"), "s")
    m["exactlinalg.kron.self_s"] = (self_s("exactlinalg.kron"), "s")
    m["exactlinalg.echelon.count"] = (count("exactlinalg.echelon"), "count")
    m["exactlinalg.echelon.self_s"] = (self_s("exactlinalg.echelon"), "s")
    m["exactlinalg.echelon.cells"] = (counters.get("exactlinalg.echelon.cells", 0), "count")
    m["exactlinalg.echelon.pivots"] = (counters.get("exactlinalg.echelon.pivots", 0), "count")
    inserts = count("exactlinalg.insert")
    m["exactlinalg.insert.count"] = (inserts, "count")
    m["exactlinalg.insert.self_s"] = (self_s("exactlinalg.insert"), "s")
    m["exactlinalg.insert.grew_frac"] = (frac(counters.get("exactlinalg.insert.grew", 0), inserts), "ratio")
    m["exactlinalg.minpoly.self_s"] = (self_s("exactlinalg.minpoly"), "s")

    m["weylcomb.reduced_word.count"] = (count("weylcomb.reduced_word"), "count")
    m["hecke.mul.count"] = (count("hecke.mul"), "count")
    m["hecke.mul.support_out"] = (counters.get("hecke.mul.support_out", 0), "count")

    m["rep.rho.count"] = (count("rep.rho"), "count")
    m["rep.rho.support_total"] = (counters.get("rep.rho.support_total", 0), "count")
    m["rep.rho_basis.count"] = (count("rep.rho_basis"), "count")
    m["rep.rho_basis.distinct"] = (report["distinct"].get("rep.rho_basis", 0), "count")
    m["rep.rk_blocks.self_s"] = (self_s("rep.rk_blocks"), "s")
    m["rep.coideal.self_s"] = (self_s("rep.coideal"), "s")
    m["rep.eigen.self_s"] = (self_s("rep.eigen"), "s")

    m["schur.functor.count"] = (count("schur.functor"), "count")
    return m


# -- provenance and output ---------------------------------------------------


def provenance(seed, backends):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": tree_digest(SRC / "heckeb"),
        "cpu_model": cpu_model(),
        "seed": seed,
        "backends": backends,
    }


def loadavg():
    return round(os.getloadavg()[0], 2)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def tree_digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def bench(workload_name, seed, seconds, trace, reference=None, log=print):
    """Run one benchmark invocation; returns the result object."""
    if not (SRC / "heckeb" / "cli.py").is_file():
        raise BenchError("no heckeb sources at %s" % SRC)
    spec = load_spec()
    workload = spec["workloads"][workload_name]
    if reference is None:
        reference = workload["results_sha256"]
    backends = pick_backends(workload, seed, spec)
    env = child_env(seed)
    prov = provenance(seed, backends)
    prov["loadavg_start"] = loadavg()
    if trace:
        metrics, attempted, failures = traced_run(workload, backends, env, seconds, reference, log)
    else:
        metrics, attempted, failures = timed_run(workload, backends, env, seconds, reference, log)
    prov["loadavg_end"] = loadavg()
    log("provenance: " + json.dumps(prov, sort_keys=True))
    for why in failures:
        log("FAILED: " + why)
    log("fail_frac: %d/%d = %.4f" % (len(failures), attempted, len(failures) / attempted))
    for name, (value, unit) in metrics.items():
        log("%-34s %14.6f %s" % (name, value, unit))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    try:
        spec = load_spec()
        args = parse_args(argv, spec)
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
