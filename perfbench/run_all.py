"""Run every workload of the benchmark in turn and print one table.

Usage (from the root of a checkout):

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Workloads run one after another, never in parallel.  Each row is one metric
of one workload, with its unit; the per-run detail and provenance of each
workload go to stderr.  Exit status 0 when every run of every workload passed
its output checks, 1 otherwise, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        default_seconds = json.load(fh)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=default_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ok = True
    rows = []
    try:
        for name in run.load_spec()["workloads"]:
            result = run.bench(name, args.seed, args.seconds, args.trace, log=lambda line: print(line, file=sys.stderr))
            ok = ok and result["correct"]
            rows.append((name, "fail_frac", result["failed"] / result["attempted"], "ratio"))
            rows += [(name, k, v["value"], v["unit"]) for k, v in sorted(result["metrics"].items())]
    except run.BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    for row in rows:
        print("%-20s %-34s %16.6f %s" % row)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
