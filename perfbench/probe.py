"""Speed probe: samples how fast one CPU runs while a measured program runs on it.

Usage:  python3 perfbench/probe.py <cpu> <period_s>

Pins itself to CPU <cpu> and, every <period_s> seconds until stdin closes or
it is killed, times one iteration of a fixed slice of exact arithmetic in
CPU seconds.  Each sample is written to stdout as one line
``<CLOCK_MONOTONIC seconds> <CPU seconds of the iteration>``.

On a shared host one virtual CPU can run at half speed for seconds at a time
while another runs at full speed, so the speed that matters is that of the
CPU the measured program runs on, at the times it runs.  The probe sleeps
between samples; at 20 samples a second it takes 3-5% of that CPU.
"""

from __future__ import annotations

import os
import select
import sys
import time
from fractions import Fraction


def probe_once():
    """A fixed slice of exact arithmetic: square a bivariate polynomial over Q."""
    poly = {(i, j): Fraction(i + 1, 2 * j + 3) for i in range(4) for j in range(4)}
    out = {}
    for (a, b), c in poly.items():
        for (d, e), f in poly.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


def main(argv):
    cpu, period = int(argv[0]), float(argv[1])
    os.sched_setaffinity(0, {cpu})
    probe_once()
    out = sys.stdout
    while True:
        c0 = time.process_time()
        probe_once()
        cost = time.process_time() - c0
        out.write("%.6f %.9f\n" % (time.monotonic(), cost))
        out.flush()
        # stdin closing is the signal to stop
        ready, _, _ = select.select([sys.stdin], [], [], period)
        if ready and not sys.stdin.buffer.read1(4096):
            return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
