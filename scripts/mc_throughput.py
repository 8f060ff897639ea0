#!/usr/bin/env python3
"""Monte Carlo throughput per scheme, in million trial x snr points per second.

Each scheme runs mc_outage three times over the same grid (0:30:5 dB,
r = 0.25, one worker) at the benchmark's pulse and delay settings: the
rect/half-delay pair for TDA_LINMOD and MIX_AF, the SRRC span-2 pair at
tau 0.3 for ASTC, and t0*bw = 2.5 for TDA_INDEP.  One line per scheme gives
the median wall time of the repeats (seed 1) and the throughput it implies.
BLAS is held to one thread, as in perfbench/run.py.

The figures are raw wall time, not calibrated against the host's speed, so
they move with machine load and cannot resolve a change under about 20%.
To compare two commits, use perfbench instead: `perfbench/run.py --workload
mc-quadrature --trace 1` (or mc-closed) reports the calibrated
outage.mc_overall_ns.<SCHEME> per scheme; run it alternately in a checkout
of each commit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import statistics
import sys
import time

from relaylab.mutualinfo import DelayConfig, SchemeId
from relaylab.outage import mc_outage, write_csv
from relaylab.waveform import correlations, rectangular, srrc

SNR_DB = tuple(range(0, 31, 5))
R = 0.25
SEED = 1
REPEATS = 3


def cases():
    rect1 = correlations(rectangular(1, 256), 0.5)
    srrc2 = correlations(srrc(0.5, 2, 256), 0.3)
    return (("STC_SYNC", SchemeId.STC_SYNC, {}),
            ("TDA_LINMOD rect1", SchemeId.TDA_LINMOD, {"corr": rect1}),
            ("ASTC srrc2", SchemeId.ASTC, {"corr": srrc2}),
            ("MIX_AF rect1", SchemeId.MIX_AF, {"corr": rect1}),
            ("TDA_INDEP t0bw2.5", SchemeId.TDA_INDEP, {"delays": DelayConfig.from_t0bw(2.5)}))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=2 ** 18)
    ap.add_argument("--out", default="", help="CSV path (default stdout)")
    args = ap.parse_args()

    snr = tuple(10.0 ** (db / 10.0) for db in SNR_DB)
    rows = []
    for name, scheme, kw in cases():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            mc_outage(scheme, R, snr, args.trials, SEED, workers=1, **kw)
            times.append(time.perf_counter() - t0)
        wall = statistics.median(times)
        rows.append((name, args.trials, len(snr), f"{wall:.4f}",
                     f"{args.trials * len(snr) / wall / 1e6:.3f}"))
    write_csv(args.out or sys.stdout, "mc_throughput-v1", vars(args),
              ("scheme", "trials", "snr_points", "wall_s", "mtrial_snr_per_s"), rows)


if __name__ == "__main__":
    main()
