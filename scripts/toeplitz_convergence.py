#!/usr/bin/env python3
"""Finite-block rates of the coupled relay pair against the spectral limit.

One line per (seed, n): the per-symbol rate of the 2n x 2n banded covariance
and its relative gap to the frequency-domain value.
"""

import argparse
import math
import sys

import numpy as np

from relaylab.channel import POWER_NORM
from relaylab.outage import write_csv
from relaylab.toeplitz import build_taps, convergence_study
from relaylab.waveform import correlations, srrc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rolloff", type=float, default=0.5)
    ap.add_argument("--span", type=int, default=2)
    ap.add_argument("--tau", type=float, default=0.3)
    ap.add_argument("--snr-db", type=float, default=10.0)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--n-list", default="8,32,128,512")
    ap.add_argument("--out", default="", help="CSV path (default stdout)")
    args = ap.parse_args()

    corr = correlations(srrc(args.rolloff, args.span, 64), args.tau)
    ns = tuple(int(x) for x in args.n_list.split(","))
    rho0 = POWER_NORM * 10.0 ** (args.snr_db / 10.0)

    rows = []
    worst = 0.0
    for seed in range(args.seeds):
        g = np.random.default_rng(seed)
        a1, a2 = (g.standard_normal(2) + 1j * g.standard_normal(2)) / math.sqrt(2)
        st = convergence_study(build_taps(corr, a1, a2), ns, rho0, rel_tol=1.0)
        for n, mi, err in zip(st.ns, st.mi, st.rel_err):
            rows.append((seed, n, f"{mi:.10f}", f"{st.limit:.10f}", f"{err:.3e}"))
        worst = max(worst, st.rel_err[-1])
    write_csv(args.out or sys.stdout, "toeplitz_convergence-v1", vars(args),
              ("seed", "n", "mi", "limit", "rel_err"), rows)
    print(f"# worst final rel err over {args.seeds} seeds: {worst:.3e}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
