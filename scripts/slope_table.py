#!/usr/bin/env python3
"""Fitted outage slopes per decoding-set case against their nominal exponents.

Semi-analytic: the oracles are quadratures over exact fading CDFs, so deep-snr
windows are reachable where Monte Carlo would need ~1/outage trials.  The
three-path (ISI-aware, both relays) outage carries a (ln snr)^2 prefactor
that lowers a raw log-log fit by about 2/ln(snr); that row is fitted with the
prefactor divided out, and the log_order column shows the power used.
"""

import argparse
import sys

from relaylab.channel import NetworkConfig
from relaylab.outage import (ConditionalCase, analytic_curve,
                             analytic_outage_parallel3, analytic_outage_stc,
                             slope_fit, write_csv)

# (case, nominal exponent, log_order of the fit)
CASES = (
    ("d0", lambda r: 3 - 6 * r, 0),
    ("d1", lambda r: 3 - 4 * r, 0),
    ("d2-stc", lambda r: 3 - 4 * r, 0),
    ("d2-astc", lambda r: 3 - 2 * r, 2),
    ("overall", lambda r: 3 - 6 * r, 0),
)


def row_curve(cfg, case, r, snr_grid):
    if case == "d2-astc":
        return analytic_curve(lambda s: analytic_outage_parallel3(cfg, r, s),
                              snr_grid, "ASTC", r, ConditionalCase.D2)
    cond = {"d0": ConditionalCase.D0, "d1": ConditionalCase.D1,
            "d2-stc": ConditionalCase.D2,
            "overall": ConditionalCase.OVERALL}[case]
    return analytic_curve(lambda s: analytic_outage_stc(cfg, r, s, cond),
                          snr_grid, "STC_SYNC", r, cond)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r", type=float, nargs="+", default=[0.1, 0.2])
    ap.add_argument("--window", default="40:80", help="fit window in dB, LO:HI")
    ap.add_argument("--step-db", type=float, default=5.0)
    ap.add_argument("--out", default="", help="CSV path (default stdout)")
    args = ap.parse_args()

    lo_db, hi_db = (float(x) for x in args.window.split(":"))
    n = int(round((hi_db - lo_db) / args.step_db))
    grid_db = [lo_db + i * args.step_db for i in range(n + 1)]
    snr_grid = [10.0 ** (d / 10.0) for d in grid_db]
    cfg = NetworkConfig(1.0, 1.0, 1.0, 1.0, 1.0)

    rows = []
    for r in args.r:
        for case, nominal, log_order in CASES:
            fit = slope_fit(row_curve(cfg, case, r, snr_grid), (lo_db, hi_db),
                            log_order=log_order)
            target = nominal(r)
            rows.append((case, r, log_order, f"{target:.3f}", f"{fit.slope:.4f}",
                         f"{fit.stderr:.4f}", f"{fit.slope - target:+.4f}"))
    write_csv(args.out or sys.stdout, "slope_table-v1", vars(args),
              ("case", "r", "log_order", "nominal", "fitted", "stderr", "error"), rows)


if __name__ == "__main__":
    main()
