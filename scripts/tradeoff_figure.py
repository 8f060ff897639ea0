#!/usr/bin/env python3
"""Diversity-multiplexing curves for every scheme at k=2, with crossings.

Writes a long-format CSV (scheme, r, d_low, d_high); --plot additionally
renders a figure when matplotlib is importable.
"""

import argparse
import sys
from fractions import Fraction

from relaylab.outage import write_csv
from relaylab.tradeoff import SCHEMES, band, crossings, table


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta1", type=Fraction, default=Fraction(3, 4),
                    help="whole-period ratio for the repetition band")
    ap.add_argument("--points", type=int, default=200)
    ap.add_argument("--out", default="", help="CSV path (default stdout)")
    ap.add_argument("--plot", default="", help="optional PNG path")
    args = ap.parse_args()

    if args.points < 1:
        ap.error("--points must be positive")

    rows = []
    for scheme in SCHEMES:
        low, high = band(scheme, 2, args.delta1)
        lo, hi = low.domain
        for r, d_low, d_high in table(low, high, (hi - lo) / args.points, args.points,
                                      breakpoints=False):
            rows.append((scheme, r[0] / r[1], d_low[0] / d_low[1], d_high[0] / d_high[1]))

    write_csv(args.out or sys.stdout, "tradeoff_figure-v1", vars(args),
              ("scheme", "r", "d_low", "d_high"), rows)

    for a, b in (("maf", "ddf"), ("maf", "naf"), ("stc", "naf")):
        rep = crossings(a, b, 2)
        for p in rep.points:
            print(f"# crossing {a}/{b}: r={p.r} d={p.d} exact={p.exact}",
                  file=sys.stderr)

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("# matplotlib unavailable, skipping plot", file=sys.stderr)
            return
        fig, ax = plt.subplots(figsize=(6, 4.5))
        for scheme in SCHEMES:
            pts = [(r, dl, dh) for s, r, dl, dh in rows if s == scheme]
            rs = [p[0] for p in pts]
            if scheme == "rtda":
                ax.fill_between(rs, [p[1] for p in pts], [p[2] for p in pts],
                                alpha=0.2, label="rtda band")
            else:
                ax.plot(rs, [p[1] for p in pts], label=scheme)
        ax.set_xlabel("multiplexing gain r")
        ax.set_ylabel("diversity gain d(r)")
        ax.legend(fontsize=8)
        fig.tight_layout()
        fig.savefig(args.plot, dpi=150)


if __name__ == "__main__":
    main()
