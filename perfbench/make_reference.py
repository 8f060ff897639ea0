#!/usr/bin/env python3
"""Record the reference outage counts the output gate compares against.

    python3 perfbench/make_reference.py

Runs every Monte Carlo curve of the benchmark that has no exact oracle with
FACTOR times the trials a benchmark run uses, under a seed no benchmark run
uses, and writes the counts to perfbench/reference.json.  Rerun it only when
the model itself changes (not when a kernel becomes exact or faster).
"""

import json
import sys

import checks
import run
import workloads as wl

REFERENCE_SEED = 987654321
FACTOR = 64   # reference trials per benchmark trial
WORKERS = 2   # the counts do not depend on it; it only shortens the run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import relaylab.cli as cli

    curves = {}
    for workload in wl.WORKLOADS:
        for cmd in wl.mc_commands(workload, REFERENCE_SEED):
            if cmd.scheme == "STC_SYNC":
                continue
            argv = list(cmd.argv)
            argv[argv.index("--trials") + 1] = str(FACTOR * cmd.trials)
            argv[argv.index("--workers") + 1] = str(WORKERS)
            rc, seconds, out = run.call(cli, argv)
            if rc != 0:
                raise SystemExit(f"{cmd.name}: exit code {rc}")
            rows = checks.parse_csv(out)[1]
            n = int(rows[0]["trials"])
            curves[cmd.name] = {"argv": argv, "trials": n,
                                "counts": [round(float(r["outage"]) * n) for r in rows]}
            print(f"{cmd.name}: {seconds:.1f} s, counts {curves[cmd.name]['counts']}")
    doc = {"seed": REFERENCE_SEED, "snr_db": list(wl.MC_SNR_DB), "r": wl.R,
           "curves": curves}
    checks.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
