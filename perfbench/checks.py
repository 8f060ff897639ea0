"""Output-correctness gate.  Every check returns (name, ok, detail).

Monte Carlo outages are compared statistically, never byte for byte, so a
change that legitimately moves single counts (an exact-form kernel in place
of a quadrature, say) still passes.  A point fails only when its two-sided
p-value under the null "same outage probability" is below P_MIN, which is a
normal z-bound of about 4.9; the p-values are exact binomial ones so sparse
counts in the tail are judged correctly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import workloads as wl

P_MIN = 1e-6
REFERENCE = Path(__file__).with_name("reference.json")


def parse_csv(text: str):
    """(header dict, data rows as dicts, trailing non-CSV lines) of a cli output."""
    header, body, extra = {}, [], []
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            header[k] = v
        elif line.startswith(("fit ", "crossing ", "coincident ")):
            extra.append(line)
        elif line:
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return header, rows, extra


def _counts(rows):
    n = int(rows[0]["trials"])
    return n, [round(float(r["outage"]) * n) for r in rows]


def _binom_p(k: int, n: int, p: float) -> float:
    from scipy.stats import binomtest
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    return binomtest(k, n, p).pvalue


def _same_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """Exact two-sample test: given k1 + k2 events, k1 ~ Bin(k1+k2, n1/(n1+n2))."""
    if k1 + k2 == 0:
        return 1.0
    return _binom_p(k1, k1 + k2, n1 / (n1 + n2))


def check_curve_shape(name, text):
    """The curve parses, has one row per grid point and sane intervals."""
    _, rows, _ = parse_csv(text)
    bad = [r["snr_db"] for r in rows
           if not (0.0 <= float(r["ci_low"]) <= float(r["outage"])
                   <= float(r["ci_high"]) <= 1.0)]
    ok = len(rows) == len(wl.MC_SNR_DB) and not bad
    return f"{name}: shape", ok, f"{len(rows)} rows, bad intervals at {bad}"


def check_stc_oracle(cmd, text):
    """STC_SYNC Monte Carlo against the exact-CDF oracle, point by point."""
    from relaylab.channel import NetworkConfig
    from relaylab.outage import ConditionalCase, analytic_outage_stc
    _, rows, _ = parse_csv(text)
    n, ks = _counts(rows)
    forced = cmd.kind == "mc_d2"
    cond = ConditionalCase.D2 if forced else ConditionalCase.OVERALL
    worst = 1.0
    for row, k in zip(rows, ks):
        snr = 10.0 ** (float(row["snr_db"]) / 10.0)
        p = analytic_outage_stc(NetworkConfig(), wl.R, snr, cond, conditioned=forced)
        worst = min(worst, _binom_p(k, n, p))
    return f"{cmd.name}: vs analytic_outage_stc", worst >= P_MIN, f"min p-value {worst:.3g}"


def check_reference(cmd, text):
    """A Monte Carlo curve against the recorded high-trial reference counts."""
    ref = json.loads(REFERENCE.read_text())["curves"].get(cmd.name)
    if ref is None:
        return f"{cmd.name}: vs reference", False, "no recorded reference"
    _, rows, _ = parse_csv(text)
    n, ks = _counts(rows)
    worst = min(_same_p(k, n, kr, ref["trials"]) for k, kr in zip(ks, ref["counts"]))
    return (f"{cmd.name}: vs reference", worst >= P_MIN,
            f"min p-value {worst:.3g} against {ref['trials']} reference trials")


def check_analytic(cmd, text):
    """An oracle curve decreases with snr and its slope fit was printed."""
    _, rows, extra = parse_csv(text)
    vals = [float(r["outage"]) for r in rows]
    fits = [ln for ln in extra if ln.startswith("fit ")]
    slope = float(fits[0].split("slope=")[1].split()[0]) if fits else math.nan
    ok = (len(vals) == 9 and all(0.0 < b < a < 1.0 for a, b in zip(vals, vals[1:]))
          and math.isfinite(slope) and slope > 0.0)
    if cmd.name == "STC_SYNC.overall":
        ok = ok and abs(slope - (3.0 - 6.0 * wl.R)) <= 0.15
    return f"{cmd.name}: monotone curve and slope fit", ok, f"slope {slope:.4f}"


def check_toeplitz(cmd, text):
    """Relative error of the largest block against the limit is within rel_tol."""
    header, rows, _ = parse_csv(text)
    ns = [int(r["n"]) for r in rows]
    err = float(rows[-1]["rel_err"])
    tol = float(header["rel_tol"])
    ok = ns == [int(v) for v in wl.TOEPLITZ_NS.split(",")] and err <= tol
    return f"{cmd.name}: rel err at n={ns[-1]}", ok, f"{err:.3g} (rel_tol {tol})"


def check_waveform(cmd, text):
    """SRRC span-2 certifies positive definite; rect/half-delay does not."""
    _, rows, _ = parse_csv(text)
    table = {r["metric"]: r["value"] for r in rows}
    want = "1" if cmd.name == "waveform.srrc2" else "0"
    return f"{cmd.name}: pd={want}", table.get("pd") == want, f"pd={table.get('pd')}"


def check_tradeoff(cmd, text):
    """Headline crossings at exactly r = 1/5 (ddf) and r = 1/3 (naf)."""
    _, _, extra = parse_csv(text)
    want = ("crossing ddf maf: r=1/5 d=12/5 exact=True",
            "crossing naf maf: r=1/3 d=4/3 exact=True")
    missing = [w for w in want if w not in extra]
    return f"{cmd.name}: crossings at 1/5 and 1/3", not missing, f"missing {missing}"


def check_certificates(certs):
    """The set-up certificates: SRRC pair PD, rect/half-delay pair not."""
    ok = certs["srrc2"].pd and not certs["rect1"].pd
    return ("setup: certify_pd", ok,
            f"srrc2 pd={certs['srrc2'].pd}, rect1 pd={certs['rect1'].pd}")


def output_checks(cmd, text):
    """All checks that apply to one command's output."""
    if cmd.kind in ("mc", "mc_d2"):
        yield check_curve_shape(cmd.name, text)
        if cmd.scheme == "STC_SYNC":
            yield check_stc_oracle(cmd, text)
        else:
            yield check_reference(cmd, text)
    elif cmd.kind == "analytic":
        yield check_analytic(cmd, text)
    elif cmd.kind == "toeplitz":
        yield check_toeplitz(cmd, text)
    elif cmd.kind == "waveform":
        yield check_waveform(cmd, text)
    elif cmd.kind == "tradeoff":
        yield check_tradeoff(cmd, text)
