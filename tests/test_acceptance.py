"""Acceptance criteria, one numbered block per criterion.

Each test records a line for the terminal summary (see conftest) and then
asserts, so a red test and a FAIL line always travel together.  Criterion 3
is parametrized per table row.  A diversity order is an exponent up to
polylog factors, and the three-path product behind the ISI-aware
both-relays row carries a (ln snr)^2 prefactor that pulls its raw log-log
slope about 2/ln(snr) below 3-2r; that row is fitted with the prefactor
divided out (slope_fit's log_order=2), at the same window and tolerance as
the other rows.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import integrate

from relaylab.channel import NetworkConfig
from relaylab.cli import main
from relaylab.mutualinfo import (DelayConfig, SchemeId, closed_log_integral,
                                 i_af_pair, i_esd, i_esd_bounds, mi_batch,
                                 mi_envelope)
from relaylab.outage import (ConditionalCase, analytic_outage_curve, analytic_outage_stc,
                             mc_outage, slope_fit)
from relaylab.toeplitz import build_taps, convergence_study
from relaylab.tradeoff import crossings, curve
from relaylab.waveform import certify_pd, correlations, rectangular, srrc

UNIT_CFG = NetworkConfig(1.0, 1.0, 1.0, 1.0, 1.0)


def _fading(rng, n=1):
    """n draws of the five link gains, one column per link (sd, sr1, sr2, r1d, r2d)."""
    return ((rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))) / math.sqrt(2)).T


# ---------------------------------------------------------------------------
# 1. analytic tradeoff curves and their crossings, exact


def test_criterion_1_tradeoff_exact(record_criterion):
    title = "tradeoff curves and crossings exact"
    checks = []
    # the synchronous / delay-diversity / ISI-aware family: (k+1)(1-2r)
    for scheme in ("stc", "tda", "astc"):
        for r in (F(0), F(1, 8), F(1, 4), F(2, 5)):
            checks.append(curve(scheme, 2).d(r) == 3 * (1 - 2 * r))
    # reference schemes at both relay counts
    for k in (1, 2):
        c = curve("naf", k)
        checks.append(c.d(F(1, 4)) == 1 + k - (1 + 2 * k) * F(1, 4))
        checks.append(c.d(F(3, 4)) == F(1, 4))
        c = curve("ddf", k)
        checks.append(c.d(F(1, 2 * (k + 1))) == (k + 1) * (1 - F(1, 2 * (k + 1))))
        checks.append(c.d(F(3, 4)) == F(1, 3))
    checks.append(curve("maf", 1).d(F(1, 4)) == F(3, 2))
    checks.append(curve("maf", 2).d(F(1, 6)) == F(8, 3))
    # headline crossings, exact rationals
    rep = crossings("maf", "ddf", 2)
    checks.append([p.r for p in rep.points] == [F(0), F(1, 5)])
    checks.append(all(p.exact for p in rep.points))
    rep = crossings("maf", "naf", 2)
    checks.append([p.r for p in rep.points] == [F(0), F(1, 3)])
    checks.append(all(p.exact for p in rep.points))
    ok = all(checks)
    record_criterion(1, title, ok, f"{sum(checks)}/{len(checks)} exact checks")
    assert ok


def test_criterion_1_cli_layer(record_criterion, capsys, tmp_path):
    title = "tradeoff curves and crossings exact"
    out_file = tmp_path / "curves.csv"
    rc = main(["tradeoff", "--k", "2", "--r-step", "1/20",
               "--out", str(out_file)])
    printed = capsys.readouterr().out
    rows = [ln.split(",") for ln in out_file.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    table = {(r[0], r[2]): r[3] for r in rows}
    ok = (rc == 0
          and table[("stc", "1/4")] == "3/2"
          and table[("tda", "1/4")] == "3/2"
          and table[("astc", "1/4")] == "3/2"
          and table[("maf", "1/6")] == "8/3"
          and "crossing ddf maf: r=1/5 d=12/5 exact=True" in printed
          and "crossing naf maf: r=1/3 d=4/3 exact=True" in printed)
    record_criterion(1, title, ok, "command output, exact rational strings")
    assert ok


# ---------------------------------------------------------------------------
# 2. Monte Carlo against the exact-CDF oracle, 3 sigma at a million trials


def test_criterion_2_mc_vs_analytic(record_criterion):
    title = "MC within 3 sigma of exact-CDF oracle (1e6 trials)"
    snr = [10.0 ** (db / 10.0) for db in (0, 5, 10, 15)]
    worst = 0.0
    for r in (0.0, 0.25):
        for cond in ConditionalCase:
            curve_ = mc_outage(SchemeId.STC_SYNC, r, snr, 1_000_000, 7, cond,
                               cfg=UNIT_CFG)
            for i, s in enumerate(snr):
                ana = analytic_outage_stc(UNIT_CFG, r, s, cond)
                sd = max(1e-30, (curve_.ci_high[i] - curve_.ci_low[i]) / (2 * 1.96))
                worst = max(worst, abs(curve_.outage[i] - ana) / sd)
    ok = worst < 3.0
    record_criterion(2, title, ok, f"worst |z| = {worst:.2f} over 32 points")
    assert ok, f"worst z-score {worst:.2f} exceeds 3"


# ---------------------------------------------------------------------------
# 3. slope table at the pinned 40-80 dB window, +/- 0.15

# (ln snr) power divided out of a row's fit (slope_fit's log_order).  The
# three-path product's (ln snr)^2 lowers a raw 40-80 dB fit by about 0.18;
# the single log of the d1 row lowers it by about 0.1, inside the tolerance.
LOG_ORDER = {"d2-astc": 2}


# (scheme, cond) of each row
ROWS = {"d0": ("STC_SYNC", "d0"), "d1": ("STC_SYNC", "d1"), "d2-stc": ("STC_SYNC", "d2"),
        "d2-astc": ("ASTC", "d2"), "overall": ("STC_SYNC", "overall")}


def _row_curve(case, r, snr_grid):
    scheme, cond = ROWS[case]
    return analytic_outage_curve(scheme, r, snr_grid, cond, cfg=UNIT_CFG)


@pytest.mark.parametrize("case,target_fn", [
    ("d0", lambda r: 3 - 6 * r),
    ("d1", lambda r: 3 - 4 * r),
    ("d2-stc", lambda r: 3 - 4 * r),
    ("d2-astc", lambda r: 3 - 2 * r),
    ("overall", lambda r: 3 - 6 * r),
])
@pytest.mark.parametrize("r", [0.1, 0.2])
def test_criterion_3_slope_rows(record_criterion, case, target_fn, r):
    title = "slope table rows at 40-80 dB within +/-0.15"
    snr_grid = [10.0 ** (db / 10.0) for db in range(40, 81, 5)]
    log_order = LOG_ORDER.get(case, 0)
    fit = slope_fit(_row_curve(case, r, snr_grid), (40.0, 80.0), log_order=log_order)
    target = target_fn(r)
    err = fit.slope - target
    ok = abs(err) <= 0.15
    detail = (f"{case} r={r} log_order={log_order}: fitted {fit.slope:.4f} "
              f"vs {target:.2f} (err {err:+.4f})")
    record_criterion(3, title, ok, detail)
    assert ok, detail


def test_slope_table_script_matches_criterion_3(run_script):
    # the script's fitted column is criterion 3's fit of the same rows
    out, _ = run_script("slope_table.py", "--r", "0.1", "0.2")
    assert out.startswith("# schema=slope_table-v1\n")
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "case,r,log_order,nominal,fitted,stderr,error"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(c, float(r)) for c, r, *_ in rows] == [(c, r) for r in (0.1, 0.2) for c in ROWS]
    snr_grid = [10.0 ** (db / 10.0) for db in range(40, 81, 5)]
    for case, r, log_order, _, fitted, *_ in rows:
        assert int(log_order) == LOG_ORDER.get(case, 0)
        fit = slope_fit(_row_curve(case, float(r), snr_grid), (40.0, 80.0),
                        log_order=int(log_order))
        assert fitted == f"{fit.slope:.4f}"


def test_criterion_3_d2_astc_row_separates_from_stc():
    # the d2-astc row must reject the synchronous both-relays curve: fitted the
    # same way (log_order=2, 40-80 dB), STC misses 3-2r by more than the
    # tolerance at r=0.2 (about -0.27); at r=0.1 it misses by only about -0.13
    snr_grid = [10.0 ** (db / 10.0) for db in range(40, 81, 5)]
    r = 0.2
    fit = slope_fit(_row_curve("d2-stc", r, snr_grid), (40.0, 80.0),
                    log_order=LOG_ORDER["d2-astc"])
    assert fit.slope - (3 - 2 * r) < -0.15


# ---------------------------------------------------------------------------
# 4. circle-log integral vs adaptive quadrature


def test_criterion_4_integral_identity(record_criterion):
    title = "closed-form circle-log integral vs adaptive quadrature (1e-10)"
    rng = np.random.default_rng(404)
    worst = 0.0
    done = 0
    while done < 100:
        a, b = rng.uniform(-1.0, 1.0, 2)
        if a * a + b * b >= 0.99:
            continue
        done += 1
        ref, _ = integrate.quad(
            lambda x: math.log2(1.0 + a * math.sin(x) + b * math.cos(x)),
            0.0, 2.0 * math.pi, limit=300)
        worst = max(worst, abs(closed_log_integral(a, b) - ref / (2 * math.pi)))
    ok = worst < 1e-10
    record_criterion(4, title, ok, f"worst |diff| = {worst:.2e} over 100 pairs")
    assert ok


# ---------------------------------------------------------------------------
# 5. finite-block rates approach the spectral limit


def test_criterion_5_toeplitz_convergence(record_criterion):
    title = "block-Toeplitz rate converges to spectral limit (<1% at n=512)"
    corr = correlations(srrc(0.5, 2, 64), 0.3)
    ns = (8, 32, 128, 512)
    worst = 0.0
    bad_monotone = 0
    for seed in range(20):
        g = np.random.default_rng(seed)
        a1, a2 = (g.standard_normal(2) + 1j * g.standard_normal(2)) / math.sqrt(2)
        study = convergence_study(build_taps(corr, a1, a2), ns, 10.0)
        errs = np.asarray(study.rel_err)
        worst = max(worst, float(errs[-1]))
        if int(np.sum(np.diff(errs) > 1e-12)) > 1:
            bad_monotone += 1
    ok = worst < 0.01 and bad_monotone == 0
    record_criterion(5, title, ok,
                     f"worst rel err {worst:.2e}; {bad_monotone} seeds break monotonicity")
    assert ok


# ---------------------------------------------------------------------------
# 6. strict dominance of the ISI-aware pair rate over the coherent sum


def test_criterion_6_strict_dominance(record_criterion):
    title = "ISI-aware pair rate strictly beats coherent sum (PD waveform)"
    corr = correlations(srrc(0.5, 1, 64), 0.5)
    eig = certify_pd(corr)
    assert eig.pd, "prerequisite: the chosen waveform must certify PD"
    rng = np.random.default_rng(606)
    wins = total = 0
    min_margin = math.inf
    both = np.ones(1000, dtype=bool)
    for snr_db in (0, 10, 20, 30):
        rho0 = (2.0 / 3.0) * 10.0 ** (snr_db / 10.0)
        g1 = rng.exponential(size=1000)
        g2 = rng.exponential(size=1000)
        # with no direct link the both-relays ASTC rate is half the pair rate
        pair = 2.0 * mi_batch(SchemeId.ASTC, np.zeros(1000, dtype=complex),
                              np.sqrt(g1) + 0j, np.sqrt(g2) + 0j, both, both, rho0,
                              corr=corr)
        margin = pair - np.array([i_af_pair(a, b, rho0) for a, b in zip(g1, g2)])
        min_margin = min(min_margin, float(margin.min()))
        wins += int(np.count_nonzero(margin > 0.0))
        total += margin.size
    ok = wins == total
    record_criterion(6, title, ok,
                     f"{wins}/{total} wins, min margin {min_margin:.2e} bits")
    assert ok


# ---------------------------------------------------------------------------
# 7. bound sandwiches over random realizations


def test_criterion_7_bound_sandwiches(record_criterion):
    title = "lower <= value <= upper sandwiches (1e-9 slack, 1e4 draws each)"
    rng = np.random.default_rng(777)
    tol = 1e-9
    violations = {}

    sd, _, _, r1d, r2d = _fading(rng, 10_000)
    rhos = rng.uniform(0.05, 200.0, size=10_000)
    t0bws = rng.uniform(0.2, 6.0, size=10_000)
    one = np.ones(1, dtype=bool)

    def sandwich_violations(scheme, windowed=False, **kw):
        # one batch-of-one envelope per draw: rho0 (and t0bw) vary by draw
        bad = 0
        for i, rho0 in enumerate(rhos):
            if windowed:
                kw["delays"] = DelayConfig.from_t0bw(float(t0bws[i]))
            value, lower, upper = mi_envelope(scheme, sd[i:i + 1], r1d[i:i + 1], r2d[i:i + 1],
                                              one, one, float(rho0), **kw)
            bad += int(not (lower[0] <= value[0] + tol and value[0] <= upper[0] + tol))
        return bad

    violations["TDA_INDEP"] = sandwich_violations(SchemeId.TDA_INDEP, windowed=True)
    violations["TDA_REPETITION"] = sandwich_violations(SchemeId.TDA_REPETITION, windowed=True)
    violations["TDA_LINMOD"] = sandwich_violations(SchemeId.TDA_LINMOD,
                                                   corr=correlations(rectangular(1, 64), 0.5))

    # the single-stream rate over all (draw, a1, rho0) triples in one call
    a1s = rng.uniform(-0.499, 0.499, size=10_000)
    v = i_esd(sd, a1s, rhos)
    lo, hi = i_esd_bounds(sd, rhos)
    violations["single-stream"] = int(np.count_nonzero(~((lo <= v + tol) & (v <= hi + tol))))

    corr_pd = correlations(srrc(0.5, 1, 64), 0.5)
    violations["ASTC"] = sandwich_violations(SchemeId.ASTC, corr=corr_pd)

    total_bad = sum(violations.values())
    ok = total_bad == 0
    record_criterion(7, title, ok, f"violations by evaluator: {violations}")
    assert ok, violations


# ---------------------------------------------------------------------------
# 8. waveform certification: the classic singular pair and the trace cap


def test_criterion_8_certification(record_criterion):
    title = "rect/half-delay flagged non-PD near omega=0; eigenvalue cap holds"
    e = certify_pd(correlations(rectangular(1, 64), 0.5))
    checks = [not e.pd, abs(e.omega_at_min) < 0.02]
    tested = [
        (rectangular(1, 64), 0.5),
        (rectangular(1, 64), 1.0),
        (rectangular(1, 64, duty=0.4), 0.5),
        (srrc(0.5, 1, 64), 0.5),
        (srrc(0.5, 2, 64), 0.3),
        (srrc(0.22, 2, 64), 0.7),
    ]
    for w, tau in tested:
        c = correlations(w, tau)
        eb = certify_pd(c)
        checks.append(eb.lambda_max <= 2.0 * (2 * c.span + 1) + 1e-9)
    ok = all(checks)
    record_criterion(8, title, ok,
                     f"defect at omega={e.omega_at_min:+.4f}; cap held on {len(tested)} waveforms")
    assert ok


# ---------------------------------------------------------------------------
# 9. byte determinism of command output across runs and worker counts


def _simulate_body(tmp_path, tag, workers):
    out = tmp_path / f"det-{tag}.csv"
    rc = main(["simulate", "--scheme", "STC_SYNC", "--r", "0.25", "--trials",
               "100000", "--seed", "5", "--snr-db", "0:15:5",
               "--workers", str(workers), "--out", str(out)])
    assert rc == 0
    return [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]


def test_criterion_9_determinism(record_criterion, tmp_path):
    title = "byte-identical CSV bodies across reruns and workers 1/4/8"
    bodies = [_simulate_body(tmp_path, f"w{w}", w) for w in (1, 4, 8)]
    bodies.append(_simulate_body(tmp_path, "w1-rerun", 1))
    ok = all(b == bodies[0] for b in bodies[1:])
    # a fully deterministic command must reproduce byte-for-byte too
    for i in (0, 1):
        rc = main(["tradeoff", "--k", "2", "--out",
                   str(tmp_path / f"t{i}.csv")])
        assert rc == 0
    t1 = (tmp_path / "t0.csv").read_text()
    t2 = (tmp_path / "t1.csv").read_text()
    ok = ok and (t1.replace("t0.csv", "") == t2.replace("t1.csv", ""))
    record_criterion(9, title, ok,
                     f"{len(bodies)} bodies compared, {len(bodies[0])} lines each")
    assert ok
