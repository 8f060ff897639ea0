import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from conftest import normal_draw_gains

from relaylab.channel import (D_BOTH, NetworkConfig, RatePoint, decoding_set_probs,
                              relay_failure_prob)
from relaylab import outage
from relaylab._quad import gl_nodes
from relaylab.errors import ConfigError, NumericError
from relaylab.mutualinfo import DelayConfig, SchemeId, _cos_window_means, record_mi
from relaylab.outage import (ConditionalCase, OutageCurve, analytic_curve,
                             analytic_outage_curve, analytic_outage_parallel3,
                             analytic_outage_rtda2, analytic_outage_stc, mc_outage, slope_fit,
                             two_exp_pdf, wilson_interval, write_csv,
                             write_outage_csv)
from relaylab.waveform import correlations, rectangular, srrc

SNR_GRID = tuple(10.0 ** (db / 10.0) for db in (0, 5, 10, 15))


def z_scores(curve, oracle_vals):
    out = []
    for i in range(len(curve.snr)):
        sd = max(1e-30, (curve.ci_high[i] - curve.ci_low[i]) / (2 * 1.96))
        out.append((curve.outage[i] - oracle_vals[i]) / sd)
    return out


# ---------------------------------------------------------------------------
# estimator plumbing


def test_wilson_interval_reference():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=2e-5)
    assert hi == pytest.approx(0.59617, abs=2e-5)
    assert wilson_interval(0, 1000) == (0.0, 3.0 / 1000)
    with pytest.raises(ConfigError):
        wilson_interval(1, 0)


def test_two_exp_pdf_normalizes_and_limits():
    for l1, l2 in ((1.0, 2.0), (0.5, 0.5), (3.0, 3.0 + 1e-12)):
        val, _ = integrate.quad(lambda y: float(two_exp_pdf(y, l1, l2)), 0, 200,
                                limit=300)
        np.testing.assert_allclose(val, 1.0, rtol=1e-9)
    # equal-rate limit is continuous
    a = float(two_exp_pdf(0.7, 1.0, 1.0))
    b = float(two_exp_pdf(0.7, 1.0, 1.0 + 1e-7))
    np.testing.assert_allclose(a, b, rtol=1e-6)
    np.testing.assert_allclose(a, 0.7 * math.exp(-0.7), rtol=1e-12)


def test_direct_outage_reference():
    # the direct-link outage term of the oracles: R = 1, threshold 3/10, and a
    # link with sigma2_sd = 1/10 puts lam * threshold at 3, so 1 - e^{-3}
    pt = RatePoint(15.0, 0.25, 1.0)
    cfg = NetworkConfig(sigma2_sd=0.1)
    got = relay_failure_prob(cfg.lam("sd"), pt)
    np.testing.assert_allclose(got, 1.0 - math.exp(-3.0), rtol=0, atol=1e-16)
    np.testing.assert_allclose(got, 0.950212931632136, rtol=1e-15)
    assert relay_failure_prob(cfg.lam("sd"), RatePoint(15.0, 0.0, 1.0)) == 0.0
    with pytest.raises(ConfigError):
        NetworkConfig(sigma2_sd=-1.0)
    with pytest.raises(ConfigError):
        RatePoint(15.0, -0.25, 1.0)


# ---------------------------------------------------------------------------
# analytic oracles: internal consistency


def test_stc_cases_sum_to_overall(unit_cfg):
    for snr in SNR_GRID:
        parts = [analytic_outage_stc(unit_cfg, 0.25, snr, c)
                 for c in (ConditionalCase.D0, ConditionalCase.D1, ConditionalCase.D2)]
        total = analytic_outage_stc(unit_cfg, 0.25, snr, ConditionalCase.OVERALL)
        np.testing.assert_allclose(sum(parts), total, rtol=1e-10)


def test_stc_conditional_vs_joint(unit_cfg):
    from relaylab.channel import D_BOTH, decoding_set_probs
    snr = 10.0
    pt = RatePoint(snr, 0.25, 1.0)
    w = decoding_set_probs(unit_cfg, pt)[D_BOTH]
    joint = analytic_outage_stc(unit_cfg, 0.25, snr, ConditionalCase.D2)
    condl = analytic_outage_stc(unit_cfg, 0.25, snr, ConditionalCase.D2,
                                conditioned=True)
    np.testing.assert_allclose(joint, w * condl, rtol=1e-12)


def test_parallel3_dominates_repetition_pair(unit_cfg):
    # independent per-path codebooks beat combining the relay pair coherently:
    # log2(1+a) + log2(1+b) >= log2(1+a+b) pointwise
    for snr in SNR_GRID:
        p3 = analytic_outage_parallel3(unit_cfg, 0.2, snr, conditioned=True)
        stc = analytic_outage_stc(unit_cfg, 0.2, snr, ConditionalCase.D2,
                                  conditioned=True)
        assert p3 <= stc + 1e-12


# (r, snr_db) with T/rho0 <= 1e-3, T = (1+snr)^{2r}; the deep points have T
# from 1e4 to 1e13, where a quadrature on the linear gain scale loses the
# integrand's peak near zero gain
LEADING_ORDER_POINTS = ((0.1, 40), (0.2, 80), (0.2, 120), (0.3, 120), (0.4, 160))


def test_product_oracles_leading_order(unit_cfg):
    # unit-rate densities are ~1 near zero gain, so the outage tends to
    # rho0^-k times the volume of {a_i >= 1, prod a_i < T}
    for r, db in LEADING_ORDER_POINTS:
        pt = RatePoint(10.0 ** (db / 10.0), r, 1.0)
        big_t = 4.0 ** pt.rate
        ln_t = math.log(big_t)
        assert big_t / pt.rho0 <= 1e-3
        p3 = analytic_outage_parallel3(unit_cfg, r, pt.snr, conditioned=True)
        d1 = analytic_outage_stc(unit_cfg, r, pt.snr, ConditionalCase.D1,
                                 conditioned=True)
        np.testing.assert_allclose(
            p3, (big_t * (ln_t ** 2 / 2 - ln_t + 1) - 1) / pt.rho0 ** 3, rtol=1e-3,
            err_msg=f"parallel3 r={r} {db} dB")
        np.testing.assert_allclose(
            d1, (big_t * (ln_t - 1) + 1) / pt.rho0 ** 2, rtol=1e-3,
            err_msg=f"stc d1 r={r} {db} dB")


def test_stc_conditioned_overall_is_config_error(unit_cfg):
    # a forced decoding set needs a specific case, as mc_outage's force_set does
    with pytest.raises(ConfigError, match="specific decoding-set case"):
        analytic_outage_stc(unit_cfg, 0.25, 10.0, ConditionalCase.OVERALL, conditioned=True)


def test_analytic_outage_curve_serves_each_oracle():
    cfg = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    snr = (10.0, 1e4)
    for cond in ConditionalCase:
        for forced in (False, True) if cond != ConditionalCase.OVERALL else (False,):
            c = analytic_outage_curve("STC_SYNC", 0.2, snr, cond, cfg=cfg, conditioned=forced)
            assert (c.scheme, c.cond, c.conditioned, c.trials) == ("STC_SYNC", cond, forced, 0)
            assert c.outage == tuple(analytic_outage_stc(cfg, 0.2, s, cond, forced) for s in snr)
    for forced in (False, True):
        c = analytic_outage_curve(SchemeId.ASTC, 0.2, snr, "d2", cfg=cfg, conditioned=forced)
        for kw in ({}, {"cond": "d2"}):
            assert c.outage == tuple(analytic_outage_parallel3(cfg, 0.2, s, forced, **kw)
                                     for s in snr)
        c = analytic_outage_curve(SchemeId.TDA_REPETITION, 0.2, snr, "d2", cfg=cfg,
                                  delays=DelayConfig.from_t0bw(2.5), conditioned=forced)
        for kw in ({}, {"cond": "d2"}):
            assert c.outage == tuple(analytic_outage_rtda2(cfg, 0.2, s, 2.5, forced, **kw)
                                     for s in snr)
    for cond in ("d0", "d1", "overall"):
        with pytest.raises(ConfigError, match="covers cond=d2 only"):
            analytic_outage_parallel3(cfg, 0.2, 1e4, cond=cond)
        with pytest.raises(ConfigError, match="covers cond=d2 only"):
            analytic_outage_rtda2(cfg, 0.2, 1e4, 2.5, cond=cond)
    # joint d2 is Pr[D_BOTH] times the forced value
    pt = RatePoint(1e4, 0.2, cfg.sigma2_sd)
    assert analytic_outage_parallel3(cfg, 0.2, 1e4) == (
        decoding_set_probs(cfg, pt)[D_BOTH] * analytic_outage_parallel3(cfg, 0.2, 1e4, True))


@pytest.mark.parametrize("scheme, cond, kw, match", [
    ("ASTC", "d1", {}, "covers cond=d2 only"),
    ("ASTC", "overall", {}, "covers cond=d2 only"),
    ("TDA_REPETITION", "d0", {"delays": DelayConfig.from_t0bw(2.0)}, "covers cond=d2 only"),
    ("TDA_REPETITION", "d2", {}, "needs delays"),
    ("TDA_LINMOD", "d2", {}, "no analytic oracle"),
])
def test_analytic_outage_curve_coverage(scheme, cond, kw, match):
    with pytest.raises(ConfigError, match=match):
        analytic_outage_curve(scheme, 0.2, (100.0,), cond, **kw)


def test_rtda2_domain_guard(unit_cfg):
    with pytest.raises(ConfigError):
        analytic_outage_rtda2(unit_cfg, 0.25, 10.0, t0bw=0.5)


def _rtda2_by_bisection(cfg, r, snr, t0bw):
    # The oracle's (scale, split, phase) rule with the direct-gain threshold
    # found in gain units by 24 bisection steps on the exact window mean and
    # a linear interpolation across the last bracket.
    pt = RatePoint(snr, r, cfg.sigma2_sd)
    rho0 = pt.rho0
    big_t = 4.0 ** pt.rate
    lam_sd, lam1, lam2 = cfg.lam("sd"), cfg.lam("r1d"), cfg.lam("r2d")
    x_max = (big_t - 1.0) / rho0
    nu_hi = (2.0 * big_t ** (1.0 / DelayConfig.from_t0bw(t0bw).delta1) - 1.0) / rho0
    t_nodes, t_w = gl_nodes(math.log(1e-8 * x_max), math.log(nu_hi), 64)
    nu = np.exp(t_nodes)
    q_nodes, q_w = gl_nodes(0.0, 1.0, 32)
    y1 = nu[:, None] * q_nodes
    y2 = nu[:, None] * (1.0 - q_nodes)
    phi, phi_w = gl_nodes(0.0, math.pi, 12)
    phi = phi[:, None, None]
    base = 1.0 + rho0 * nu[:, None]
    bc = 2.0 * rho0 * np.sqrt(y1 * y2)

    def mean_rate(x):
        return 0.5 * _cos_window_means(base + rho0 * x, bc, phi, math.pi * t0bw)[0]

    lo = np.zeros((12,) + bc.shape)
    hi = np.full_like(lo, x_max)
    f_lo, f_hi = mean_rate(lo), mean_rate(hi)
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        f_mid = mean_rate(mid)
        below = f_mid < pt.rate
        lo, f_lo = np.where(below, mid, lo), np.where(below, f_mid, f_lo)
        hi, f_hi = np.where(below, hi, mid), np.where(below, f_hi, f_mid)
    x_star = np.where(f_lo < pt.rate, lo + (hi - lo) * (pt.rate - f_lo) / (f_hi - f_lo), 0.0)
    fx = np.tensordot(phi_w / math.pi, -np.expm1(-lam_sd * x_star), axes=(0, 0))
    dens = lam1 * lam2 * np.exp(-lam1 * y1 - lam2 * y2)
    return float(t_w @ ((fx * dens * nu[:, None] ** 2) @ q_w))


def _rtda2_unfolded(cfg, r, snr, t0bw):
    # The oracle's integral on the whole 32-node split rule: the threshold
    # solved at q and at 1 - q alike, and the relay density at (y1, y2) alone.
    pt = RatePoint(snr, r, cfg.sigma2_sd)
    rho0, big_t = pt.rho0, 4.0 ** pt.rate
    lam_sd, lam1, lam2 = cfg.lam("sd"), cfg.lam("r1d"), cfg.lam("r2d")
    x_max = (big_t - 1.0) / rho0
    nu_hi = (2.0 * big_t ** (1.0 / DelayConfig.from_t0bw(t0bw).delta1) - 1.0) / rho0
    t_lo, t_hi = math.log(1e-8 * (big_t - 1.0) / rho0), math.log(nu_hi)
    panels = math.ceil((t_hi - t_lo) / outage._RTDA2_PANEL_EFOLDS)
    edges = [t_lo + (t_hi - t_lo) * k / panels for k in range(panels)] + [t_hi]
    t_nodes, t_w = map(np.concatenate, zip(*(gl_nodes(lo, hi, 64)
                                              for lo, hi in zip(edges, edges[1:]))))
    nu = np.exp(t_nodes)
    q_nodes, q_w = gl_nodes(0.0, 1.0, 32)
    y1, y2 = nu[:, None] * q_nodes, nu[:, None] * (1.0 - q_nodes)
    bc = 2.0 * rho0 * outage._root_product(y1, y2)
    if t0bw == round(t0bw):
        big_c = 2.0 * big_t
        a_star = (big_c * big_c + bc * bc) / (2.0 * big_c)
        x_star = np.clip((a_star - 1.0 - rho0 * nu[:, None]) / rho0, 0.0, x_max)
        fx = -np.expm1(-lam_sd * np.where(bc < big_c, x_star, 0.0))
    else:
        phi, phi_w = gl_nodes(0.0, math.pi, 12)
        x_star = outage._rtda2_threshold(1.0 / rho0 + nu[None, :, None], bc / rho0,
                                         phi[:, None, None], big_t / rho0, t0bw, snr)
        fx = np.tensordot(phi_w / math.pi, -np.expm1(-lam_sd * x_star), axes=(0, 0))
    dens = lam1 * lam2 * np.exp(-lam1 * y1 - lam2 * y2)
    return float(t_w @ ((fx * dens * nu[:, None] ** 2) @ q_w))


def test_rtda2_matches_exact_bisection(unit_cfg):
    # The Newton threshold against bisection on the same exact window mean;
    # the old 96-node frequency rule missed these by up to 11% (t0bw 1e6+0.5).
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    for r, db, t0bw, cfg in ((0.25, 65, 2.5, unit_cfg), (0.2, 120, 2.5, unit_cfg),
                             (0.25, 60, 1e6 + 0.5, unit_cfg),
                             (0.25, 60, 2.0000001, unit_cfg), (0.25, 40, 1.7, asym)):
        snr = 10.0 ** (db / 10.0)
        got = analytic_outage_rtda2(cfg, r, snr, t0bw, conditioned=True)
        np.testing.assert_allclose(got, _rtda2_by_bisection(cfg, r, snr, t0bw),
                                   rtol=1e-10, atol=0, err_msg=f"r={r} {db} dB t0bw={t0bw}")


def _rtda2_threshold_full_grid(base, swing, phi, level, t0bw, snr):
    # outage._rtda2_threshold without the active set or the x = 0 screen:
    # every Newton step evaluates the window means on the whole grid.
    h = math.pi * t0bw
    a = np.maximum(base, level - swing * (math.sin(h) / h) * np.cos(phi))
    target = math.log2(level)
    done = np.zeros(a.shape, dtype=bool)
    for _ in range(outage._RTDA2_NEWTON_CAP):
        mean, inv_mean = _cos_window_means(a, swing, phi, h)
        step = (target - mean) * math.log(2.0) / inv_mean
        done |= step <= 1e-14 * a
        if done.all():
            break
        a = np.where(done, a, a + step)
    else:
        raise NumericError(f"full-grid Newton did not converge (snr={snr}, t0bw={t0bw})")
    return a - base


def _rtda2_outcome(cfg, r, snr, t0bw, conditioned):
    try:
        return analytic_outage_rtda2(cfg, r, snr, t0bw, conditioned=conditioned)
    except (NumericError, ArithmeticError) as exc:  # the two solves must fail alike
        return type(exc)


def test_rtda2_active_set_equals_full_grid(unit_cfg, monkeypatch):
    # Same float operations per node in the same order: equal to the last bit
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    for cfg, r, db, t0bw in ((unit_cfg, 0.25, 60, 2.5), (asym, 0.1, 0, 1 + 1e-6),
                             (unit_cfg, 0.4, 40, 1.5), (asym, 0.25, 160, 3.7),
                             (unit_cfg, 0.1, 80, 12.3), (asym, 0.4, 120, 1e6 + 0.5),
                             (asym, 0.4, 0, 3.7), (unit_cfg, 0.25, 40, 12.3),
                             (asym, 0.1, 140, 1 + 1e-6), (unit_cfg, 0.4, 3000, 2.5)):
        snr = 10.0 ** (db / 10.0)
        got = _rtda2_outcome(cfg, r, snr, t0bw, True)
        joint = _rtda2_outcome(cfg, r, snr, t0bw, False)
        with monkeypatch.context() as m:
            m.setattr(outage, "_rtda2_threshold", _rtda2_threshold_full_grid)
            want = _rtda2_outcome(cfg, r, snr, t0bw, True)
        assert got == want, f"r={r} {db} dB t0bw={t0bw}"
        if isinstance(want, float):
            pt = RatePoint(snr, r, cfg.sigma2_sd)
            assert joint == decoding_set_probs(cfg, pt)[D_BOTH] * want
        else:
            assert joint == want


def test_rtda2_folded_split_matches_the_whole_rule(unit_cfg):
    # Solving the split rule's nodes q < 1/2 only changes rounding: 7 of the
    # 32 nodes are not exact float mirrors, and the two densities add first.
    # The largest gap is 3 ulps (t0bw 1 + 1e-6, 1100 dB), 4.4e-16 relative.
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    cases = [(unit_cfg, 0.25, 60, 2.5), (asym, 0.1, 0, 1 + 1e-6), (unit_cfg, 0.4, 40, 1.5),
             (asym, 0.25, 160, 3.7), (unit_cfg, 0.1, 80, 12.3), (asym, 0.4, 120, 1e6 + 0.5),
             (asym, 0.4, 0, 3.7), (unit_cfg, 0.25, 40, 12.3), (asym, 0.1, 140, 1 + 1e-6),
             (unit_cfg, 0.4, 3000, 2.5)]
    cases += [(cfg, r, db, 2.0) for cfg in (unit_cfg, asym) for r in (0.1, 0.4)
              for db in (0, 60, 160)]
    cases += [(unit_cfg, 0.1, db, 1.0 + 1e-6) for db in (1000, 1100, 1200)]
    for cfg, r, db, t0bw in cases:
        snr = 10.0 ** (db / 10.0)
        got = _rtda2_outcome(cfg, r, snr, t0bw, True)
        try:
            want = _rtda2_unfolded(cfg, r, snr, t0bw)
        except (NumericError, OverflowError):  # the oracle raises an overflow as NumericError
            want = NumericError
        if isinstance(want, float):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0,
                                       err_msg=f"r={r} {db} dB t0bw={t0bw}")
        else:
            assert got == want, f"r={r} {db} dB t0bw={t0bw}"


@pytest.mark.parametrize("t0bw", (2.0, 2.5, 1.7, 12.3))
def test_rtda2_is_exactly_symmetric_under_a_relay_swap(t0bw):
    cfg = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    swapped = NetworkConfig(cfg.sigma2_sd, cfg.sigma2_sr2, cfg.sigma2_sr1,
                            cfg.sigma2_r2d, cfg.sigma2_r1d)
    for db in range(0, 161, 20):
        snr = 10.0 ** (db / 10.0)
        for conditioned in (True, False):
            assert (analytic_outage_rtda2(cfg, 0.25, snr, t0bw, conditioned)
                    == analytic_outage_rtda2(swapped, 0.25, snr, t0bw, conditioned)), \
                (db, conditioned)


def test_rtda2_screen_settles_only_rows_newton_leaves():
    # Nodes at x = 0 whose target log2(level) = 0 lies within 1e-3 bits of
    # the whole-period lower bound, many of them between it and the mean:
    # the screen may settle only the ones the full-grid loop leaves at x = 0.
    base = 2.0 ** np.linspace(-1e-3, 1e-3, 64)[None, :, None]
    swing = base[0] * np.geomspace(1e-6, 1e-2, 32)
    phi = gl_nodes(0.0, math.pi, 12)[0][:, None, None]
    for t0bw in (1.5, 2.5, 12.3):
        got = outage._rtda2_threshold(base, swing, phi, 1.0, t0bw, 0.0)
        want = _rtda2_threshold_full_grid(base, swing, phi, 1.0, t0bw, 0.0)
        assert np.array_equal(got, want), t0bw
        assert 0 < np.count_nonzero(want) < want.size


def test_rtda2_step_cap_reports_the_nodes_still_moving(unit_cfg, monkeypatch):
    monkeypatch.setattr(outage, "_RTDA2_NEWTON_CAP", 2)
    with pytest.raises(NumericError, match=r"did not converge in 2 steps .*; \d+ of 12288 "
                                           r"nodes still moving, largest relative step \S+\)"):
        analytic_outage_rtda2(unit_cfg, 0.25, 1e6, 2.5)


def test_rtda2_whole_period_past_the_float_range_of_c_squared(unit_cfg):
    # From about 1570 dB at r = 0.49, C^2 = (2T)^2 overflows: the closed-form
    # threshold then takes C/2 + B (B/C)/2, so the curve keeps falling by the
    # same factor per 100 dB (it rose 2x at 1600 dB when the overflowed
    # threshold was clipped to its top)
    vals = [analytic_outage_rtda2(unit_cfg, 0.49, 10.0 ** (db / 10.0), 2.0, conditioned=True)
            for db in (1400, 1500, 1600, 1700, 3000)]
    ratios = [a / b for a, b in zip(vals, vals[1:4])]
    assert max(ratios) / min(ratios) < 1.01, ratios
    assert 0.0 < vals[-1] < vals[3]


def test_rtda2_newton_steps_stay_well_under_the_cap(unit_cfg, monkeypatch):
    # Window-mean evaluations per oracle call, one per Newton step.  The
    # Clausen form errs by about 1e-15 in absolute, not relative, terms, and
    # the step <= 1e-14 a stop must still fire: the full sweep (-20..1000 dB
    # every 10 dB, r 0.1-0.49, two configs, t0bw 1 + 1e-6, 2.5 and 12.3)
    # takes at most 9, and so does this subset of it and the deep-analytic
    # curve (t0bw 2.5, r 0.25, 40-80 dB)
    evals = []
    means = outage._cos_window_means

    def counted(*args):
        evals[-1] += 1
        return means(*args)

    monkeypatch.setattr(outage, "_cos_window_means", counted)
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    cases = [(unit_cfg, 0.25, db, 2.5) for db in range(40, 81, 5)]
    cases += [(cfg, r, db, t0bw) for cfg in (unit_cfg, asym) for r in (0.1, 0.49)
              for t0bw in (1.0 + 1e-6, 2.5, 12.3) for db in range(-20, 1001, 170)]
    for cfg, r, db, t0bw in cases:
        evals.append(0)
        analytic_outage_rtda2(cfg, r, 10.0 ** (db / 10.0), t0bw, conditioned=True)
    assert max(evals[:9]) <= outage._RTDA2_NEWTON_CAP // 5, evals[:9]
    assert max(evals) <= 9, evals


def test_rtda2_scale_panels_hold_the_curve_at_extreme_snr(unit_cfg, monkeypatch):
    # At t0bw = 1 + 1e-6 (delta1 = 1/2) the relay-sum range spans 65-74
    # e-folds at 1000-1200 dB; one 64-node rule over it read outage x snr^2.4
    # 1.00, 0.82 and 0.52 there.  Panels of at most 32 e-folds stay within 2%
    # of one 256-node rule, which reads 0.842-0.847.
    def curve():
        return [analytic_outage_rtda2(unit_cfg, 0.1, 10.0 ** (db / 10.0), 1.0 + 1e-6,
                                      conditioned=True) for db in (1000, 1100, 1200)]

    got = curve()
    monkeypatch.setattr(outage, "_RTDA2_SCALE", 256)
    monkeypatch.setattr(outage, "_RTDA2_PANEL_EFOLDS", 1e9)
    np.testing.assert_allclose(got, curve(), rtol=0.02, atol=0)


@pytest.mark.parametrize("t0bw", (2.5, 12.3))
def test_rtda2_threshold_meets_the_target_when_r_underflows(monkeypatch, t0bw):
    # At 3000 dB the relay sums are near 1e-250 in units of rho0, so y1 y2
    # and (A - B)(A + B) underflow; with B and R from the rooted factors
    # every node Newton moves ends on the root
    solve = outage._rtda2_threshold
    residuals = []

    def checked(base, swing, phi, level, t0bw_, snr):
        x = solve(base, swing, phi, level, t0bw_, snr)
        a, b, ph = np.broadcast_arrays(base + x, swing, phi)
        mean = _cos_window_means(a.ravel(), b.ravel(), ph.ravel(), math.pi * t0bw_)[0]
        target = math.log2(level)
        moved = x.ravel() > 0.0
        residuals.append(np.max(np.abs(mean[moved] - target)) / abs(target))
        assert np.all(mean[~moved] >= target)
        return x

    monkeypatch.setattr(outage, "_rtda2_threshold", checked)
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        p = analytic_outage_rtda2(asym, 0.1, 1e300, t0bw, conditioned=True)
    assert p == 0.0 and residuals[0] < 1e-14


# ---------------------------------------------------------------------------
# Monte Carlo engine vs oracles


def test_mc_matches_analytic_all_cases(unit_cfg):
    for cond in ConditionalCase:
        curve = mc_outage(SchemeId.STC_SYNC, 0.25, SNR_GRID, 100_000, 42, cond,
                          cfg=unit_cfg)
        ana = [analytic_outage_stc(unit_cfg, 0.25, s, cond) for s in SNR_GRID]
        zs = z_scores(curve, ana)
        assert max(abs(z) for z in zs) < 4.0, (cond, zs)


def test_mc_forced_set_conditional(unit_cfg):
    curve = mc_outage(SchemeId.STC_SYNC, 0.25, SNR_GRID, 100_000, 43,
                      ConditionalCase.D2, cfg=unit_cfg, force_set=True)
    ana = [analytic_outage_stc(unit_cfg, 0.25, s, ConditionalCase.D2,
                               conditioned=True) for s in SNR_GRID]
    assert max(abs(z) for z in z_scores(curve, ana)) < 4.0


def test_rtda2_agrees_with_mc(unit_cfg):
    # forced-d2 repetition Monte Carlo against the conditioned oracle, on its
    # closed-form (t0bw 2) and Newton (t0bw 2.5) branches
    grid = [10.0 ** (db / 10.0) for db in (0, 10, 20)]
    for t0bw in (2.0, 2.5):
        curve = mc_outage(SchemeId.TDA_REPETITION, 0.25, grid, 2 ** 16, 44,
                          ConditionalCase.D2, cfg=unit_cfg,
                          delays=DelayConfig.from_t0bw(t0bw), force_set=True)
        ana = [analytic_outage_rtda2(unit_cfg, 0.25, s, t0bw, conditioned=True) for s in grid]
        zs = z_scores(curve, ana)
        assert max(abs(z) for z in zs) <= 4.0, (t0bw, zs)


def test_mc_joint_cases_partition_overall(unit_cfg):
    # the case masks partition the trial set, so joint counts sum exactly
    curves = {c: mc_outage(SchemeId.STC_SYNC, 0.25, SNR_GRID, 20_000, 9, c,
                           cfg=unit_cfg) for c in ConditionalCase}
    for i in range(len(SNR_GRID)):
        parts = sum(curves[c].outage[i] for c in
                    (ConditionalCase.D0, ConditionalCase.D1, ConditionalCase.D2))
        np.testing.assert_allclose(parts, curves[ConditionalCase.OVERALL].outage[i],
                                   rtol=0, atol=1e-12)


def test_mc_seed_determinism(unit_cfg):
    a = mc_outage(SchemeId.STC_SYNC, 0.1, SNR_GRID, 20_000, 5, cfg=unit_cfg)
    b = mc_outage(SchemeId.STC_SYNC, 0.1, SNR_GRID, 20_000, 5, cfg=unit_cfg)
    assert a.outage == b.outage
    c = mc_outage(SchemeId.STC_SYNC, 0.1, SNR_GRID, 20_000, 6, cfg=unit_cfg)
    assert a.outage != c.outage


def test_mc_workers_identical(unit_cfg):
    a = mc_outage(SchemeId.STC_SYNC, 0.1, SNR_GRID, 70_000, 5, cfg=unit_cfg,
                  workers=1)
    b = mc_outage(SchemeId.STC_SYNC, 0.1, SNR_GRID, 70_000, 5, cfg=unit_cfg,
                  workers=3)
    assert a.outage == b.outage
    assert a.ci_low == b.ci_low


def test_mc_workers_capped_at_block_count(unit_cfg, monkeypatch):
    # a pool never gets more workers than there are blocks to run
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(outage.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    trials = 2 * outage.BLOCK_TRIALS + 10_000  # three blocks
    a = mc_outage(SchemeId.STC_SYNC, 0.1, SNR_GRID, trials, 5, cfg=unit_cfg, workers=10 ** 6)
    b = mc_outage(SchemeId.STC_SYNC, 0.1, SNR_GRID, trials, 5, cfg=unit_cfg, workers=1)
    assert seen and max(seen) <= 3
    assert a.outage == b.outage


def test_mc_async_schemes_run(unit_cfg):
    corr = correlations(srrc(0.5, 1, 64), 0.5)
    delays = DelayConfig.from_t0bw(2.0)
    for scheme, kw in ((SchemeId.TDA_INDEP, {"delays": delays}),
                       (SchemeId.TDA_REPETITION, {"delays": delays}),
                       (SchemeId.TDA_LINMOD, {"corr": corr}),
                       (SchemeId.ASTC, {"corr": corr}),
                       (SchemeId.MIX_AF, {"corr": corr})):
        curve = mc_outage(scheme, 0.2, (1.0, 10.0), 10_000, 11, cfg=unit_cfg, **kw)
        assert all(0.0 <= p <= 1.0 for p in curve.outage)
        # outage decays with snr
        assert curve.outage[1] <= curve.outage[0]


def test_mc_validation(unit_cfg):
    for trials in (5_000, 2 ** 34 + 1):
        with pytest.raises(ConfigError, match=r"trials must lie in \[10\^4, 2\^34\]"):
            mc_outage(SchemeId.STC_SYNC, 0.1, SNR_GRID, trials, 1, cfg=unit_cfg)
    with pytest.raises(ConfigError):
        mc_outage(SchemeId.TDA_INDEP, 0.1, SNR_GRID, 10_000, 1, cfg=unit_cfg)


# ---------------------------------------------------------------------------
# fading draws: exponential squared gains, complex normals for the relay pair

UNEQUAL_CFG = NetworkConfig(0.5, 1.0, 2.0, 3.0, 4.0)


def test_draws_are_row_prefixes_and_blocks_differ():
    # trial t's draws depend only on (seed, t): a shorter block is a row
    # prefix of a longer one from the same first trial, in every array
    short = outage._draw_gains(UNEQUAL_CFG, 3, 32768, 1000)
    long = outage._draw_gains(UNEQUAL_CFG, 3, 32768, 20000)
    for a, b in zip(short, long):
        np.testing.assert_array_equal(a, b[:1000])
    # and blocks at other first trials, or of another seed, share no value
    for other in (outage._draw_gains(UNEQUAL_CFG, 3, 0, 1000),
                  outage._draw_gains(UNEQUAL_CFG, 3, 65536, 1000),
                  outage._draw_gains(UNEQUAL_CFG, 4, 32768, 1000)):
        for a, b in zip(short, other):
            assert not np.any(np.isin(a, b))


def test_squared_gains_follow_the_normal_sampler():
    # each link's squared gain against |z|^2 of the all-normal oracle sampler,
    # on an independent seed: two-sample Kolmogorov-Smirnov, rejected at p < 1e-6
    n = 2 ** 17
    g_sd, g_sr1, g_sr2, r1d, r2d = outage._draw_gains(UNEQUAL_CFG, 31, 0, n)
    ref = normal_draw_gains(UNEQUAL_CFG, 32, 0, n)
    ref = (*ref[:3], np.abs(ref[3]) ** 2, np.abs(ref[4]) ** 2)
    for got, want, s2 in zip((g_sd, g_sr1, g_sr2, np.abs(r1d) ** 2, np.abs(r2d) ** 2), ref,
                             (0.5, 1.0, 2.0, 3.0, 4.0)):
        assert stats.ks_2samp(got, want).pvalue >= 1e-6, s2
        assert np.mean(got) == pytest.approx(s2, rel=0.02)


@pytest.mark.parametrize("scheme, kw", [
    pytest.param(SchemeId.STC_SYNC, {}, id="STC_SYNC"),
    pytest.param(SchemeId.TDA_LINMOD, {"corr": correlations(rectangular(1, 64), 0.5)},
                 id="TDA_LINMOD-rect1"),
    pytest.param(SchemeId.TDA_INDEP, {"delays": DelayConfig.from_t0bw(2.5)},
                 id="TDA_INDEP-t0bw2.5")])
def test_mc_counts_follow_the_normal_sampler(monkeypatch, scheme, kw):
    # the engine's counts on the two samplers, independent seeds, at 0:30:10 dB:
    # a two-sample binomial |z| <= 4.9 (two-sided p about 1e-6) at every point
    n = 2 ** 17
    grid = tuple(10.0 ** (db / 10.0) for db in (0, 10, 20, 30))
    got = mc_outage(scheme, 0.25, grid, n, 41, cfg=UNEQUAL_CFG, **kw).outage
    monkeypatch.setattr(outage, "_draw_gains", normal_draw_gains)
    want = mc_outage(scheme, 0.25, grid, n, 42, cfg=UNEQUAL_CFG, **kw).outage
    for p1, p2 in zip(got, want):
        pool = 0.5 * (p1 + p2)
        assert abs(p1 - p2) <= 4.9 * math.sqrt(pool * (1.0 - pool) * 2.0 / n), (p1, p2)


@pytest.mark.parametrize("engine", ("mc", "analytic"))
@pytest.mark.parametrize("grid, cond, forced, match", [
    pytest.param((), "d2", False, "snr grid must be positive", id="empty"),
    pytest.param((1e6, 10.0), "d2", False, "strictly increasing", id="decreasing"),
    pytest.param((0.0, 10.0), "d2", False, "snr grid must be positive", id="zero"),
    pytest.param((math.nan,), "d2", False, "snr grid must be positive", id="nan"),
    pytest.param(SNR_GRID, "overall", True, "requires a specific", id="forced-overall"),
])
def test_request_rule_both_engines(engine, grid, cond, forced, match, unit_cfg):
    # one request rule: both engines refuse the same grids and forced case alike
    with pytest.raises(ConfigError, match=match):
        if engine == "mc":
            mc_outage("STC_SYNC", 0.1, grid, 10_000, 1, cond, cfg=unit_cfg, force_set=forced)
        else:
            analytic_outage_curve("STC_SYNC", 0.1, grid, cond, cfg=unit_cfg,
                                  conditioned=forced)


# ---------------------------------------------------------------------------
# bound screening: the engine's counts are the kernel's counts


def _kernel_verdicts(scheme, links, m1, m2, rho0, rate, corr=None, delays=None):
    # the unscreened verdicts on the block's record, one snr point per call
    return record_mi(scheme, links, m1, m2, rho0, corr, delays) < rate


# (r, cond, forced): every case at r=0.25 jointly, the forced sets at r=0.45;
# the delay sweep runs the overall and forced-d2 curves
ALL_CURVES = ((0.25, ConditionalCase.OVERALL, False), (0.25, ConditionalCase.D0, False),
              (0.25, ConditionalCase.D1, False), (0.25, ConditionalCase.D2, False),
              (0.45, ConditionalCase.OVERALL, False), (0.45, ConditionalCase.D1, True),
              (0.45, ConditionalCase.D2, True))
WINDOW_CURVES = ((0.25, ConditionalCase.OVERALL, False), (0.45, ConditionalCase.OVERALL, False),
                 (0.45, ConditionalCase.D2, True))
SCREEN_GRID = tuple(10.0 ** (db / 10.0) for db in range(0, 61, 15))


def _screen_cases():
    rect1 = correlations(rectangular(1, 64), 0.5)
    srrc1 = correlations(srrc(0.5, 1, 64), 0.5)
    srrc2 = correlations(srrc(0.5, 2, 64), 0.3)
    cases = [pytest.param(SchemeId.STC_SYNC, {}, ALL_CURVES, id="STC_SYNC"),
             pytest.param(SchemeId.TDA_LINMOD, {"corr": rect1}, ALL_CURVES,
                          id="TDA_LINMOD-rect1")]
    for scheme in (SchemeId.ASTC, SchemeId.MIX_AF):
        for name, corr in (("rect1", rect1), ("srrc1", srrc1), ("srrc2", srrc2)):
            cases.append(pytest.param(scheme, {"corr": corr}, ALL_CURVES,
                                      id=f"{scheme.value}-{name}"))
    for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
        for t0bw in (0.0, 1e-6, 0.3, 2.0, 2.5, 6.0):
            cases.append(pytest.param(scheme, {"delays": DelayConfig.from_t0bw(t0bw)},
                                      ALL_CURVES if t0bw == 2.5 else WINDOW_CURVES,
                                      id=f"{scheme.value}-t0bw{t0bw:g}"))
    return cases


@pytest.mark.parametrize("scheme, kw, which", _screen_cases())
def test_screened_counts_equal_kernel_counts(unit_cfg, monkeypatch, scheme, kw, which):
    def curves():
        return [mc_outage(scheme, r, SCREEN_GRID, 10_000, 21, cond, cfg=unit_cfg,
                          force_set=forced, **kw).outage
                for r, cond, forced in which]

    screened = curves()
    monkeypatch.setattr(outage, "record_below", _kernel_verdicts)
    assert screened == curves()


@pytest.mark.parametrize("scheme, kw", [
    pytest.param(SchemeId.ASTC, {"corr": correlations(srrc(0.5, 2, 64), 0.3)}, id="ASTC-srrc2"),
    pytest.param(SchemeId.MIX_AF, {"corr": correlations(rectangular(1, 64), 0.5)},
                 id="MIX_AF-rect1"),
    pytest.param(SchemeId.TDA_INDEP, {"delays": DelayConfig.from_t0bw(2.5)},
                 id="TDA_INDEP-t0bw2.5")])
def test_screened_counts_across_workers(unit_cfg, monkeypatch, scheme, kw):
    # two blocks: counts depend only on (seed, trial index), never on the workers
    grid = tuple(10.0 ** (db / 10.0) for db in (0, 20, 40))
    trials = outage.BLOCK_TRIALS + 10_000
    runs = [mc_outage(scheme, 0.45, grid, trials, 22, cfg=unit_cfg, workers=w, **kw).outage
            for w in (1, 2, 1)]
    monkeypatch.setattr(outage, "record_below", _kernel_verdicts)
    kernel = mc_outage(scheme, 0.45, grid, trials, 22, cfg=unit_cfg, **kw).outage
    assert runs == [kernel] * 3


# ---------------------------------------------------------------------------
# slope fitting


def synthetic_curve(slope, scale=1.0, db=range(40, 81, 5), trials=10 ** 9,
                    log_order=0):
    snr = tuple(10.0 ** (d / 10.0) for d in db)
    out = tuple(scale * s ** -slope * math.log(s) ** log_order for s in snr)
    width = tuple(1e-6 * o for o in out)
    return OutageCurve("STC_SYNC", 0.1, ConditionalCase.OVERALL, False, snr, out,
                       tuple(o - w for o, w in zip(out, width)),
                       tuple(o + w for o, w in zip(out, width)),
                       trials, (False,) * len(snr))


def test_slope_fit_exact_power_law():
    fit = slope_fit(synthetic_curve(2.0))
    np.testing.assert_allclose(fit.slope, 2.0, rtol=0, atol=1e-6)
    assert fit.n_used == 9
    # 3 - 6r at r = 0.25 with a scale factor
    fit = slope_fit(synthetic_curve(1.5, scale=40.0))
    np.testing.assert_allclose(fit.slope, 1.5, rtol=0, atol=1e-6)


def test_slope_fit_log_order():
    curve = synthetic_curve(2.6, scale=0.5, log_order=2)
    fit = slope_fit(curve, log_order=2)
    np.testing.assert_allclose(fit.slope, 2.6, rtol=0, atol=1e-6)
    # the raw fit of the same curve sits about 2/ln(snr) low
    assert 0.1 < 2.6 - slope_fit(curve).slope < 0.22
    # ln(snr) must be positive at every usable point
    low = synthetic_curve(2.0, scale=1e-3, db=range(0, 41, 5))
    slope_fit(low)
    with pytest.raises(NumericError):
        slope_fit(low, log_order=2)


def test_slope_fit_refusals():
    c = synthetic_curve(2.0)
    with pytest.raises(NumericError):
        slope_fit(c, (40.0, 50.0))  # span too short
    censored = OutageCurve(c.scheme, c.r, c.cond, c.conditioned, c.snr,
                           (0.0,) * len(c.snr), (0.0,) * len(c.snr),
                           (3e-9,) * len(c.snr), c.trials, (True,) * len(c.snr))
    with pytest.raises(NumericError):
        slope_fit(censored)
    # wide intervals are dropped, starving the fit
    noisy = OutageCurve(c.scheme, c.r, c.cond, c.conditioned, c.snr, c.outage,
                        tuple(0.1 * o for o in c.outage),
                        tuple(3.0 * o for o in c.outage), 100, c.censored)
    with pytest.raises(NumericError):
        slope_fit(noisy)


def test_slope_fit_oracle_stc_overall(unit_cfg):
    snr_grid = [10 ** (db / 10) for db in range(40, 81, 5)]
    curve = analytic_curve(lambda s: analytic_outage_stc(unit_cfg, 0.1, s),
                           snr_grid, "STC_SYNC", 0.1, ConditionalCase.OVERALL)
    fit = slope_fit(curve, (40.0, 80.0))
    assert abs(fit.slope - 2.4) <= 0.15


def test_rtda_slope_containment(unit_cfg):
    # fitted repetition-scheme slope lands between the band edges
    # 3 - 6r/delta1 and 3 - 6r (with tolerance) for both delay regimes
    r = 0.2
    snr_grid = [10 ** (db / 10) for db in range(60, 121, 10)]
    for t0bw in (3.0, 2.5):
        delta1 = DelayConfig.from_t0bw(t0bw).delta1
        curve = analytic_curve(
            lambda s: analytic_outage_rtda2(unit_cfg, r, s, t0bw, conditioned=True),
            snr_grid, "TDA_REPETITION", r, ConditionalCase.D2, conditioned=True)
        fit = slope_fit(curve, (60.0, 120.0))
        lo = 3.0 - 6.0 * r / delta1 - 0.2
        hi = 3.0 - 6.0 * r + 0.2
        assert lo <= fit.slope <= hi, (t0bw, fit.slope, lo, hi)


# ---------------------------------------------------------------------------
# CSV emission


def test_csv_bytes_deterministic(unit_cfg):
    curve = mc_outage(SchemeId.STC_SYNC, 0.25, SNR_GRID, 10_000, 3, cfg=unit_cfg)
    a, b = io.StringIO(), io.StringIO()
    write_outage_csv(a, [curve], {"seed": 3})
    write_outage_csv(b, [curve], {"seed": 3})
    assert a.getvalue() == b.getvalue()
    body = a.getvalue()
    assert body.startswith("# schema=outage-v1\n")
    assert "scheme,r,cond,snr_db,outage,ci_low,ci_high,trials,censored" in body
    assert "np.float64" not in body


def test_csv_roundtrip_values(unit_cfg, tmp_path):
    curve = mc_outage(SchemeId.STC_SYNC, 0.25, SNR_GRID, 10_000, 3, cfg=unit_cfg)
    p = tmp_path / "out.csv"
    write_outage_csv(p, [curve], None)
    rows = [ln.split(",") for ln in p.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == len(SNR_GRID)
    got = [float(row[4]) for row in rows]
    np.testing.assert_allclose(got, curve.outage, rtol=0, atol=0)


def test_write_csv_header_order_and_destinations(tmp_path):
    header = {"command": "demo", "b": 2, "a": "x"}
    rows = [["s", 1, "0.5"], ["t,u", 2, ""]]
    buf = io.StringIO()
    write_csv(buf, "demo-v1", header, ("name", "n", "v"), rows)
    assert buf.getvalue() == ('# schema=demo-v1\n# command=demo\n# b=2\n# a=x\n'
                              'name,n,v\ns,1,0.5\n"t,u",2,\n')
    p = tmp_path / "demo.csv"
    write_csv(p, "demo-v1", header, ("name", "n", "v"), rows)
    assert p.read_bytes() == buf.getvalue().encode()


# ---------------------------------------------------------------------------
# distributional property: joint, conditional, and weights stay consistent


@settings(max_examples=25, derandomize=True, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=0.45),
       snr=st.floats(min_value=0.5, max_value=1e4))
def test_stc_oracle_probability_axioms(r, snr):
    cfg = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    vals = [analytic_outage_stc(cfg, r, snr, c) for c in ConditionalCase]
    assert all(0.0 <= v <= 1.0 for v in vals)
    overall, d0, d1, d2 = vals
    np.testing.assert_allclose(d0 + d1 + d2, overall, rtol=1e-9, atol=1e-14)
