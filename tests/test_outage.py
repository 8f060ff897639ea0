import io
import math
import tracemalloc
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from conftest import complex_coherent_sum, normal_draw_gains

from relaylab.channel import (D_BOTH, NetworkConfig, RatePoint, decoding_set_probs,
                              relay_failure_prob)
from relaylab import mutualinfo, outage
from relaylab._quad import gl_nodes
from relaylab.errors import ConfigError, NumericError
from relaylab.mutualinfo import (DelayConfig, LinkRecord, SchemeId, _cos_window_means,
                                 record_below, record_mi)
from relaylab.outage import (ConditionalCase, OutageCurve, analytic_curve,
                             analytic_outage_curve, analytic_outage_parallel3,
                             analytic_outage_rtda2, analytic_outage_stc, mc_outage, slope_fit,
                             two_exp_pdf, wilson_interval, write_csv,
                             write_outage_csv)
from relaylab.waveform import correlations, rectangular, srrc

_LN2 = math.log(2.0)
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
    # The opposite order of integration: per (split, phase) node the relay sum
    # is outermost, on ln nu over [ln nu_b - 18, ln nu_b] below the boundary
    # nu_b at which the relays alone meet the target (the integrand falls
    # like nu^2 below it), and the direct-gain threshold x* < (T - 1)/rho0 of
    # each node gives F_sd(x*).  nu_b and x* come from 50 bisection steps on
    # the exact window mean.  The split q = sin^2(theta) runs over both
    # halves of [0, pi/2], unfolded; the integrand is nearly kinked at
    # theta = pi/4 (equal gains) at high snr, so each half has its own rule.
    # The phase takes the oracle's 12 midpoints: that rule's own error, up
    # to 3.1e-7, is test_rtda2_node_refinement's to bound.
    pt = RatePoint(snr, r, cfg.sigma2_sd)
    rho0, target = pt.rho0, 2.0 * pt.rate
    big_t = 2.0 ** target
    lam_sd, lam1, lam2 = cfg.lam("sd"), cfg.lam("r1d"), cfg.lam("r2d")
    h = math.pi * t0bw
    half, half_w = gl_nodes(0.0, 0.25 * math.pi, 16)
    theta, theta_w = np.concatenate((half, 0.5 * math.pi - half)), np.concatenate((half_w, half_w))
    sigma = np.sin(2.0 * theta)[:, None]
    phi = ((np.arange(12) + 0.5) * (math.pi / 12))[:, None, None]

    def rate(x, nu):
        return _cos_window_means(1.0 + rho0 * (x + nu), rho0 * nu * sigma, phi, h)[0]

    def bisect(rate_at, lo, hi):
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            below = rate_at(mid) < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    # the mean is at least log2((1 + rho0 nu)/2) / 2: nu_b lies below 2 T^2 / rho0
    top = np.full((12, 32, 1), math.log(2.0 * big_t * big_t / rho0))
    ln_nu_b = bisect(lambda t: rate(0.0, np.exp(t)), top - 80.0, top)
    t, t_w = gl_nodes(-18.0, 0.0, 32)
    nu = np.exp(ln_nu_b + t)
    x_star = bisect(lambda x: rate(x, nu), np.zeros(nu.shape),
                    np.full(nu.shape, (big_t - 1.0) / rho0))
    c = (lam1 * np.sin(theta) ** 2 + lam2 * np.cos(theta) ** 2)[:, None]
    f = -np.expm1(-lam_sd * x_star) * lam1 * lam2 * np.exp(-c * nu) * nu * nu
    return float(np.mean(f @ t_w, axis=0) @ (sigma[:, 0] * theta_w))


def test_rtda2_matches_exact_bisection(unit_cfg):
    # The oracle against the opposite order of integration with both
    # thresholds bisected: they differ by at most 3.8e-9.  t0bw 2.0000001 is
    # where the whole-period identity hands over to the window means; at
    # -40 and -60 dB every level is below 1e-3 and takes the series of its
    # window mean
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    for r, db, t0bw, cfg in ((0.25, 65, 2.5, unit_cfg), (0.2, 120, 2.5, unit_cfg),
                             (0.25, 60, 1e6 + 0.5, unit_cfg),
                             (0.25, 60, 2.0000001, unit_cfg), (0.25, 40, 1.7, asym),
                             (0.49, -20, 12.3, asym), (0.1, 20, 2.0, asym),
                             (0.1, -40, 2.0, unit_cfg), (0.25, -40, 2.5, unit_cfg),
                             (0.25, -60, 2.5, unit_cfg)):
        snr = 10.0 ** (db / 10.0)
        got = analytic_outage_rtda2(cfg, r, snr, t0bw, conditioned=True)
        np.testing.assert_allclose(got, _rtda2_by_bisection(cfg, r, snr, t0bw),
                                   rtol=1e-8, atol=0, err_msg=f"r={r} {db} dB t0bw={t0bw}")


def _rtda2_level_full_grid(s, sigma, t0bw, snr):
    # The level L = e^-s N at a fractional t0bw, every node solving its own
    # level by Newton's method in ln y, y = 1/N: mean log(1 + y + sigma cos)
    # - ln y = s is decreasing and convex in ln y, so from Jensen's root every
    # later step climbs, and a node stops at its first later step that does
    # not climb by more than the residual's roundoff.  A Jensen root with N
    # below 1e-9 is kept, exact to O(N).  The window means run on the whole
    # grid at every step, each row with its own phase terms.
    h = math.pi * t0bw
    phi = ((np.arange(outage._RTDA2_PHASE) + 0.5) * (math.pi / outage._RTDA2_PHASE))[:, None, None]
    t = np.log((1.0 + sigma * (math.sin(h) / h) * np.cos(phi)) / np.expm1(s))
    done = t > math.log(1e9)
    for k in range(outage._RTDA2_NEWTON_CAP):
        y = np.exp(t)
        mean, inv_mean = _cos_window_means(1.0 + y, sigma, phi, h)
        with np.errstate(divide="ignore", invalid="ignore"):  # the kept Jensen roots
            step = (mean * math.log(2.0) - t - s) / (1.0 - y * inv_mean)
        if k:
            done |= step <= 1e-13 * (1.0 + y)
        if done.all():
            break
        t = np.where(done, t, t + step)
    else:
        raise NumericError(f"full-grid Newton did not converge (snr={snr}, t0bw={t0bw})")
    return np.exp(-(t + s))


def _whole_period_level(s, sigma, t0bw, snr):
    # N = 2 expm1(s) / (1 + sqrt(1 + sigma^2 expm1(-s))) inverts the
    # whole-period mean log((1 + N + R)/2), R^2 = (1 + N)^2 - sigma^2 N^2
    return (-2.0 * np.expm1(-s) / (1.0 + np.sqrt(1.0 + sigma * sigma * np.expm1(-s))))[None]


# fractional t0bw from 1 + 1e-6 to 1e6 + 0.5, 0 to 3000 dB, both link configurations
RTDA2_FRACTIONAL_CASES = (
    (False, 0.25, 60, 2.5), (True, 0.1, 0, 1 + 1e-6), (False, 0.4, 40, 1.5),
    (True, 0.25, 160, 3.7), (False, 0.1, 80, 12.3), (True, 0.4, 120, 1e6 + 0.5),
    (True, 0.4, 0, 3.7), (False, 0.25, 40, 12.3), (True, 0.1, 140, 1 + 1e-6),
    (False, 0.4, 3000, 2.5), (True, 0.25, -100, 2.5))


def _rtda2_unfolded(cfg, r, snr, t0bw):
    # The oracle's integral on the whole split, theta on [0, pi/2]: its 16
    # nodes and their mirrors pi/2 - theta, the upper limits and the level
    # nodes taken at each, and the relay-sum mass taken at each node's own
    # split only.
    pt = RatePoint(snr, r, cfg.sigma2_sd)
    rho0, log_t = pt.rho0, 2.0 * math.log(2.0) * pt.rate
    lam_sd, lam1, lam2 = cfg.lam("sd"), cfg.lam("r1d"), cfg.lam("r2d")
    half, half_w = gl_nodes(0.0, 0.25 * math.pi, outage._RTDA2_SPLIT)
    theta = np.concatenate((half, 0.5 * math.pi - half))
    sigma = np.sin(2.0 * theta)
    s_t = outage._rtda2_upper_limits(log_t, sigma, t0bw, snr)
    u, u_w = (np.swapaxes(v, 1, 2)
              for v in gl_nodes(0.0, -np.expm1(-0.5 * s_t), outage._RTDA2_DIRECT))
    s, s_w = -2.0 * np.log1p(-u), 2.0 * u_w / (1.0 - u)
    mean, slope, level = outage._rtda2_level(s, sigma, t0bw)
    m = (4.0 ** pt.rate / rho0) * level
    c = lam1 * np.sin(theta) ** 2 + lam2 * np.cos(theta) ** 2
    mass = lam1 * lam2 * outage._gamma2_cdf(c * m) / (c * c)
    dens = lam_sd * np.exp(-lam_sd * np.expm1(log_t - mean) / rho0) * np.exp(log_t - mean) / rho0
    return float(np.sum(((s_w * slope * dens * mass).mean(axis=0) * sigma)
                        @ np.concatenate((half_w, half_w))))


def _rtda2_s_rule(cfg, r, snr, t0bw, level=None):
    # The rule on the direct-gain deficit s itself: one rule in
    # u = 1 - e^(-s/2) over [0, 1 - T^(-1/2)] for every line, and every node
    # solves its level S(N) = s, by the closed form at whole periods and by
    # _rtda2_level_full_grid at a fractional t0bw (24 x 16 x 12 = 4608
    # nodes), or by level(s, sigma, t0bw, snr) when given
    pt = RatePoint(snr, r, cfg.sigma2_sd)
    rho0, log_t = pt.rho0, 2.0 * math.log(2.0) * pt.rate
    lam_sd, lam1, lam2 = cfg.lam("sd"), cfg.lam("r1d"), cfg.lam("r2d")
    u, u_w = gl_nodes(0.0, -math.expm1(-0.5 * log_t), outage._RTDA2_DIRECT)
    s, s_w = -2.0 * np.log1p(-u), 2.0 * u_w / (1.0 - u)
    theta, theta_w = gl_nodes(0.0, 0.25 * math.pi, outage._RTDA2_SPLIT)
    sigma = np.sin(2.0 * theta)
    q, p = np.sin(theta) ** 2, np.cos(theta) ** 2
    cq, cp = lam1 * q + lam2 * p, lam1 * p + lam2 * q
    whole = outage._rtda2_phases(t0bw) == 1
    solve = level or (_whole_period_level if whole else _rtda2_level_full_grid)
    m = (4.0 ** pt.rate / rho0) * solve(s[:, None], sigma, t0bw, snr)
    g = outage._gamma2_cdf
    mass = lam1 * lam2 * (g(cq * m) / (cq * cq) + g(cp * m) / (cp * cp))
    dens = lam_sd * np.exp(-lam_sd * np.expm1(log_t - s) / rho0) * np.exp(log_t - s) / rho0
    return float(s_w @ (dens * ((mass.mean(axis=0) * sigma) @ theta_w)))


def _log1p_level(s, sigma, t0bw, snr):
    # The level L = e^-s N with N solved by Newton's method on a 128-point
    # Gauss-Legendre mean of log1p(N (1 + sigma cos(u + phi))) over the
    # window: exact to rounding for the small N of low snr, where the window
    # means' ln N + ln 2 mean cancels
    x, w = np.polynomial.legendre.leggauss(128)
    h = math.pi * t0bw
    phi = (np.arange(outage._RTDA2_PHASE) + 0.5) * (math.pi / outage._RTDA2_PHASE)
    c = 1.0 + sigma[..., None] * np.cos(h * x + phi[:, None, None, None])
    n = np.expm1(s) / (1.0 + sigma * (math.sin(h) / h) * np.cos(phi)[:, None, None])
    for _ in range(6):
        nc = n[..., None] * c
        n = n - (np.log1p(nc) @ w / 2.0 - s) / ((c / (1.0 + nc)) @ w / 2.0)
    return np.exp(-s) * n


def test_rtda2_level_rule_matches_the_s_rule(unit_cfg):
    # The level rule against the s-rule, at a fractional t0bw: within 4.2e-10
    # relative from -60 to 3000 dB (1e-9 asserted) while the outage is a
    # normal float, and at -100 dB, where the s-rule keeps every Jensen root.
    # From -90 to -70 dB the s-rule itself is off, by up to 8e-8 against
    # _log1p_level (test_rtda2_low_snr_matches_a_log1p_level).  The joint
    # value is Pr[|D| = 2] times the conditioned one, to the last bit
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    for is_asym, r, db, t0bw in RTDA2_FRACTIONAL_CASES:
        cfg = asym if is_asym else unit_cfg
        snr = 10.0 ** (db / 10.0)
        got = analytic_outage_rtda2(cfg, r, snr, t0bw, conditioned=True)
        pt = RatePoint(snr, r, cfg.sigma2_sd)
        assert (analytic_outage_rtda2(cfg, r, snr, t0bw)
                == decoding_set_probs(cfg, pt)[D_BOTH] * got), f"r={r} {db} dB t0bw={t0bw}"
    cases = [(asym if is_asym else unit_cfg, r, db, t0bw, 1e-9)
             for is_asym, r, db, t0bw in RTDA2_FRACTIONAL_CASES]
    cases += [(cfg, r, db, t0bw, 1e-9 if db < -90 or db > -70 else 2e-7)
              for cfg in (unit_cfg, asym) for r in (0.1, 0.49) for t0bw in (1.0 + 1e-6, 2.5, 12.3)
              for db in (-100, -90, -80, -70, *range(-60, 3001, 120))]
    for cfg, r, db, t0bw, rtol in cases:
        snr = 10.0 ** (db / 10.0)
        got = analytic_outage_rtda2(cfg, r, snr, t0bw, conditioned=True)
        np.testing.assert_allclose(got, _rtda2_s_rule(cfg, r, snr, t0bw), rtol=rtol,
                                   atol=1e-300, err_msg=f"r={r} {db} dB t0bw={t0bw}")


def test_rtda2_whole_periods_keep_the_s_rule_arithmetic(unit_cfg):
    # At whole periods the level rule is the s-rule: S = s at every node, the
    # closed-form level, and ln T, Newton's start, is each line's upper limit
    # as it stands.  Only the order of the final sums differs: 3.8e-16
    # relative at most from -100 to 3000 dB (1e-15 asserted)
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    sigma = np.sin(2.0 * gl_nodes(0.0, 0.25 * math.pi, outage._RTDA2_SPLIT)[0])
    for cfg in (unit_cfg, asym):
        for r in (0.1, 0.25, 0.49):
            for t0bw in (1.0, 2.0, 3.0):
                for db in (-100, -60, -20, 0, 20, 60, 120, 200, 400, 1000, 2000, 3000):
                    snr = 10.0 ** (db / 10.0)
                    log_t = outage._oracle_point(cfg, r, snr)[2]
                    assert np.all(outage._rtda2_upper_limits(log_t, sigma, t0bw, snr) == log_t)
                    got = analytic_outage_rtda2(cfg, r, snr, t0bw, conditioned=True)
                    np.testing.assert_allclose(got, _rtda2_s_rule(cfg, r, snr, t0bw), rtol=1e-15,
                                               atol=1e-300, err_msg=f"r={r} {db} dB t0bw={t0bw}")


def test_rtda2_low_snr_matches_a_log1p_level():
    # Below N = 1e-3 the level nodes and the upper limits take S(N)'s series:
    # within 5.8e-16 of the s-rule on _log1p_level from -100 to -50 dB, where
    # the s-rule on the window means is off by up to 8.3e-8
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    for r in (0.1, 0.49):
        for t0bw in (1.0 + 1e-6, 2.5, 12.3):
            for db in range(-100, -49, 10):
                snr = 10.0 ** (db / 10.0)
                got = analytic_outage_rtda2(asym, r, snr, t0bw, conditioned=True)
                want = _rtda2_s_rule(asym, r, snr, t0bw, _log1p_level)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0,
                                           err_msg=f"r={r} {db} dB t0bw={t0bw}")


def test_rtda2_folded_split_matches_the_whole_rule(unit_cfg):
    # The threshold at the mirrored splits differs by rounding only (the
    # mirrors' sin 2 theta are not exact float copies): 1.5e-16 relative at most
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    cases = [(asym if is_asym else unit_cfg, r, db, t0bw)
             for is_asym, r, db, t0bw in RTDA2_FRACTIONAL_CASES]
    cases += [(cfg, r, db, 2.0) for cfg in (unit_cfg, asym) for r in (0.1, 0.4)
              for db in (0, 60, 160)]
    cases += [(unit_cfg, 0.1, db, 1.0 + 1e-6) for db in (1000, 1100, 1200)]
    for cfg, r, db, t0bw in cases:
        snr = 10.0 ** (db / 10.0)
        got = analytic_outage_rtda2(cfg, r, snr, t0bw, conditioned=True)
        np.testing.assert_allclose(got, _rtda2_unfolded(cfg, r, snr, t0bw), rtol=1e-14,
                                   atol=0, err_msg=f"r={r} {db} dB t0bw={t0bw}")


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


def test_rtda2_step_cap_reports_the_nodes_still_moving(unit_cfg, monkeypatch):
    # Newton solves the upper limits only: one per (phase, split) line, 12 x 16
    monkeypatch.setattr(outage, "_RTDA2_NEWTON_CAP", 2)
    with pytest.raises(NumericError, match=r"did not converge in 2 steps .*; \d+ of 192 "
                                           r"nodes still moving, largest relative step \S+\)"):
        analytic_outage_rtda2(unit_cfg, 0.25, 1e6, 2.5)


def test_rtda2_whole_period_past_the_float_range_of_c_squared(unit_cfg):
    # At r = 0.49 the whole-period curve keeps falling by the same factor per
    # 100 dB past about 1570 dB, where C^2 = (2T)^2 leaves the float range
    vals = [analytic_outage_rtda2(unit_cfg, 0.49, 10.0 ** (db / 10.0), 2.0, conditioned=True)
            for db in (1400, 1500, 1600, 1700, 3000)]
    ratios = [a / b for a, b in zip(vals, vals[1:4])]
    assert max(ratios) / min(ratios) < 1.01, ratios
    assert 0.0 < vals[-1] < vals[3]


def test_rtda2_newton_steps_stay_well_under_the_cap(unit_cfg, monkeypatch):
    # Window-mean evaluations per oracle call: one per Newton step of the
    # upper limits and one on the level nodes.  A sweep of -150..3080 dB
    # (every 10 dB from -90 to 1000), r 0.1 to 0.4999, two configs and t0bw
    # 1 + 1e-6 to 1e6 + 0.5 takes at most 5, as do this subset of it and the
    # deep-analytic curve (t0bw 2.5, r 0.25, 40-80 dB)
    evals = []
    means = outage._cos_window_means

    def counted(*args):
        evals[-1] += 1
        return means(*args)

    monkeypatch.setattr(outage, "_cos_window_means", counted)
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    cases = [(unit_cfg, 0.25, db, 2.5) for db in range(40, 81, 5)]
    cases += [(cfg, r, db, t0bw) for cfg in (unit_cfg, asym) for r in (0.1, 0.49)
              for t0bw in (1.0 + 1e-6, 2.5, 12.3) for db in (*range(-20, 1001, 170), 3000)]
    for cfg, r, db, t0bw in cases:
        evals.append(0)
        analytic_outage_rtda2(cfg, r, 10.0 ** (db / 10.0), t0bw, conditioned=True)
    assert max(evals) <= 5, evals


@pytest.mark.parametrize("t0bw", (1.0 + 1e-6, 2.0))
def test_rtda2_reaches_its_volume_limit_at_extreme_snr(unit_cfg, t0bw):
    # With unit links the outage tends to rho0^-3 T^2 / 4 (T = snr^0.2 at
    # r = 0.1, rho0 = 2 snr / 3), so outage x snr^2.4 tends to 27/32; it is
    # within 4e-8 of it from 400 dB, also at t0bw just above one period
    got = [analytic_outage_rtda2(unit_cfg, 0.1, 10.0 ** (db / 10.0), t0bw, conditioned=True)
           * 10.0 ** (0.24 * db) for db in (400, 800, 1000, 1100, 1200)]
    np.testing.assert_allclose(got, 27.0 / 32.0, rtol=1e-7, atol=0)


@pytest.mark.parametrize("t0bw", (2.5, 12.3))
def test_rtda2_relay_level_meets_the_target_at_3000_db(t0bw):
    # At 3000 dB and r = 0.1 the outage, about rho0^-3 T^2, underflows to 0,
    # and s runs up to ln T = 138: each line's upper limit still meets the
    # target.  The last Newton step, under 1e-13 (1 + s), is applied, so the
    # residual S(s_T) - ln T is of order that step squared plus the roundoff
    # of S near 138, and stays under 2e-13 (0 measured)
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    log_t = outage._oracle_point(asym, 0.1, 1e300)[2]
    sigma = np.sin(2.0 * gl_nodes(0.0, 0.25 * math.pi, outage._RTDA2_SPLIT)[0])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        s_t = outage._rtda2_upper_limits(log_t, sigma, t0bw, 1e300)
        mean = outage._rtda2_level(s_t, sigma[:, None], t0bw)[0]
        p = analytic_outage_rtda2(asym, 0.1, 1e300, t0bw, conditioned=True)
    assert p == 0.0 and np.max(np.abs(mean - log_t)) < 2e-13


@pytest.mark.parametrize("t0bw, rtol", [(2.0, 1e-8), (2.5, 1e-6)])
def test_rtda2_node_refinement(monkeypatch, t0bw, rtol):
    # Doubling every rule moves the value by at most 6.7e-9 (whole periods,
    # worst at 200 dB) and 3e-7 (fractional t0bw, the phase rule) relative
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    points = [(r, db) for r in (0.1, 0.49) for db in (-20, 60, 200, 1000, 3000)]

    def values():
        return [analytic_outage_rtda2(asym, r, 10.0 ** (db / 10.0), t0bw, conditioned=True)
                for r, db in points]

    got = values()
    for name in ("_RTDA2_DIRECT", "_RTDA2_SPLIT", "_RTDA2_PHASE"):
        monkeypatch.setattr(outage, name, 2 * getattr(outage, name))
    np.testing.assert_allclose(got, values(), rtol=rtol, atol=0)
    assert all(v > 0.0 for v in got[:4] + got[5:])


@pytest.mark.parametrize("t0bw", (2.5, 12.3))
def test_rtda2_direct_rule_refinement(monkeypatch, t0bw):
    # Four times the direct nodes alone moves the level rule by at most
    # 6.6e-11 relative (the s-rule: 1.2e-10 at t0bw 2.5)
    asym = NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0)
    points = [(r, db) for r in (0.1, 0.49) for db in (-20, 60, 200, 1000, 3000)]

    def values():
        return [analytic_outage_rtda2(asym, r, 10.0 ** (db / 10.0), t0bw, conditioned=True)
                for r, db in points]

    got = values()
    monkeypatch.setattr(outage, "_RTDA2_DIRECT", 4 * outage._RTDA2_DIRECT)
    np.testing.assert_allclose(got, values(), rtol=1e-9, atol=0)


@pytest.mark.parametrize("t0bw", (1.0 + 1e-6, 2.5, 2.0, 12.3))
def test_rtda2_level_rule_at_3000_db_raises_no_float_error(unit_cfg, t0bw):
    # At r = 0.49 and 3000 dB the levels reach N near 1e294, where
    # (1 + N)^2 - sigma^2 N^2 would pass the float range; at r = 0.4999 and
    # 3070-3080 dB the upper limits N_T, near T = 1e308, would pass it
    # themselves, but the level rule forms y = 1/N, never N.  No float error
    # is raised, and the value is the s-rule's
    for r, db in ((0.49, 3000), (0.4999, 3070), (0.4999, 3080)):
        snr = 10.0 ** (db / 10.0)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = analytic_outage_rtda2(unit_cfg, r, snr, t0bw, conditioned=True)
        assert 0.0 < got < (1e-15 if r == 0.49 else 1.0)
        np.testing.assert_allclose(got, _rtda2_s_rule(unit_cfg, r, snr, t0bw), rtol=1e-9,
                                   atol=0, err_msg=f"r={r} {db} dB")


# ---------------------------------------------------------------------------
# Oracles on an snr grid

# -150 to 3080 dB every 95 dB: 35 points from where ln T is of order 1e-16
# to where the rtda2 upper limits pass 1e307 at r = 0.4999
GRID_SNR = 10.0 ** (np.arange(-150.0, 3081.0, 95.0) / 10.0)
GRID_CFGS = (NetworkConfig(1.0, 0.8, 1.3, 0.6, 2.0), NetworkConfig(0.5, 1.0, 2.0, 3.0, 4.0))
GRID_R = (0.1, 0.25, 0.49, 0.4999)


def _relay_swap(cfg):
    return NetworkConfig(cfg.sigma2_sd, cfg.sigma2_sr2, cfg.sigma2_sr1, cfg.sigma2_r2d,
                         cfg.sigma2_r1d)


def _rtda2_nodes(t0bw):
    return outage._rtda2_phases(t0bw) * outage._RTDA2_DIRECT * outage._RTDA2_SPLIT


# (id, main-rule nodes per point, or None for parallel3, which runs point by
#  point whatever the budget, conditioned values, exact under a relay swap,
#  oracle(cfg, r, snr, conditioned))
GRID_ORACLES = [
    *((f"stc-{c.value}", outage._STC_NODES, (False,) if c == ConditionalCase.OVERALL else
       (False, True), False,
       lambda cfg, r, s, forced, c=c: analytic_outage_stc(cfg, r, s, c, forced))
      for c in ConditionalCase),
    ("parallel3", None, (False, True), False,
     lambda cfg, r, s, forced: analytic_outage_parallel3(cfg, r, s, forced)),
    *((f"rtda2-{t0bw!r}", _rtda2_nodes(t0bw), (False, True), True,
       lambda cfg, r, s, forced, t0bw=t0bw: analytic_outage_rtda2(cfg, r, s, t0bw, forced))
      for t0bw in (1.0, 1.0 + 1e-6, 2.0, 2.5, 3.0, 3.7, 12.3)),
]


@pytest.mark.parametrize("nodes, conditioned, swap_exact, oracle",
                         [case[1:] for case in GRID_ORACLES], ids=[c[0] for c in GRID_ORACLES])
def test_grid_oracle_equals_its_scalar_calls_bit_for_bit(monkeypatch, nodes, conditioned,
                                                         swap_exact, oracle):
    # A chunk holds ten points (parallel3 one, unpatched), so the grid spans
    # four chunks and its last holds five (numpy lays out the rtda2 level
    # arrays differently from eight points up).  Values are compared with
    # ==, joint and conditioned in turn over r.  The relay swap of an oracle
    # exact under it (rtda2) must equal the unswapped grid; any other
    # oracle's swap is one more configuration
    if nodes is not None:
        monkeypatch.setattr(outage, "_ORACLE_NODES", 10 * nodes)
    for cfg in GRID_CFGS:
        for i, r in enumerate(GRID_R):
            forced = conditioned[i % len(conditioned)]
            for c in (cfg,) if swap_exact else (cfg, _relay_swap(cfg)):
                got = oracle(c, r, GRID_SNR, forced)
                assert type(got) is np.ndarray and got.shape == GRID_SNR.shape
                want = [oracle(c, r, float(s), forced) for s in GRID_SNR]
                assert all(type(v) is float for v in want)
                assert got.tolist() == want, (c, r, forced)
                assert oracle(c, r, GRID_SNR[-1:], forced).tolist() == want[-1:]
            if swap_exact:
                swapped = oracle(_relay_swap(cfg), r, GRID_SNR, forced)
                assert swapped.tolist() == want, (cfg, r, forced)


def test_analytic_curve_calls_its_oracle_once_per_grid(unit_cfg):
    calls = []

    def oracle(s):
        calls.append(s)
        return analytic_outage_stc(unit_cfg, 0.25, s)

    curve = analytic_curve(oracle, SNR_GRID, "STC_SYNC", 0.25, ConditionalCase.OVERALL)
    assert len(calls) == 1 and calls[0].tolist() == list(SNR_GRID)
    assert curve.outage == tuple(analytic_outage_stc(unit_cfg, 0.25, s) for s in SNR_GRID)


def test_grid_oracle_refusals(unit_cfg):
    with pytest.raises(ConfigError, match="scalar or a 1-D grid"):
        analytic_outage_stc(unit_cfg, 0.25, np.ones((2, 2)))
    with pytest.raises(ConfigError, match="snr must be positive"):
        analytic_outage_rtda2(unit_cfg, 0.25, np.array([10.0, -1.0]), 2.5)
    assert analytic_outage_parallel3(unit_cfg, 0.25, np.array([])).shape == (0,)


def test_rtda2_step_cap_names_the_first_point_still_moving(unit_cfg, monkeypatch):
    # -150 and -100 dB stop within two steps; 60 dB is the first point still
    # moving, and the grid reports it as its scalar call does
    monkeypatch.setattr(outage, "_RTDA2_NEWTON_CAP", 2)
    snr = 10.0 ** (np.array([-150.0, -100.0, 60.0, 80.0]) / 10.0)
    with pytest.raises(NumericError) as scalar:
        analytic_outage_rtda2(unit_cfg, 0.25, 1e6, 2.5)
    with pytest.raises(NumericError, match=r"\(snr=1000000.0, t0bw=2.5; \d+ of 192 nodes") as grid:
        analytic_outage_rtda2(unit_cfg, 0.25, snr, 2.5)
    assert str(grid.value) == str(scalar.value)
    analytic_outage_rtda2(unit_cfg, 0.25, snr[:2], 2.5)


def test_rtda2_grid_memory_is_bounded_by_its_chunk(unit_cfg):
    # 324 fractional points, 14 to a chunk: about 1.4 MB traced per point of
    # a chunk (19 MB), where one call on every point would peak near 440 MB
    snr = 10.0 ** (np.arange(-150.0, 3081.0, 10.0) / 10.0)
    per_chunk = outage._ORACLE_NODES // _rtda2_nodes(2.5)
    assert len(snr) > 20 * per_chunk
    tracemalloc.start()
    try:
        analytic_outage_rtda2(unit_cfg, 0.25, snr, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6 * per_chunk, peak


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
    # closed-form (t0bw 2) and Newton (t0bw 2.5) branches; at -40 dB and
    # r = 0.49 the outage is near 0.19 and the intervals near 1%
    for r, dbs in ((0.25, (0, 10, 20)), (0.49, (-40,))):
        grid = [10.0 ** (db / 10.0) for db in dbs]
        for t0bw in (2.0, 2.5):
            curve = mc_outage(SchemeId.TDA_REPETITION, r, grid, 2 ** 16, 44,
                              ConditionalCase.D2, cfg=unit_cfg,
                              delays=DelayConfig.from_t0bw(t0bw), force_set=True)
            ana = [analytic_outage_rtda2(unit_cfg, r, s, t0bw, conditioned=True) for s in grid]
            zs = z_scores(curve, ana)
            assert max(abs(z) for z in zs) <= 4.0, (r, t0bw, zs)


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
# fading draws: five exponential squared gains and one relay phase per trial

UNEQUAL_CFG = NetworkConfig(0.5, 1.0, 2.0, 3.0, 4.0)


def draw_record(*args):
    """_draw_gains(*args) as g_sr1, g_sr2 and the LinkRecord of every row,
    its coherent sum formed by _coherent_sum."""
    g_sd, g_sr1, g_sr2, g1, g2, u = outage._draw_gains(*args)
    return g_sr1, g_sr2, LinkRecord(g_sd, g1, g2, outage._coherent_sum(g1, g2, u))


def test_draws_are_row_prefixes_and_blocks_differ():
    # trial t's draws depend only on (seed, t): a shorter block is a row
    # prefix of a longer one from the same first trial, in every array
    short = outage._draw_gains(UNEQUAL_CFG, 3, 32768, 1000)
    long = outage._draw_gains(UNEQUAL_CFG, 3, 32768, 20000)
    assert len(short) == 6
    for a, b in zip(short, long):
        np.testing.assert_array_equal(a, b[:1000])
    # and blocks at other first trials, or of another seed, share no value
    for other in (outage._draw_gains(UNEQUAL_CFG, 3, 0, 1000),
                  outage._draw_gains(UNEQUAL_CFG, 3, 65536, 1000),
                  outage._draw_gains(UNEQUAL_CFG, 4, 32768, 1000)):
        for a, b in zip(short, other):
            assert not np.any(np.isin(a, b))


def test_squared_gains_follow_the_normal_sampler():
    # each squared gain and the relays' coherent sum against the all-normal
    # oracle sampler's (its coh is |r1d + r2d|^2 of complex normals), on an
    # independent seed: two-sample Kolmogorov-Smirnov, rejected at p < 1e-6;
    # E coh = sigma2_r1d + sigma2_r2d
    n = 2 ** 17
    g_sr1, g_sr2, links = draw_record(UNEQUAL_CFG, 31, 0, n)
    got = (g_sr1, g_sr2, *links)
    g_sd, g_sr1, g_sr2, g1, g2, z = normal_draw_gains(UNEQUAL_CFG, 32, 0, n)
    want = (g_sr1, g_sr2, g_sd, g1, g2, complex_coherent_sum(g1, g2, z))
    for name, a, b, mean in zip(("sr1", "sr2", "sd", "r1d", "r2d", "coh"), got, want,
                                (1.0, 2.0, 0.5, 3.0, 4.0, 7.0)):
        assert stats.ks_2samp(a, b).pvalue >= 1e-6, name
        assert np.mean(a) == pytest.approx(mean, rel=0.02), name


def test_coherent_sum_keeps_its_relative_precision():
    # against mpmath at 50 digits: g1 + g2 + 2 sqrt(g1 g2) cos(pi (1 - u)) to a
    # few ulps relative on random rows and on equal gains as psi -> pi
    # (u = k 2^-53), where the plain sum cancels to nothing (measured 2.0e-15
    # and 8.4e-16)
    rng = np.random.default_rng(71)
    n = 200
    u = np.concatenate([np.arange(1, 101), np.logspace(2, 50, 100, base=2.0).round()]) * 2.0 ** -53
    g = 3.0 * rng.exponential(size=n)
    rows = [(g, g, u), (3.0 * rng.exponential(size=n), 4.0 * rng.exponential(size=n),
                        rng.random(n))]
    for g1, g2, u in rows:
        got = outage._coherent_sum(g1, g2, u)
        for a, b1, b2, v in zip(got, g1, g2, u):
            with mpmath.workdps(50):
                b1, b2, v = mpmath.mpf(b1), mpmath.mpf(b2), mpmath.mpf(v)
                want = b1 + b2 + 2 * mpmath.sqrt(b1 * b2) * mpmath.cos(mpmath.pi * (1 - v))
                assert abs(a - want) <= 4e-15 * want, (a, b1, b2, v)


def test_coherent_sum_lies_between_its_extremes():
    # (sqrt g1 - sqrt g2)^2 <= coh <= (sqrt g1 + sqrt g2)^2 on every row, to
    # rounding, for equal and unequal relay variances; the phase covers the
    # half circle: coh comes within 1% of either end on a share near 6%
    for cfg in (UNEQUAL_CFG, NetworkConfig(1.0, 1.0, 1.0, 1.0, 1.0)):
        _, _, links = draw_record(cfg, 9, 0, 2 ** 16)
        s1, s2 = np.sqrt(links.g1), np.sqrt(links.g2)
        low, high = (s1 - s2) ** 2, (s1 + s2) ** 2
        tol = 4.0 * np.finfo(float).eps * high
        assert np.all(links.coh >= low - tol) and np.all(links.coh <= high + tol)
        share = (links.coh - low) / (high - low)
        for end in (share < 0.01, share > 0.99):
            assert 0.055 < np.mean(end) < 0.075


@pytest.mark.parametrize("scheme, kw", [
    pytest.param(SchemeId.STC_SYNC, {}, id="STC_SYNC"),
    pytest.param(SchemeId.TDA_LINMOD, {"corr": correlations(rectangular(1, 64), 0.5)},
                 id="TDA_LINMOD-rect1"),
    pytest.param(SchemeId.TDA_INDEP, {"delays": DelayConfig.from_t0bw(2.5)},
                 id="TDA_INDEP-t0bw2.5")])
def test_mc_counts_follow_the_normal_sampler(request, scheme, kw):
    # the engine's counts on the two samplers, independent seeds, at 0:30:10 dB:
    # a two-sample binomial |z| <= 4.9 (two-sided p about 1e-6) at every point
    n = 2 ** 17
    grid = tuple(10.0 ** (db / 10.0) for db in (0, 10, 20, 30))
    got = mc_outage(scheme, 0.25, grid, n, 41, cfg=UNEQUAL_CFG, **kw).outage
    request.getfixturevalue("normal_sampler")
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


PRODUCT_DB = (-100, -40, 0, 10, 20, 30, 60, 200, 1000, 1540, 1600, 3000)


def _product_q(scheme, links, m1, m2, rho0, corr):
    # Q of P = (1 + rho0 g_sd) Q: 1 + rho0 relay, or half the matched-filter
    # argument on TDA_LINMOD's both-relays rows
    q = 1.0 + rho0 * (links.g1 * m1 + links.g2 * m2)
    b = np.flatnonzero(m1 & m2)
    if scheme == SchemeId.TDA_LINMOD and b.size:
        q[b] = 0.5 * mutualinfo._linmod_terms(links.rows(b), rho0, corr)[1]()
    return q


@pytest.mark.parametrize("scheme, kw", [
    pytest.param(SchemeId.STC_SYNC, {}, id="STC_SYNC"),
    pytest.param(SchemeId.TDA_LINMOD, {"corr": correlations(rectangular(1, 64), 0.5)},
                 id="TDA_LINMOD-rect1-tau0.5"),
    pytest.param(SchemeId.TDA_LINMOD, {"corr": correlations(rectangular(1, 64), 0.3)},
                 id="TDA_LINMOD-rect1-tau0.3")])
def test_gain_domain_verdicts_equal_the_logarithms(scheme, kw):
    # record_below decides STC_SYNC and TDA_LINMOD by P = (1 + rho0 g_sd) Q
    # against T = 4^R; its verdicts equal record_mi(...) < rate at -100 to
    # 3000 dB (past rho0 g of 1e154 P passes the float range), on drawn rows
    # with the natural and every forced decoding set, and on rows whose
    # direct gain is built so that P lands at T (1 + k eps) and at the
    # margin's edges T 2^(+-2 slack) (1 + k eps), |k| <= 8
    corr = kw.get("corr")
    gsr1, gsr2, links = draw_record(UNEQUAL_CFG, 17, 0, 4096)
    n = links.g_sd.size
    eps = np.finfo(float).eps
    k = np.resize(np.arange(-8, 9), n)
    for db in PRODUCT_DB:
        for r in (0.1, 0.25, 0.45):
            pt = RatePoint(10.0 ** (db / 10.0), r, UNEQUAL_CFG.sigma2_sd)
            rho0, rate = pt.rho0, pt.rate
            sets = [(gsr1 >= pt.decode_threshold, gsr2 >= pt.decode_threshold)]
            sets += [(np.full(n, a), np.full(n, b)) for a in (False, True) for b in (False, True)]
            slack = 2.0 * mutualinfo._SCREEN_SLACK * (1.0 + rate)
            for m1, m2 in sets:
                msg = f"{db} dB, r {r}, sets {m1[:2]} {m2[:2]}"
                np.testing.assert_array_equal(
                    record_below(scheme, links, m1, m2, rho0, rate, **kw),
                    record_mi(scheme, links, m1, m2, rho0, **kw) < rate, err_msg=msg)
                # relay gains scaled so that Q stays below T^(1/4), then the
                # direct gain that puts P at the target
                nu = links.g1 + links.g2
                s = np.expm1(0.5 * _LN2 * rate) / (2.0 * rho0 * np.where(nu > 0.0, nu, 1.0))
                scaled = links._replace(g1=s * links.g1, g2=s * links.g2, coh=s * links.coh)
                q = _product_q(scheme, scaled, m1, m2, rho0, corr)
                for edge in (-slack, 0.0, slack):
                    target = np.exp2(2.0 * rate + edge) * (1.0 + k * eps)
                    built = scaled._replace(g_sd=(target / q - 1.0) / rho0)
                    np.testing.assert_array_equal(
                        record_below(scheme, built, m1, m2, rho0, rate, **kw),
                        record_mi(scheme, built, m1, m2, rho0, **kw) < rate,
                        err_msg=f"{msg}, edge {edge}")


# ---------------------------------------------------------------------------
# direct-gain screen: each snr point decides only the rows below its cut


def _unscreened_block(scheme, cfg, r, snr, seed, cond, force_set, corr, delays, block):
    # the engine's block loop without the screen: every row at every snr point
    first_trial, count = block
    gsr1, gsr2, links = draw_record(cfg, seed, first_trial, count)
    counts = np.zeros(len(snr), dtype=np.int64)
    case = None if cond == ConditionalCase.OVERALL else outage._CASE_SETS[cond][0]
    for i, s in enumerate(snr):
        pt = RatePoint(s, r, cfg.sigma2_sd)
        if force_set:
            m1, m2 = np.full(count, case.r1), np.full(count, case.r2)
        else:
            m1, m2 = gsr1 >= pt.decode_threshold, gsr2 >= pt.decode_threshold
        below = record_below(scheme, links, m1, m2, pt.rho0, pt.rate, corr, delays)
        if case is not None and not force_set:
            below &= (m1.astype(np.int8) + m2.astype(np.int8)) == case.r1 + case.r2
        counts[i] = np.count_nonzero(below)
    return counts


CUT_DB = (-100, 0, 30, 400, 3000)
CUT_GRID = tuple(10.0 ** (db / 10.0) for db in CUT_DB)
CUT_CURVES = ((ConditionalCase.OVERALL, False), (ConditionalCase.D0, False),
              (ConditionalCase.D1, False), (ConditionalCase.D2, False),
              (ConditionalCase.D0, True), (ConditionalCase.D1, True), (ConditionalCase.D2, True))


def _cut_cases():
    rect1 = correlations(rectangular(1, 64), 0.5)
    cases = [pytest.param(SchemeId.STC_SYNC, {}, id="STC_SYNC")]
    for tau in (0.5, 0.3):
        cases.append(pytest.param(SchemeId.TDA_LINMOD,
                                  {"corr": correlations(rectangular(1, 64), tau)},
                                  id=f"TDA_LINMOD-rect1-tau{tau}"))
    for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
        for t0bw in (0.0, 1e-6, 0.3, 2.5):
            cases.append(pytest.param(scheme, {"delays": DelayConfig.from_t0bw(t0bw)},
                                      id=f"{scheme.value}-t0bw{t0bw:g}"))
    # SRRC span 3 has r(2) != 0, so its kernel's lower bound is 0
    for span in (2, 3):
        cases.append(pytest.param(SchemeId.ASTC, {"corr": correlations(srrc(0.5, span, 64), 0.3)},
                                  id=f"ASTC-srrc{span}"))
    cases.append(pytest.param(SchemeId.MIX_AF, {"corr": rect1}, id="MIX_AF-rect1"))
    return cases


@pytest.mark.parametrize("scheme, kw", _cut_cases())
def test_screened_block_counts_equal_the_unscreened_loop(scheme, kw):
    # _run_block decides each snr point on the rows below its direct-gain cut;
    # the counts equal those of deciding every row, at -100 to 3000 dB, on a
    # partial block for every r, link configuration and case (natural and
    # forced), and on a full block for two curves.  Every scheme has a cut.
    corr, delays = kw.get("corr"), kw.get("delays")
    (cut,) = mutualinfo._direct_cuts([(1.0, 0.25)], corr, delays)
    assert 0.0 < cut < math.inf
    runs = [(cfg, r, cond, forced, (outage.BLOCK_TRIALS, 2500))
            for cfg in (NetworkConfig(), UNEQUAL_CFG) for r in (0.01, 0.25, 0.49)
            for cond, forced in CUT_CURVES]
    runs += [(UNEQUAL_CFG, 0.25, cond, forced, (0, outage.BLOCK_TRIALS))
             for cond, forced in CUT_CURVES[::6]]
    for cfg, r, cond, forced, block in runs:
        args = (scheme, cfg, r, CUT_GRID, 23, cond, forced, corr, delays, block)
        np.testing.assert_array_equal(outage._run_block(*args), _unscreened_block(*args),
                                      err_msg=f"{cfg}, r {r}, {cond.value}, forced {forced}, "
                                              f"block {block}")


@pytest.mark.parametrize("scheme, kw", _cut_cases())
def test_rows_at_the_direct_cut_are_never_below(scheme, kw):
    # rows whose direct gain is cut (1 + k eps), |k| <= 8, with drawn relay
    # gains and with relay gains of 0 (the MI is then the direct floor alone,
    # or the coherent window's log2(1 + rho0 g_sd)): under the natural and
    # every forced decoding set record_below is False on every row at or above
    # the cut, and equals record_mi(...) < rate on every row
    corr, delays = kw.get("corr"), kw.get("delays")
    gsr1, gsr2, links = draw_record(UNEQUAL_CFG, 19, 0, 2048)
    n = links.g_sd.size
    k = np.resize(np.arange(-8, 9), n)
    eps = np.finfo(float).eps
    zero = np.zeros(n)
    for db in CUT_DB:
        for r in (0.01, 0.25, 0.49):
            pt = RatePoint(10.0 ** (db / 10.0), r, UNEQUAL_CFG.sigma2_sd)
            rho0, rate = pt.rho0, pt.rate
            (cut,) = mutualinfo._direct_cuts([(rho0, rate)], corr, delays)
            assert 0.0 < cut < math.inf
            g_sd = cut * (1.0 + k * eps)
            sets = [(gsr1 >= pt.decode_threshold, gsr2 >= pt.decode_threshold)]
            sets += [(np.full(n, a), np.full(n, b)) for a in (False, True) for b in (False, True)]
            for built in (links._replace(g_sd=g_sd), LinkRecord(g_sd, zero, zero, zero)):
                for m1, m2 in sets:
                    msg = f"{db} dB, r {r}, sets {m1[:2]} {m2[:2]}, relay {built.g1[:2]}"
                    below = record_below(scheme, built, m1, m2, rho0, rate, **kw)
                    assert not below[g_sd >= cut].any(), msg
                    try:
                        want = record_mi(scheme, built, m1, m2, rho0, **kw) < rate
                    except NumericError:
                        # ASTC/MIX_AF at 3000 dB: rho0^2 g1 g2 passes the float range
                        # in the pair kernel, which a row within 8 eps of the cut
                        # never needs, as the margin keeps its MI above the rate
                        want = np.zeros(n, dtype=bool)
                    np.testing.assert_array_equal(below, want, err_msg=msg)


@pytest.mark.parametrize("scheme", [SchemeId.ASTC, SchemeId.MIX_AF])
def test_isi_cut_inverts_the_isi_rate(scheme):
    # the cut solves esd(rho0 cut; a1) = 2 rate + 2m: to 4 ulps of
    # max(1, 2 rate + 2m), esd's own roundoff (measured 2), at -100 to 3000 dB,
    # r 0.01 to 0.49 and a1 in {0, +-0.3, +-0.49}; without a pulse it is
    # expm1((2 rate + 2m) ln 2)/rho0 exactly; past the float range of
    # 2^(2 rate + 2m) the cut is inf, never NaN.  The two schemes whose MI
    # reads a1 reach the rate at the cut of an SRRC span-2 pulse (a1 != 0)
    # with the relay gains 0, where their MI is the ISI floor alone
    eps = np.finfo(float).eps
    corr = correlations(srrc(0.5, 2, 64), 0.3)
    assert corr.a1 != 0.0
    zero = np.zeros(1)
    for db in np.linspace(-100.0, 300.0, 41):
        for r in (0.01, 0.25, 0.49):
            pt = RatePoint(10.0 ** (db / 10.0), r, UNEQUAL_CFG.sigma2_sd)
            (cut,) = mutualinfo._direct_cuts([(pt.rho0, pt.rate)], corr, None)
            built = LinkRecord(np.array([cut]), zero, zero, zero)
            none = np.zeros(1, dtype=bool)
            msg = (scheme, db, r)
            assert record_mi(scheme, built, none, none, pt.rho0, corr=corr)[0] >= pt.rate, msg
            assert not record_below(scheme, built, none, none, pt.rho0, pt.rate, corr=corr)[0], msg
    for a1 in (None, 0.0, 0.3, -0.3, 0.49, -0.49):
        corr = None if a1 is None else types.SimpleNamespace(a1=a1)  # the cut reads a1 alone
        for db in np.linspace(-100.0, 3000.0, 125):
            for r in (0.01, 0.1, 0.25, 0.4, 0.49):
                pt = RatePoint(10.0 ** (db / 10.0), r, UNEQUAL_CFG.sigma2_sd)
                (cut,) = mutualinfo._direct_cuts([(pt.rho0, pt.rate)], corr, None)
                target = 2.0 * pt.rate + 4.0 * mutualinfo._screen_slack(pt.rate, None)
                if corr is None:
                    assert cut == math.expm1(target * _LN2) / pt.rho0, (db, r)
                    continue
                got = mutualinfo._esd_from_gain(np.array([cut]), a1, pt.rho0)[0]
                assert abs(got - target) <= 4.0 * eps * max(1.0, target), (a1, db, r)
        cuts = mutualinfo._direct_cuts([(1e300, 511.9), (1e300, 512.0), (1.0, 0.0)], corr, None)
        assert cuts[0] < math.inf and cuts[1] == math.inf and cuts[2] > 0.0
        assert not any(math.isnan(c) for c in cuts)


def _per_scheme_cut(scheme, rho0, rate, corr, delays):
    # the cut as it was computed per scheme before the floor became one
    # formula: the 1/t0bw margin for the delay schemes only, the ISI-rate
    # factor for ASTC and MIX_AF only
    slack = mutualinfo._SCREEN_SLACK * (1.0 + rate)
    if scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION) and delays.t0bw > 0.0:
        slack *= 1.0 + 1.0 / delays.t0bw
    margin = 2.0 * slack
    try:
        y1 = math.expm1((2.0 * rate + 2.0 * margin) * _LN2)
    except OverflowError:
        return math.inf
    cut = y1 / rho0
    if scheme in (SchemeId.ASTC, SchemeId.MIX_AF):
        a2 = 4.0 * corr.a1 * corr.a1
        cut *= 2.0 / (1.0 + math.sqrt(1.0 - a2 + a2 / (1.0 + y1)))
    return cut


@pytest.mark.parametrize("scheme, kw", _cut_cases() + [
    pytest.param(scheme, {"delays": DelayConfig.from_t0bw(2.0)}, id=f"{scheme.value}-t0bw2")
    for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION)])
def test_one_floor_cut_equals_the_per_scheme_cut(scheme, kw):
    # on the inputs each scheme reads, the one-floor cut is the per-scheme
    # cut bit for bit (every span-1 pulse has a1 = 0.0, whose ISI factor is
    # exactly 1), at -100 to 3080 dB and r 0 to 0.4999, up to the inf past
    # the float range
    corr, delays = kw.get("corr"), kw.get("delays")
    if corr is not None and corr.span == 1:
        assert corr.a1 == 0.0
    points = [(pt.rho0, pt.rate) for pt in (RatePoint(10.0 ** (db / 10.0), r)
                                            for db in np.linspace(-100.0, 3080.0, 160)
                                            for r in (0.0, 0.01, 0.25, 0.49, 0.4999))]
    want = [_per_scheme_cut(scheme, rho0, rate, corr, delays) for rho0, rate in points]
    assert mutualinfo._direct_cuts(points, corr, delays) == want


@pytest.mark.parametrize("scheme, own, extra", [
    pytest.param(SchemeId.STC_SYNC, {}, {"corr": correlations(srrc(0.5, 2, 64), 0.3)},
                 id="STC_SYNC+srrc2"),
    pytest.param(SchemeId.TDA_INDEP, {"delays": DelayConfig.from_t0bw(2.5)},
                 {"corr": correlations(srrc(0.5, 2, 64), 0.3)}, id="TDA_INDEP+srrc2"),
    pytest.param(SchemeId.ASTC, {"corr": correlations(srrc(0.5, 2, 64), 0.3)},
                 {"delays": DelayConfig.from_t0bw(1e-6)}, id="ASTC+t0bw1e-6"),
    pytest.param(SchemeId.TDA_LINMOD, {"corr": correlations(rectangular(1, 64), 0.5)},
                 {"delays": DelayConfig.from_t0bw(1e-6)}, id="TDA_LINMOD+t0bw1e-6")])
def test_an_unread_input_loosens_the_cut_and_keeps_the_counts(scheme, own, extra):
    # a pulse or delays the scheme does not read widen its cut (a looser
    # floor, or a wider margin) and leave _run_block's counts as they are,
    # for the natural and every forced decoding set
    given = {**own, **extra}
    points = [(pt.rho0, pt.rate) for pt in (RatePoint(s, 0.25) for s in CUT_GRID)]
    tight = mutualinfo._direct_cuts(points, own.get("corr"), own.get("delays"))
    loose = mutualinfo._direct_cuts(points, given.get("corr"), given.get("delays"))
    assert all(a <= b for a, b in zip(tight, loose)) and tight != loose
    for r in (0.01, 0.25, 0.49):
        for cond, forced in CUT_CURVES:
            def run(kw):
                return outage._run_block(scheme, UNEQUAL_CFG, r, CUT_GRID, 29, cond, forced,
                                         kw.get("corr"), kw.get("delays"),
                                         (outage.BLOCK_TRIALS, 2500))
            np.testing.assert_array_equal(run(given), run(own),
                                          err_msg=f"r {r}, {cond.value}, forced {forced}")


def test_an_overflowing_cut_keeps_every_row():
    # at the edge of the float range the delay window's 1/t0bw margin takes
    # 2^(2 rate + 2m) past it: the cut is inf, the block keeps every row and
    # its counts are the unscreened loop's
    delays = DelayConfig.from_t0bw(1e-6)
    cfg = NetworkConfig(sigma2_sd=1e6)
    pt = RatePoint(1e302, 0.4999, cfg.sigma2_sd)
    assert mutualinfo._direct_cuts([(pt.rho0, pt.rate)], None, delays) == [math.inf]
    for snr in ((1e302,), (1e300, 1e302)):
        args = (SchemeId.TDA_INDEP, cfg, 0.4999, snr, 5, ConditionalCase.OVERALL, False, None,
                delays, (0, 4096))
        np.testing.assert_array_equal(outage._run_block(*args), _unscreened_block(*args))


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
