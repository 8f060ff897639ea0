"""Outage probabilities: Monte Carlo engine, semi-analytic oracles, slope fits.

An outage event at operating point (snr, r) is {I < R} with
R = r log2(1 + snr sigma2_sd).  Per-case curves report the JOINT probability
Pr[I < R, |D| = j] by default (those carry the per-row diversity slopes and
sum to the overall outage); conditional probabilities are available either
analytically or by forcing the decoding set in the simulator.

Monte Carlo draws: each trial takes its five squared link gains as
exponentials and the relays' phase difference from one uniform, since the
MI kernels read the two relay gains only through their squares and their
coherent sum.  Trials are grouped into fixed blocks of 32768 and the Philox
counters of each block's two streams derive from its first trial index, so
the draws for trial t depend only on (seed, t).  Workers split whole blocks
and results merge by summation; worker count can never change the numbers.

Every scheme's MI is at least a floor that grows with the direct gain
alone: 0.5 log2(1 + rho0 g_sd), or the ISI rate 0.5 esd(rho0 g_sd) for
ASTC and MIX_AF.  So at each snr point a trial whose direct gain reaches a
cut a little above the floor's inverse at the rate is never in outage.  A
block sorts its rows below the grid's loosest cut by direct gain once, and
each point decides only the prefix below its own cut.
"""

from __future__ import annotations

import concurrent.futures
import csv
import enum
import functools
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._quad import gl_nodes
from .channel import (D_BOTH, D_NONE, D_R1, D_R2, LINKS, NetworkConfig,
                      RatePoint, decoding_set_probs, relay_failure_prob)
from .errors import ConfigError, NumericError
from .mutualinfo import (DelayConfig, LinkRecord, SchemeId, _cos_window_means,
                         _direct_cuts, _window_phase, check_scheme, record_below)
from .waveform import CorrelationSet

BLOCK_TRIALS = 32768
_MIN_TRIALS, _MAX_TRIALS = 10 ** 4, 2 ** 34  # the cap lists 2^19 blocks, hours of work
_COUNTER_STRIDE = 64  # Philox counters (4 words each) reserved per trial, which uses 6 variates
_LN2 = math.log(2.0)
_WILSON_Z = 1.96        # two-sided 95% normal quantile of wilson_interval
_FIT_REL_CI_MAX = 0.3   # slope_fit drops points whose interval is wider than this share

# Gauss-Legendre node counts of the oracles
_STC_NODES = 240        # analytic_outage_stc, per product-pair integral
_PARALLEL3_NODES = 120  # analytic_outage_parallel3, per nested level
_RTDA2_DIRECT = 24      # analytic_outage_rtda2: direct-gain deficit, as 1 - e^(-s/2),
_RTDA2_SPLIT = 16       # split angle on [0, pi/4] (the split rule folded at q = 1/2),
_RTDA2_PHASE = 12       # and relative relay phase, by midpoints (fractional t0*bw only)
_RTDA2_JENSEN_KEEP = math.log(1e9)  # Jensen roots with N = 1/y below 1e-9 are kept

_RTDA2_NEWTON_CAP = 50  # rtda2 step cap: 5 seen at -20..3000 dB, r 0.1-0.49, t0*bw 1+1e-6..12.3


class ConditionalCase(str, enum.Enum):
    OVERALL = "overall"
    D0 = "d0"
    D1 = "d1"
    D2 = "d2"


# the decoding sets of each case; a forced case is its first set, so a forced d1 is relay 1
_CASE_SETS = {ConditionalCase.D0: (D_NONE,), ConditionalCase.D1: (D_R1, D_R2),
              ConditionalCase.D2: (D_BOTH,)}


def _check_grid(snr_grid) -> tuple[float, ...]:
    """The snr grid of a request as a tuple of floats; ConfigError unless it
    is non-empty, finite-positive and strictly increasing."""
    snr = tuple(float(s) for s in np.atleast_1d(np.asarray(snr_grid, dtype=float)))
    if not snr or not all(0.0 < s < math.inf for s in snr):
        raise ConfigError("snr grid must be positive")
    if any(b <= a for a, b in zip(snr, snr[1:])):
        raise ConfigError("snr grid must be strictly increasing")
    return snr


def _check_forced(cond: ConditionalCase, forced: bool) -> None:
    """ConfigError for a request that forces the decoding set of the overall case."""
    if forced and cond == ConditionalCase.OVERALL:
        raise ConfigError("force_set requires a specific decoding-set case")


@dataclass(frozen=True)
class OutageCurve:
    """One outage-vs-snr curve with confidence intervals.

    conditioned distinguishes Pr[I < R | case] (decoding set forced) from the
    default joint Pr[I < R, case].  trials == 0 marks analytic curves, whose
    intervals collapse onto the value.
    """

    scheme: str
    r: float
    cond: ConditionalCase
    conditioned: bool
    snr: tuple[float, ...]
    outage: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    trials: int
    censored: tuple[bool, ...]

    @property
    def snr_db(self) -> tuple[float, ...]:
        return tuple(10.0 * math.log10(s) for s in self.snr)


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval; zero counts get the rule-of-three [0, 3/n]."""
    if n <= 0:
        raise ConfigError("n must be positive")
    if k == 0:
        return 0.0, 3.0 / n
    ph = k / n
    z = _WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (ph + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(ph * (1.0 - ph) / n + z2 / (4.0 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo engine


def _draw_gains(cfg: NetworkConfig, seed: int, first_trial: int, count: int):
    """(g_sd, g_sr1, g_sr2, g1, g2, u) for trials [first_trial,
    first_trial+count): the five squared gains in LINKS order and the
    uniform u of the relays' phase difference.

    A CN(0, s^2) gain's squared magnitude is s^2 Exp(1), and the engine
    reads no phase but the relays' difference psi, uniform and independent
    of the magnitudes, and that only through cos psi.  So a trial draws the
    five squared gains as exponentials and one uniform u for psi, from which
    _coherent_sum(g1, g2, u) forms the coherent sum of the rows a block
    keeps.  The two are trial-major Philox streams on one key, the
    uniforms' counter 2^128 up, from the first trial index times a stride
    above what a trial uses.
    """
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    sigma2 = np.array([getattr(cfg, "sigma2_" + link) for link in LINKS])
    exp, uni = (np.random.Generator(np.random.Philox(
        key=key, counter=c + int(first_trial) * _COUNTER_STRIDE)) for c in (0, 2 ** 128))
    # one contiguous row per link: every snr point reads them again
    gains = np.multiply(exp.standard_exponential((count, 5)).T, sigma2[:, None], order="C")
    return (*gains, uni.random(count))


def _coherent_sum(g1, g2, u):
    """g1 + g2 + 2 sqrt(g1 g2) cos psi at psi = pi (1 - u), formed as
    (sqrt g1 - sqrt g2)^2 + 4 sqrt(g1 g2) sin^2(pi u / 2): a sum of
    non-negative terms, so it keeps its relative precision as psi -> pi,
    where the plain sum cancels.  sin(pi u / 2) is 2t / (1 + t^2) with
    t = tan(pi u / 4) in [0, 1) for u in [0, 1): numpy vectorises float64
    tan on AVX-512 hosts, and not sin."""
    s1, s2 = np.sqrt(g1), np.sqrt(g2)
    t = np.tan((0.25 * math.pi) * u)
    half = 2.0 * t / (1.0 + t * t)
    return (s1 - s2) ** 2 + 4.0 * (s1 * s2) * (half * half)


def _run_block(scheme: SchemeId, cfg: NetworkConfig, r: float, snr: tuple[float, ...],
               seed: int, cond: ConditionalCase, force_set: bool,
               corr: CorrelationSet | None, delays: DelayConfig | None,
               block: tuple[int, int]) -> np.ndarray:
    """Outage-and-case counts for one (first trial, count) block at every grid snr.

    Every scheme's MI is at least a floor in the direct gain
    (_direct_cuts), so a trial whose direct gain reaches a point's cut is
    not in outage there.  The block keeps the rows below the loosest cut of
    the grid, sorted once by direct gain, forms the relays' coherent sum on
    those rows only, and each point decides the prefix below its own cut, a
    view of those rows; the cuts need not fall with snr.  Verdicts are per
    row and the counts ignore row order, so they equal the counts of
    deciding every row.
    """
    first_trial, count = block
    g_sd, gsr1, gsr2, g1, g2, u = _draw_gains(cfg, seed, first_trial, count)
    points = [RatePoint(s, r, cfg.sigma2_sd) for s in snr]
    cuts = _direct_cuts(scheme, [(pt.rho0, pt.rate) for pt in points], corr, delays)
    keep = np.flatnonzero(g_sd < max(cuts))
    order = keep[np.argsort(g_sd[keep])]
    g_sd, gsr1, gsr2, g1, g2, u = (v[order] for v in (g_sd, gsr1, gsr2, g1, g2, u))
    links = LinkRecord(g_sd, g1, g2, _coherent_sum(g1, g2, u))
    counts = np.zeros(len(snr), dtype=np.int64)
    case = None if cond == ConditionalCase.OVERALL else _CASE_SETS[cond][0]
    if force_set:
        m1_all = np.full(g_sd.size, case.r1)
        m2_all = np.full(g_sd.size, case.r2)
    for i, (pt, cut) in enumerate(zip(points, cuts)):
        n = int(np.searchsorted(g_sd, cut))
        if force_set:
            m1, m2 = m1_all[:n], m2_all[:n]
        else:
            thr = pt.decode_threshold
            m1 = gsr1[:n] >= thr
            m2 = gsr2[:n] >= thr
        below = record_below(scheme, LinkRecord(*(v[:n] for v in links)), m1, m2,
                             pt.rho0, pt.rate, corr, delays)
        if case is not None and not force_set:
            below &= (m1.astype(np.int8) + m2.astype(np.int8)) == case.r1 + case.r2
        counts[i] = int(np.count_nonzero(below))
    return counts


def mc_outage(scheme, r: float, snr_grid, trials: int, seed: int,
              cond: ConditionalCase = ConditionalCase.OVERALL, *,
              cfg: NetworkConfig | None = None,
              corr: CorrelationSet | None = None,
              delays: DelayConfig | None = None,
              force_set: bool = False,
              workers: int = 1) -> OutageCurve:
    """Monte Carlo outage curve over an increasing grid of linear snr values.

    force_set=True conditions on the decoding set (the case is imposed on
    every trial instead of derived from the source-relay links), matching the
    conditional analytic oracles.  Otherwise per-case curves are joint
    probabilities.  Results are exactly reproducible from (seed, trials) and
    independent of the worker count.
    """
    scheme = check_scheme(scheme, corr, delays)
    cond = ConditionalCase(cond)
    cfg = cfg or NetworkConfig()
    if not _MIN_TRIALS <= trials <= _MAX_TRIALS:
        raise ConfigError(f"trials must lie in [10^4, 2^34], got {trials}")
    snr = _check_grid(snr_grid)
    _check_forced(cond, force_set)
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    run = functools.partial(_run_block, scheme, cfg, float(r), snr, int(seed), cond,
                            bool(force_set), corr, delays)
    blocks = [(first, min(BLOCK_TRIALS, trials - first))
              for first in range(0, trials, BLOCK_TRIALS)]
    if workers == 1 or len(blocks) == 1:
        parts = [run(block) for block in blocks]
    else:
        # the pool forks all its workers at once: never more than there are blocks
        pool_size = min(workers, len(blocks))
        with concurrent.futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(run, blocks, chunksize=1))
    counts = np.sum(parts, axis=0)

    outage, lo, hi, cens = [], [], [], []
    for k in counts:
        outage.append(int(k) / trials)
        a, b = wilson_interval(int(k), trials)
        lo.append(a)
        hi.append(b)
        cens.append(bool(k == 0))
    return OutageCurve(scheme.value, float(r), cond, bool(force_set), snr,
                       tuple(outage), tuple(lo), tuple(hi), int(trials), tuple(cens))


# ---------------------------------------------------------------------------
# Semi-analytic oracles


def two_exp_pdf(y, lam1: float, lam2: float):
    """Density of the sum of two independent exponentials.

    lam1 lam2 / (lam1 - lam2) * (exp(-lam2 y) - exp(-lam1 y)), with the
    analytic equal-rate limit lam^2 y exp(-lam y) below a 1e-9 relative gap.
    """
    y = np.asarray(y, dtype=float)
    if lam1 <= 0 or lam2 <= 0:
        raise ConfigError("rates must be positive")
    if abs(lam1 - lam2) < 1e-9 * max(lam1, lam2):
        lam = 0.5 * (lam1 + lam2)
        return lam * lam * y * np.exp(-lam * y)
    c = lam1 * lam2 / (lam1 - lam2)
    return c * (np.exp(-lam2 * y) - np.exp(-lam1 * y))


def _cdf_exp(x, lam: float):
    return -np.expm1(-lam * np.maximum(x, 0.0))


def _exp_cdf_scaled(lam: float, rho0: float):
    """s -> Pr[1 + rho0 X < e^s] for X ~ Exp(lam)."""
    return lambda s: _cdf_exp(np.expm1(s) / rho0, lam)


def _product_pair_outage(inner_cdf, relay_density, log_t, rho0: float, nodes: int):
    """Pr[Z (1 + rho0 Y) < T] for Y ~ relay_density and an independent Z >= 1
    with inner_cdf(s) = Pr[Z < e^s]; log_t = ln T may be an array.

    The rule runs over u = ln(1 + rho0 Y) on [0, ln T].  On the linear gain
    scale the integrand peaks within 1/rho0 of zero, and a Gauss-Legendre
    rule over [0, (T - 1)/rho0] misses that peak once T passes about 1e4,
    underestimating outage.
    """
    log_t = np.asarray(log_t, dtype=float)[..., None]
    x, w = gl_nodes(0.0, 1.0, nodes)
    u = log_t * x
    vals = inner_cdf(log_t - u) * relay_density(np.expm1(u) / rho0) * np.exp(u) / rho0
    return (vals @ w) * log_t[..., 0]


def _compose(p_out, cfg: NetworkConfig, pt: RatePoint, cond: ConditionalCase,
             conditioned: bool) -> float:
    """One case's outage from p_out, Pr[out | D] for each decoding set D an
    oracle covers: the forced set's value if conditioned, else the joint sum
    of Pr[D] Pr[out | D] over the case's sets (overall: d0 + d1 + d2).
    ConfigError for a set p_out lacks, or conditioned with the overall case.
    """
    cond = ConditionalCase(cond)
    _check_forced(cond, conditioned)
    cases = tuple(_CASE_SETS) if cond == ConditionalCase.OVERALL else (cond,)
    if any(d not in p_out for c in cases for d in _CASE_SETS[c]):
        covered = [c.value for c, sets in _CASE_SETS.items() if all(d in p_out for d in sets)]
        raise ConfigError(f"the analytic oracle covers cond={','.join(covered)} only")
    if conditioned:
        return p_out[_CASE_SETS[cond][0]]
    probs = decoding_set_probs(cfg, pt)
    return sum(sum(probs[d] * p_out[d] for d in _CASE_SETS[c]) for c in cases)


def analytic_outage_stc(cfg: NetworkConfig, r: float, snr: float,
                        cond: ConditionalCase = ConditionalCase.OVERALL,
                        conditioned: bool = False) -> float:
    """Outage of the synchronous scheme by exact CDFs and 1-D quadrature.

    The direct-only case is an exponential CDF evaluated exactly; one- and
    two-relay cases integrate the exact inner CDF against the relay-sum
    density.  Per-case results are joint probabilities unless conditioned.
    The forced single-relay case refers to relay 1.
    """
    pt = RatePoint(float(snr), float(r), cfg.sigma2_sd)
    rho0 = pt.rho0
    log_t = 2.0 * _LN2 * pt.rate
    lam_sd = cfg.lam("sd")
    lam1 = cfg.lam("r1d")
    lam2 = cfg.lam("r2d")
    direct = _exp_cdf_scaled(lam_sd, rho0)

    def pair(density):
        return float(_product_pair_outage(direct, density, log_t, rho0, _STC_NODES))

    p_out = {
        D_NONE: relay_failure_prob(lam_sd, pt),  # Pr[0.5 log2(1 + rho0 g_sd) < R]: the decode rule
        D_R1: pair(lambda y: lam1 * np.exp(-lam1 * y)),
        D_R2: pair(lambda y: lam2 * np.exp(-lam2 * y)),
        D_BOTH: pair(lambda y: two_exp_pdf(y, lam1, lam2)),
    }
    return _compose(p_out, cfg, pt, cond, conditioned)


def analytic_outage_parallel3(cfg: NetworkConfig, r: float, snr: float,
                              conditioned: bool = False, *,
                              cond: ConditionalCase = ConditionalCase.D2) -> float:
    """Both-relays outage of the three-independent-path product-rate reference.

    Pr[(1+rho0 X)(1+rho0 Y1)(1+rho0 Y2) < (1+snr)^{2r}]: the slope reference
    for ISI-aware space-time decoding with both relays on (pulse-shape
    corrections shift the curve, not its decay exponent).  Joint by default
    (multiplied by Pr[|D| = 2]).  It covers cond d2 only: ConfigError for
    any other case.
    """
    pt = RatePoint(float(snr), float(r), cfg.sigma2_sd)
    rho0 = pt.rho0
    lam_sd = cfg.lam("sd")
    lam1 = cfg.lam("r1d")
    lam2 = cfg.lam("r2d")
    direct = _exp_cdf_scaled(lam_sd, rho0)

    def pair(log_rem):
        return _product_pair_outage(direct, lambda y: lam1 * np.exp(-lam1 * y),
                                    log_rem, rho0, _PARALLEL3_NODES)

    p = float(_product_pair_outage(pair, lambda y: lam2 * np.exp(-lam2 * y),
                                   2.0 * _LN2 * pt.rate, rho0, _PARALLEL3_NODES))
    return _compose({D_BOTH: p}, cfg, pt, cond, conditioned)


def analytic_outage_rtda2(cfg: NetworkConfig, r: float, snr: float, t0bw: float,
                          conditioned: bool = False, *,
                          cond: ConditionalCase = ConditionalCase.D2) -> float:
    """Both-relays outage of the repetition delay-diversity scheme.

    With 1 + rho0 g_sd = T e^-s (T = 4^R) the rate misses the target iff
    the relay sum nu = g1 + g2 lies below (T / rho0) L, where the level L
    (_rtda2_relay_level) depends on s, the split q = g1 / nu and the relay
    phase only.  So the direct gain is the outer variable, s over [0, ln T],
    and the relay sum's mass below the level is exact: with c = lam1 q +
    lam2 (1 - q), Pr[nu < m, q in dq] = lam1 lam2 G(c m) / c^2 dq
    (_gamma2_cdf).  L is the same at q and 1 - q, so the split rule, on
    q = sin^2(theta), is solved on theta < pi/4 and weighted by the mass at
    both splits.  A fractional t0*bw adds a phase axis and solves L by
    Newton's method (NumericError if it does not converge).  Joint by
    default (multiplied by Pr[|D| = 2]).  It covers cond d2 only:
    ConfigError for any other case.
    """
    if t0bw < 1.0:
        raise ConfigError("oracle needs t0*bw >= 1 (whole-period lower bound finite)")
    pt = RatePoint(float(snr), float(r), cfg.sigma2_sd)
    rho0 = pt.rho0
    log_t = 2.0 * _LN2 * pt.rate
    if log_t <= 0.0:
        return _compose({D_BOTH: 0.0}, cfg, pt, cond, conditioned)
    lam_sd = cfg.lam("sd")
    lam1 = cfg.lam("r1d")
    lam2 = cfg.lam("r2d")
    u, u_w = gl_nodes(0.0, -math.expm1(-0.5 * log_t), _RTDA2_DIRECT)
    s, s_w = -2.0 * np.log1p(-u), 2.0 * u_w / (1.0 - u)  # u = 1 - e^(-s/2): s over [0, ln T]
    theta, theta_w = gl_nodes(0.0, 0.25 * math.pi, _RTDA2_SPLIT)
    sigma = np.sin(2.0 * theta)                 # 2 sqrt(q (1 - q)), and dq = sigma dtheta
    q, p = np.sin(theta) ** 2, np.cos(theta) ** 2  # q and 1 - q
    cq, cp = lam1 * q + lam2 * p, lam1 * p + lam2 * q
    m = (4.0 ** pt.rate / rho0) * _rtda2_relay_level(s[:, None], sigma, float(t0bw), snr)
    mass = lam1 * lam2 * (_gamma2_cdf(cq * m) / (cq * cq) + _gamma2_cdf(cp * m) / (cp * cp))
    dens = lam_sd * np.exp(-lam_sd * np.expm1(log_t - s) / rho0) * np.exp(log_t - s) / rho0
    p_out = float(s_w @ (dens * ((mass.mean(axis=0) * sigma) @ theta_w)))
    return _compose({D_BOTH: p_out}, cfg, pt, cond, conditioned)


def _gamma2_cdf(u):
    """G(u) = Pr[E1 + E2 < u] = 1 - e^-u (1 + u) for unit exponentials; below
    u = 0.1, where that cancels, u^2 times its Taylor series
    sum_k (k + 1) (-u)^k / (k + 2)!."""
    small = u < 0.1
    us = np.where(small, u, 0.0)
    return np.where(small, us * us * np.polyval(_GAMMA2_TAYLOR, us), -np.expm1(-u) - u * np.exp(-u))


_GAMMA2_TAYLOR = tuple((-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(10))[::-1]


def _rtda2_relay_level(s, sigma, t0bw: float, snr: float):
    """The level L = e^-s N per node, where N solves mean log(1 + N (1 +
    sigma cos(u + phi))) = s over |u| <= h = pi t0bw, on a leading phase axis.

    Whole periods: the mean is log((1 + N + R)/2), R^2 = (1 + N)^2 -
    N^2 sigma^2, so N = 2 expm1(s) / (1 + sqrt(1 + sigma^2 expm1(-s))), and
    the phase axis has length 1.  Otherwise it holds _RTDA2_PHASE midpoints
    on [0, pi] (the mean is even and 2 pi-periodic in phi), and Newton's
    method runs on ln y, y = 1/N, for mean log(1 + y + sigma cos) - ln y = s.
    That left side is decreasing and convex in y, with slope y mean 1/(1 + y
    + sigma cos) - 1.  From Jensen's root y = (1 + sigma sinc(h) cos phi) /
    expm1(s) the first step lands below the root and every later step
    climbs; a node stops at its first later step that does not climb by
    more than the residual's roundoff, which grows like eps y.  A node whose
    Jensen root has N < 1e-9 keeps it, exact to O(N): there y times the
    inverse mean can round to 1.  Each step runs the window means on the
    nodes still moving only, with the phi-only terms computed once.
    """
    if DelayConfig(t0bw).delta1 == 1.0:
        return (-2.0 * np.expm1(-s) / (1.0 + np.sqrt(1.0 + sigma * sigma * np.expm1(-s))))[None]
    h = math.pi * t0bw
    phi = (np.arange(_RTDA2_PHASE) + 0.5) * (math.pi / _RTDA2_PHASE)
    t = np.log((1.0 + sigma * (math.sin(h) / h) * np.cos(phi)[:, None, None]) / np.expm1(s))
    shape = t.shape
    t = t.ravel()
    phase = _window_phase(phi, h)
    which = np.broadcast_to(np.arange(phi.size)[:, None, None], shape).ravel()
    s, sigma = (np.broadcast_to(v, shape).ravel() for v in (s, sigma))
    live = np.flatnonzero(t <= _RTDA2_JENSEN_KEEP)
    for k in range(_RTDA2_NEWTON_CAP):
        tl = t[live]
        y = np.exp(tl)
        mean, inv_mean = _cos_window_means(1.0 + y, sigma[live], phi[which[live]], h,
                                           tuple(v[:, which[live]] for v in phase))
        step = (mean * _LN2 - tl - s[live]) / (1.0 - y * inv_mean)
        if k:
            moving = ~(step <= 1e-13 * (1.0 + y))  # a NaN step keeps its node moving
            live, tl, step = live[moving], tl[moving], step[moving]
        if not live.size:
            break
        t[live] = tl + step
    else:
        raise NumericError(f"rtda2 threshold: Newton did not converge in {_RTDA2_NEWTON_CAP} "
                           f"steps (snr={snr}, t0bw={t0bw}; {live.size} of {t.size} nodes "
                           f"still moving, largest relative step {np.max(step):.3g})")
    return np.exp(-(t + s)).reshape(shape)


def analytic_curve(oracle, snr_grid, scheme: str, r: float,
                   cond: ConditionalCase, conditioned: bool = False) -> OutageCurve:
    """Wrap a pointwise oracle (snr -> probability) as an OutageCurve over a
    grid checked as mc_outage checks it."""
    snr = _check_grid(snr_grid)
    vals = tuple(float(oracle(s)) for s in snr)
    return OutageCurve(scheme, float(r), ConditionalCase(cond), bool(conditioned),
                       snr, vals, vals, vals, 0, tuple(v == 0.0 for v in vals))


def analytic_outage_curve(scheme, r: float, snr_grid,
                          cond: ConditionalCase = ConditionalCase.OVERALL, *,
                          cfg: NetworkConfig | None = None,
                          delays: DelayConfig | None = None,
                          conditioned: bool = False) -> OutageCurve:
    """Semi-analytic outage curve of a scheme, the counterpart of mc_outage
    (conditioned is its force_set): STC_SYNC by the exact-CDF oracle for every
    case, ASTC by the three-path reference and TDA_REPETITION by the rtda2
    oracle at delays.t0bw for d2 only.  ConfigError for any other scheme or case.
    """
    scheme = SchemeId(scheme)
    cfg = cfg or NetworkConfig()
    if scheme == SchemeId.TDA_REPETITION:
        check_scheme(scheme, delays=delays)
    oracle = {
        SchemeId.STC_SYNC: lambda s: analytic_outage_stc(cfg, r, s, cond, conditioned),
        SchemeId.ASTC: lambda s: analytic_outage_parallel3(cfg, r, s, conditioned, cond=cond),
        SchemeId.TDA_REPETITION: lambda s: analytic_outage_rtda2(cfg, r, s, delays.t0bw,
                                                                 conditioned, cond=cond),
    }.get(scheme)
    if oracle is None:
        raise ConfigError(f"no analytic oracle for scheme {scheme.value}")
    return analytic_curve(oracle, snr_grid, scheme.value, r, cond, conditioned)


# ---------------------------------------------------------------------------
# Slope fitting


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of -log10(outage) + log_order*log10(ln snr)
    against log10(snr)."""

    slope: float
    stderr: float
    intercept: float
    n_used: int
    window_db: tuple[float, float]


def slope_fit(curve: OutageCurve, window_db: tuple[float, float] | None = None,
              log_order: int = 0) -> SlopeFit:
    """Fit the decay slope of an outage curve over a dB window.

    Censored points never enter the fit; a window dominated by censored
    points, fewer than 4 usable points, or a usable span under 15 dB raise
    NumericError instead of returning a junk slope.  Points whose confidence
    interval is wider than 0.3 of the estimate are dropped as noise.

    A diversity order is an exponent up to polylog factors: outage
    c snr^-d (ln snr)^k has order d, yet its raw log-log slope over a finite
    window is lower by about k/ln(snr).  log_order = k fits d with that
    prefactor divided out; it needs snr > 1 at every usable point.
    """
    db = np.asarray(curve.snr_db)
    out = np.asarray(curve.outage)
    lo = np.asarray(curve.ci_low)
    hi = np.asarray(curve.ci_high)
    cens = np.asarray(curve.censored)
    if window_db is None:
        window_db = (float(db.min()), float(db.max()))
    in_win = (db >= window_db[0] - 1e-9) & (db <= window_db[1] + 1e-9)
    usable = in_win & ~cens & (out > 0.0)
    noisy = usable & ((hi - lo) > _FIT_REL_CI_MAX * out)
    usable &= ~noisy
    n_cens = int(np.count_nonzero(in_win & cens))
    n_use = int(np.count_nonzero(usable))
    if n_cens >= max(n_use, 1):
        raise NumericError(
            f"window {window_db} is censored-dominated ({n_cens} censored vs {n_use} usable)")
    if n_use < 4:
        raise NumericError(f"need >= 4 usable points in window {window_db}, have {n_use}")
    snr = np.asarray(curve.snr)[usable]
    if log_order and np.any(snr <= 1.0):
        raise NumericError(f"log_order={log_order} needs snr > 1 at every usable point")
    x = np.log10(snr)
    span_db = 10.0 * (x.max() - x.min())
    if span_db < 15.0 - 1e-9:
        raise NumericError(f"usable points span {span_db:.1f} dB, need >= 15")
    y = -np.log10(out[usable])
    if log_order:
        y += log_order * np.log10(np.log(snr))
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    slope, intercept = float(coef[0]), float(coef[1])
    # n_use >= 4 points at two or more distinct x: one residual, n_use - 2 dof
    sigma2 = float(res[0]) / (n_use - 2)
    stderr = math.sqrt(sigma2 / float(np.sum((x - x.mean()) ** 2)))
    return SlopeFit(slope, stderr, intercept, n_use, (float(window_db[0]), float(window_db[1])))


# ---------------------------------------------------------------------------
# CSV emission


CSV_COLUMNS = ("scheme", "r", "cond", "snr_db", "outage", "ci_low", "ci_high",
               "trials", "censored")


def write_csv(dest, schema: str, header: dict, columns, rows) -> None:
    """Write a `# schema=...` line, `# key=value` header lines in the order
    given, then the CSV rows; dest is a path or a text stream.

    The header echoes the resolved configuration so a run can be reproduced
    from its own output.
    """
    buf = io.StringIO()
    buf.write(f"# schema={schema}\n")
    for k, v in header.items():
        buf.write(f"# {k}={v}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    text = buf.getvalue()
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def write_outage_csv(dest, curves, meta: dict | None = None) -> None:
    """Write curves as outage-v1 CSV; rows use repr floats, so identical runs
    are byte-identical."""
    rows = [[c.scheme, repr(float(c.r)), c.cond.value,
             repr(10.0 * math.log10(s)), repr(float(c.outage[i])),
             repr(float(c.ci_low[i])), repr(float(c.ci_high[i])),
             c.trials, int(c.censored[i])]
            for c in curves for i, s in enumerate(c.snr)]
    write_csv(dest, "outage-v1", meta or {}, CSV_COLUMNS, rows)
