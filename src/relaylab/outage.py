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

Every scheme's MI is at least one floor in the direct gain alone
(mutualinfo._direct_cuts), so at each snr point a trial whose direct gain
reaches that floor's cut is never in outage.  A block sorts its rows below
the grid's loosest cut by direct gain once, and each point decides only
the prefix below its own cut.
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
_RTDA2_DIRECT = 24      # analytic_outage_rtda2: direct rule in s, as 1 - e^(-s/2),
_RTDA2_SPLIT = 16       # split angle on [0, pi/4] (the split rule folded at q = 1/2),
_RTDA2_PHASE = 12       # and relative relay phase, by midpoints (fractional t0*bw only)
# Main-rule nodes an oracle call holds at once: a longer snr grid runs in chunks
_ORACLE_NODES = 2 ** 16

# rtda2 step cap: 4 steps seen at -150..3080 dB, r 0.1-0.4999, t0*bw 1+1e-6..1e6+0.5
_RTDA2_NEWTON_CAP = 50
# Below a level N of 1e-3 the window means' S(N) = ln N + ln 2 mean cancels; S(N) takes
# its series in z = sigma N / (1 + N) there, whose first omitted term is under 3e-16 relative
_RTDA2_SERIES_BELOW, _RTDA2_SERIES_TERMS = 1e-3, 5


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

    A trial whose direct gain reaches a point's cut (_direct_cuts) is not
    in outage there.  The block keeps the rows below the loosest cut of
    the grid, sorted once by direct gain, forms the relays' coherent sum on
    those rows only, and each point decides the prefix below its own cut, a
    view of those rows; the cuts need not fall with snr.  Verdicts are per
    row and the counts ignore row order, so they equal the counts of
    deciding every row.
    """
    first_trial, count = block
    g_sd, gsr1, gsr2, g1, g2, u = _draw_gains(cfg, seed, first_trial, count)
    points = [RatePoint(s, r, cfg.sigma2_sd) for s in snr]
    cuts = _direct_cuts([(pt.rho0, pt.rate) for pt in points], corr, delays)
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


def _exp_cdf_scaled(lam: float, rho0):
    """s -> Pr[1 + rho0 X < e^s] for X ~ Exp(lam)."""
    return lambda s: -np.expm1(-lam * np.maximum(np.expm1(s) / rho0, 0.0))


def _product_pair_outage(inner_cdf, relay_density, log_t, rho0, nodes: int):
    """Pr[Z (1 + rho0 Y) < T] for Y ~ relay_density and an independent Z >= 1
    with inner_cdf(s) = Pr[Z < e^s], at each ln T of log_t, an array whose
    first axis is the snr grid's; rho0 broadcasts against log_t's axes and
    the rule's.

    The rule runs over u = ln(1 + rho0 Y) on [0, ln T].  On the linear gain
    scale the integrand peaks within 1/rho0 of zero, and a Gauss-Legendre
    rule over [0, (T - 1)/rho0] misses that peak once T passes about 1e4,
    underestimating outage.  Each point takes its own product with the
    weights, the BLAS call of a grid of one, so its value does not depend
    on the grid it is in.
    """
    log_t = np.asarray(log_t, dtype=float)[..., None]
    x, w = gl_nodes(0.0, 1.0, nodes)
    u = log_t * x
    vals = inner_cdf(log_t - u) * relay_density(np.expm1(u) / rho0) * np.exp(u) / rho0
    return np.array([v @ w for v in vals]) * log_t[..., 0]


def _oracle_point(cfg: NetworkConfig, r: float, snr: float):
    """(pt, rho0, ln T) of an oracle at (r, snr): the rate point, its
    per-node snr and the log of its target T = 4^R."""
    pt = RatePoint(float(snr), float(r), cfg.sigma2_sd)
    return pt, pt.rho0, 2.0 * _LN2 * pt.rate


def _oracle_grid(p_out, chunk: int, sets, cfg: NetworkConfig, r: float, snr,
                 cond: ConditionalCase, conditioned: bool):
    """An oracle's outage at a scalar snr, as a float, or on a 1-D snr grid,
    as an array: a scalar is a grid of one.

    p_out(points, rho0, log_t) gives Pr[out | D] on a chunk of the grid for
    each decoding set D in sets, one value per point; it takes the chunk's
    _oracle_point terms, rho0 and ln T as arrays.  A chunk holds at most
    chunk points: STC and rtda2 set it from their main-rule nodes per point
    and _ORACLE_NODES, so a long grid never holds every point's nodes at
    once, and parallel3 sets it to 1.  Each point's case is composed from its sets' values: the forced
    set's value if conditioned, else the joint sum of Pr[D] Pr[out | D] over
    the case's sets (overall: d0 + d1 + d2).  ConfigError, before any point
    is evaluated, for a case the sets do not cover, conditioned with the
    overall case, a grid of more than one axis or an invalid rate point.
    """
    cond = ConditionalCase(cond)
    _check_forced(cond, conditioned)
    cases = tuple(_CASE_SETS) if cond == ConditionalCase.OVERALL else (cond,)
    if any(d not in sets for c in cases for d in _CASE_SETS[c]):
        covered = [c.value for c, ds in _CASE_SETS.items() if all(d in sets for d in ds)]
        raise ConfigError(f"the analytic oracle covers cond={','.join(covered)} only")
    grid = np.asarray(snr, dtype=float)
    if grid.ndim > 1:
        raise ConfigError(f"snr must be a scalar or a 1-D grid, got shape {grid.shape}")
    terms = [_oracle_point(cfg, r, s) for s in grid.ravel().tolist()]
    vals = []
    for lo in range(0, len(terms), chunk):
        points, rho0, log_t = zip(*terms[lo:lo + chunk])
        p = p_out(points, np.array(rho0), np.array(log_t))
        for i, pt in enumerate(points):
            if conditioned:
                vals.append(float(p[_CASE_SETS[cond][0]][i]))
                continue
            probs = decoding_set_probs(cfg, pt)
            vals.append(sum(sum(probs[d] * float(p[d][i]) for d in _CASE_SETS[c])
                            for c in cases))
    return vals[0] if grid.ndim == 0 else np.array(vals)


def analytic_outage_stc(cfg: NetworkConfig, r: float, snr,
                        cond: ConditionalCase = ConditionalCase.OVERALL,
                        conditioned: bool = False):
    """Outage of the synchronous scheme by exact CDFs and 1-D quadrature, at
    a scalar snr (a float) or on a 1-D grid (an array), evaluated by
    _oracle_grid in chunks of at most 273 points.

    The direct-only case is an exponential CDF evaluated exactly; one- and
    two-relay cases integrate the exact inner CDF against the relay-sum
    density.  Per-case results are joint probabilities unless conditioned.
    The forced single-relay case refers to relay 1.
    """
    lam_sd, lam1, lam2 = cfg.lam("sd"), cfg.lam("r1d"), cfg.lam("r2d")

    def p_out(points, rho0, log_t):
        direct = _exp_cdf_scaled(lam_sd, rho0[:, None])

        def pair(density):
            return _product_pair_outage(direct, density, log_t, rho0[:, None], _STC_NODES)

        return {
            # Pr[0.5 log2(1 + rho0 g_sd) < R]: the decode rule
            D_NONE: [relay_failure_prob(lam_sd, pt) for pt in points],
            D_R1: pair(lambda y: lam1 * np.exp(-lam1 * y)),
            D_R2: pair(lambda y: lam2 * np.exp(-lam2 * y)),
            D_BOTH: pair(lambda y: two_exp_pdf(y, lam1, lam2)),
        }

    return _oracle_grid(p_out, _ORACLE_NODES // _STC_NODES, (D_NONE, D_R1, D_R2, D_BOTH),
                        cfg, r, snr, cond, conditioned)


def analytic_outage_parallel3(cfg: NetworkConfig, r: float, snr,
                              conditioned: bool = False, *,
                              cond: ConditionalCase = ConditionalCase.D2):
    """Both-relays outage of the three-independent-path product-rate reference,
    at a scalar snr (a float) or on a 1-D grid (an array), evaluated by
    _oracle_grid one point at a time: _ORACLE_NODES does not apply to it.

    Pr[(1+rho0 X)(1+rho0 Y1)(1+rho0 Y2) < (1+snr)^{2r}]: the slope reference
    for ISI-aware space-time decoding with both relays on (pulse-shape
    corrections shift the curve, not its decay exponent).  Joint by default
    (multiplied by Pr[|D| = 2]).  It covers cond d2 only: ConfigError for
    any other case.
    """
    lam_sd, lam1, lam2 = cfg.lam("sd"), cfg.lam("r1d"), cfg.lam("r2d")

    def p_out(points, rho0, log_t):
        direct = _exp_cdf_scaled(lam_sd, rho0[:, None, None])

        def pair(log_rem):
            return _product_pair_outage(direct, lambda y: lam1 * np.exp(-lam1 * y),
                                        log_rem, rho0[:, None, None], _PARALLEL3_NODES)

        return {D_BOTH: _product_pair_outage(pair, lambda y: lam2 * np.exp(-lam2 * y),
                                             log_t, rho0[:, None], _PARALLEL3_NODES)}

    # One point per chunk: a point's 120 x 120 nodes fill numpy's loops
    # already, and a wider chunk only takes its temporaries past glibc's mmap
    # threshold, where the process page-faults on them afresh at each call
    return _oracle_grid(p_out, 1, (D_BOTH,), cfg, r, snr, cond, conditioned)


def analytic_outage_rtda2(cfg: NetworkConfig, r: float, snr, t0bw: float,
                          conditioned: bool = False, *,
                          cond: ConditionalCase = ConditionalCase.D2):
    """Both-relays outage of the repetition delay-diversity scheme, at a
    scalar snr (a float) or on a 1-D grid (an array), evaluated by
    _oracle_grid in chunks of at most 14 points at a fractional t0bw
    (12 x 24 x 16 nodes each) and 170 at whole periods (24 x 16).

    With 1 + rho0 g_sd = T e^-S (T = 4^R) the rate misses the target iff
    S(rho0 nu e^S / T) < S, where nu = g1 + g2 and S(N) = mean log(1 + N
    (1 + sigma cos(u + phi))) over the delay window, with sigma = 2 sqrt(q
    (1 - q)) for the split q = g1 / nu and the relay phase phi.  S(N) rises
    with N, so that is nu < m = (T / rho0) L at the level N where S(N) = S,
    L = e^-S N, and the relay sum's mass below m is exact: with c = lam1 q +
    lam2 (1 - q), Pr[nu < m, q in dq] = lam1 lam2 G(c m) / c^2 dq
    (_gamma2_cdf).  S(N) is the same at q and 1 - q, so the split rule, on
    q = sin^2(theta), is solved on theta < pi/4 and weighted by the mass at
    both splits.

    The outer variable is s, the whole-period mean at the level (S itself
    at whole periods): _rtda2_level gives S, dS/ds and L at each node, and
    each node is weighted by dS/ds.  Each (phase, split) line runs its
    direct rule by Gauss-Legendre in u = 1 - e^(-s/2) on [0, 1 -
    e^(-s_T/2)], where S(s_T) = ln T (_rtda2_upper_limits).  A chunk takes
    one Newton solve for every point's upper limits and one _rtda2_level
    call on every point's nodes.  Joint by default (multiplied by Pr[|D| =
    2]).  It covers cond d2 only: ConfigError for any other case.
    """
    if t0bw < 1.0:
        raise ConfigError("oracle needs t0*bw >= 1 (whole-period lower bound finite)")
    t0bw = float(t0bw)
    return _oracle_grid(functools.partial(_rtda2_chunk, cfg, t0bw),
                        _ORACLE_NODES // (_rtda2_phases(t0bw) * _RTDA2_DIRECT * _RTDA2_SPLIT),
                        (D_BOTH,), cfg, r, snr, cond, conditioned)


def _rtda2_phases(t0bw: float) -> int:
    """Length of the rtda2 phase axis: 1 at whole periods, where S does not
    depend on the relay phase, else _RTDA2_PHASE."""
    return 1 if DelayConfig(t0bw).delta1 == 1.0 else _RTDA2_PHASE


def _rtda2_chunk(cfg: NetworkConfig, t0bw: float, points, rho0, log_t):
    """analytic_outage_rtda2's Pr[out | D2] on a chunk of rate points, whose
    nodes carry a leading point axis.  A point with ln T <= 0 (r = 0, or 1 +
    snr sigma2_sd = 1 in floats) is never in outage."""
    lam_sd, lam1, lam2 = cfg.lam("sd"), cfg.lam("r1d"), cfg.lam("r2d")
    p = np.zeros(len(points))
    live = np.flatnonzero(log_t > 0.0)
    if not live.size:
        return {D_BOTH: p}
    theta, theta_w = gl_nodes(0.0, 0.25 * math.pi, _RTDA2_SPLIT)
    sigma = np.sin(2.0 * theta)                 # 2 sqrt(q (1 - q)), and dq = sigma dtheta
    q, pq = np.sin(theta) ** 2, np.cos(theta) ** 2  # q and 1 - q
    cq, cp = lam1 * q + lam2 * pq, lam1 * pq + lam2 * q
    pts = [points[i] for i in live]
    s_t = _rtda2_upper_limits(log_t[live], sigma, t0bw, [pt.snr for pt in pts])
    u, u_w = (np.swapaxes(v, 2, 3) for v in gl_nodes(0.0, -np.expm1(-0.5 * s_t), _RTDA2_DIRECT))
    s, s_w = -2.0 * np.log1p(-u), 2.0 * u_w / (1.0 - u)  # u = 1 - e^(-s/2)
    mean, slope, level = _rtda2_level(s, sigma, t0bw)
    m = np.array([4.0 ** pt.rate / pt.rho0 for pt in pts])[:, None, None, None] * level
    mass = lam1 * lam2 * (_gamma2_cdf(cq * m) / (cq * cq) + _gamma2_cdf(cp * m) / (cp * cp))
    log_t, rho0 = log_t[live, None, None, None], rho0[live, None, None, None]
    dens = lam_sd * np.exp(-lam_sd * np.expm1(log_t - mean) / rho0) * np.exp(log_t - mean) / rho0
    # Each point's (direct, split) sums go to BLAS in the memory order a grid
    # of one gives them: the window means' C order at a fractional t0bw, and
    # the direct rule's, split-major, at whole periods
    order = "F" if _rtda2_phases(t0bw) == 1 else "C"
    p[live] = [np.sum(np.asarray(fi.mean(axis=0) * sigma, order=order) @ theta_w)
               for fi in s_w * slope * dens * mass]
    return {D_BOTH: p}


def _rtda2_upper_limits(log_t, sigma, t0bw: float, snr):
    """s_T with S(s_T) = ln T on each (phase, split) line of each point,
    shaped (point, phase, split, 1) for a 1-D log_t and snr and (phase,
    split, 1) for scalars, by Newton's method on _rtda2_level from s = ln T,
    the root at whole periods.  S need not be convex in s, so a line stops at
    its first step under 1e-13 (1 + s), applied: the error left is of order
    that step squared.  One solve runs every point's lines; a point's lines
    all step until none of them moves and then freeze, so a point takes the
    iterates of a grid of one.  NumericError, for the first point still
    moving, if a line has not stopped in _RTDA2_NEWTON_CAP steps."""
    target = np.atleast_1d(log_t)[:, None, None, None]
    s_t = np.full((target.shape[0], _rtda2_phases(t0bw), sigma.size, 1), target)
    live = np.arange(target.shape[0])
    s = s_t  # the lines of the points still moving
    for _ in range(_RTDA2_NEWTON_CAP):
        mean, slope, _ = _rtda2_level(s, sigma[:, None], t0bw)
        step = (target - mean) / slope
        s += step
        s_t[live] = s
        moving = ~(np.abs(step) <= 1e-13 * (1.0 + s))  # a NaN step keeps its line moving
        still = moving.reshape(live.size, -1).any(axis=1)
        if not still.any():
            return s_t.reshape(np.shape(log_t) + s_t.shape[1:])
        live, s, target, step, moving = (v[still] for v in (live, s, target, step, moving))
    raise NumericError(f"rtda2 threshold: Newton did not converge in {_RTDA2_NEWTON_CAP} "
                       f"steps (snr={float(np.atleast_1d(snr)[live[0]])}, t0bw={t0bw}; "
                       f"{np.count_nonzero(moving[0])} of {moving[0].size} nodes still moving, "
                       f"largest relative step {np.max(np.abs(step[0]) / (1.0 + s[0])):.3g})")


def _gamma2_cdf(u):
    """G(u) = Pr[E1 + E2 < u] = 1 - e^-u (1 + u) for unit exponentials; below
    u = 0.1, where that cancels, u^2 times its Taylor series
    sum_k (k + 1) (-u)^k / (k + 2)!, taken at those nodes only."""
    g = -np.expm1(-u) - u * np.exp(-u)
    small = u < 0.1
    if small.any():
        us = u[small]
        g[small] = us * us * np.polyval(_GAMMA2_TAYLOR, us)
    return g


_GAMMA2_TAYLOR = tuple((-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(10))[::-1]


def _rtda2_level(s, sigma, t0bw: float):
    """(S, dS/ds, L) at the levels N whose whole-period mean is s, on the
    (phase, direct, split) axes of s, behind a grid axis if s has one:
    S(N) = mean log(1 + N (1 + sigma cos(u + phi))) over |u| <= h = pi t0bw
    and L = e^-S N.

    The whole-period mean is log((1 + N + R)/2), R^2 = (1 + N)^2 - sigma^2
    N^2, so e^-s N = L~ = 2 (1 - e^-s) / (1 + sqrt(1 + sigma^2 expm1(-s))).
    At whole periods S = s, dS/ds = 1, L = L~, and the phase axis has
    length 1.  Otherwise the phase axis holds _RTDA2_PHASE midpoints on
    [0, pi] (S is even and 2 pi-periodic in phi), and the levels are taken
    as y = 1/N = e^-s / L~, as N passes the float range near 3080 dB.  The
    window means give S = ln 2 mean - ln y, N S'(N) = 1 - y inv_mean and
    L = 2^-mean, the means of log2(1 + y + sigma cos) and its inverse.
    Below N = _RTDA2_SERIES_BELOW, where those cancel, S(N) = log1p(N) +
    mean log(1 + z cos(u + phi)), z = sigma / (1 + y) < 1, by its series in
    z, whose terms take the window means of cos^j, sums of sinc(k t0bw)
    cos(k phi); the series runs at those levels only.  dS/ds = N S'(N) /
    (1 - 1/R), where 1 - 1/R = (1 + 2y - sigma^2) / (R_y (R_y + y)), R_y =
    R / N.
    """
    level = -2.0 * np.expm1(-s) / (1.0 + np.sqrt(1.0 + sigma * sigma * np.expm1(-s)))
    if _rtda2_phases(t0bw) == 1:
        return s, 1.0, level
    h = math.pi * t0bw
    phi = (np.arange(_RTDA2_PHASE) + 0.5) * (math.pi / _RTDA2_PHASE)
    y = np.exp(-s) / level
    grid_axes = (1,) * (np.ndim(s) - 3)
    wm, inv_mean = _cos_window_means(1.0 + y, sigma, phi[:, None, None], h, tuple(
        v.reshape(2, *grid_axes, -1, 1, 1) for v in _window_phase(phi, h)))
    mean, slope, level = _LN2 * wm - np.log(y), 1.0 - y * inv_mean, np.exp2(-wm)
    series = y > 1.0 / _RTDA2_SERIES_BELOW
    if series.any():
        # The series' window means of cos^j = 2^-j sum_l C(j, l) cos((j - 2l) .)
        # come from those of cos(k (u + phi)), sinc(k t0bw) cos(k phi) (numpy's
        # sinc is sin(pi x)/(pi x))
        ys = y[series]
        z = np.broadcast_to(sigma, y.shape)[series] / (1.0 + ys)
        k = np.arange(_RTDA2_SERIES_TERMS + 1)
        harm = (np.sinc(k * t0bw)[:, None] * np.cos(k[:, None] * phi))[:, :, None, None]
        ser = der = 0.0
        for j in range(_RTDA2_SERIES_TERMS, 0, -1):
            b = (-1) ** (j + 1) * (sum(math.comb(j, l) * harm[abs(j - 2 * l)]
                                       for l in range(j + 1)) / 2.0 ** j) / j
            b = np.broadcast_to(b, y.shape)[series]
            ser, der = (ser + b) * z, der * z + j * b
        mean[series] = np.log1p(1.0 / ys) + ser
        slope[series] = (1.0 + ys * z * der) / (1.0 + ys)
        level[series] = np.exp(-ser) / (1.0 + ys)
    r_y = np.sqrt(1.0 + y - sigma) * np.sqrt(1.0 + y + sigma)
    slope = slope * (r_y * (r_y + y)) / ((1.0 - sigma) * (1.0 + sigma) + 2.0 * y)
    return mean, slope, level


def analytic_curve(oracle, snr_grid, scheme: str, r: float,
                   cond: ConditionalCase, conditioned: bool = False) -> OutageCurve:
    """Wrap a grid oracle as an OutageCurve over a grid checked as mc_outage
    checks it.  The oracle takes the whole grid as one 1-D array and returns
    one probability per point, as the analytic_outage_* oracles do (STC and
    rtda2 in chunks bounded by _ORACLE_NODES, parallel3 point by point)."""
    snr = _check_grid(snr_grid)
    vals = tuple(float(v) for v in oracle(np.array(snr)))
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
