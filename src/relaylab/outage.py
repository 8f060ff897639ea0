"""Outage probabilities: Monte Carlo engine, semi-analytic oracles, slope fits.

An outage event at operating point (snr, r) is {I < R} with
R = r log2(1 + snr sigma2_sd).  Per-case curves report the JOINT probability
Pr[I < R, |D| = j] by default (those carry the per-row diversity slopes and
sum to the overall outage); conditional probabilities are available either
analytically or by forcing the decoding set in the simulator.

Monte Carlo determinism: trials are grouped into fixed blocks of 32768 and
the Philox counters of each block's two streams derive from its first trial
index, so the draws for trial t depend only on (seed, t).  Workers split whole
blocks and results merge by summation; worker count can never change the numbers.
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
from .mutualinfo import (_SCREEN_SLACK, DelayConfig, LinkRecord, SchemeId,
                         _cos_window_means, _root_product, _window_mean_lower,
                         _window_phase, check_scheme, record_below)
from .waveform import CorrelationSet

BLOCK_TRIALS = 32768
_MIN_TRIALS, _MAX_TRIALS = 10 ** 4, 2 ** 34  # the cap lists 2^19 blocks, hours of work
_COUNTER_STRIDE = 64  # Philox counters (4 words each) reserved per trial, which uses 7 variates
_LN2 = math.log(2.0)
_WILSON_Z = 1.96        # two-sided 95% normal quantile of wilson_interval
_FIT_REL_CI_MAX = 0.3   # slope_fit drops points whose interval is wider than this share

# Gauss-Legendre node counts of the oracles
_STC_NODES = 240        # analytic_outage_stc, per product-pair integral
_PARALLEL3_NODES = 120  # analytic_outage_parallel3, per nested level
_RTDA2_SCALE = 64       # analytic_outage_rtda2: log relay-sum scale, per panel,
_RTDA2_SPLIT = 32       # split fraction between the relays (folded onto its nodes below 1/2),
_RTDA2_PHASE = 12       # and relative relay phase (fractional t0*bw only)
_RTDA2_PANEL_EFOLDS = 32  # rtda2 scale panel width in e-folds (one at t0*bw 2.5, 40-80 dB)

_RTDA2_NEWTON_CAP = 50  # rtda2 step cap: 9 seen at -20..1000 dB, r 0.1-0.49, t0*bw 1+1e-6..12.3


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
    """(g_sd, g_sr1, g_sr2, r1d, r2d) for trials [first_trial, first_trial+count).

    sd, sr1 and sr2 come as squared gains, each sigma^2 Exp(1), since the
    engine reads no phase of theirs; only r1d, r2d are complex normals.  The
    two are trial-major Philox streams on one key, the normals' counter 2^128
    up, from the first trial index times a stride above what a trial uses.
    """
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    sigma2 = np.array([getattr(cfg, "sigma2_" + link) for link in LINKS])
    exp, nrm = (np.random.Generator(np.random.Philox(
        key=key, counter=c + int(first_trial) * _COUNTER_STRIDE)) for c in (0, 2 ** 128))
    g = exp.standard_exponential((count, 3))
    g *= sigma2[:3]
    z = nrm.standard_normal((count, 4))
    z *= np.sqrt(0.5 * sigma2[[3, 3, 4, 4]])
    return (*g.T, *z.view(np.complex128).T)


def _run_block(scheme: SchemeId, cfg: NetworkConfig, r: float, snr: tuple[float, ...],
               seed: int, cond: ConditionalCase, force_set: bool,
               corr: CorrelationSet | None, delays: DelayConfig | None,
               block: tuple[int, int]) -> np.ndarray:
    """Outage-and-case counts for one (first trial, count) block at every grid snr.

    The block's draws and their snr-free terms (one LinkRecord) are computed
    once; every grid point reads them.
    """
    first_trial, count = block
    g_sd, gsr1, gsr2, r1d, r2d = _draw_gains(cfg, seed, first_trial, count)
    links = LinkRecord(g_sd, r1d, r2d)
    counts = np.zeros(len(snr), dtype=np.int64)
    case = None if cond == ConditionalCase.OVERALL else _CASE_SETS[cond][0]
    if force_set:
        m1 = np.full(count, case.r1)
        m2 = np.full(count, case.r2)
    for i, s in enumerate(snr):
        pt = RatePoint(s, r, cfg.sigma2_sd)
        if not force_set:
            thr = pt.decode_threshold
            m1 = gsr1 >= thr
            m2 = gsr2 >= thr
        below = record_below(scheme, links, m1, m2, pt.rho0, pt.rate, corr, delays)
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

    Quadrature over (log relay-sum, split fraction) with the direct-gain
    threshold solved per node: in closed form when t0*bw is a whole number
    of periods; otherwise per relay phase as well, by Newton's method on the
    exact window mean of the rate (NumericError if it does not converge).
    The threshold depends on the split q only through y1 y2, so it is the
    same at q and 1 - q, and so is the split rule: it is solved on the
    nodes q < 1/2, each weighted by the relay density at both splits.
    Joint by default (multiplied by Pr[|D| = 2]).  It covers cond d2 only:
    ConfigError for any other case.
    """
    if t0bw < 1.0:
        raise ConfigError("oracle needs t0*bw >= 1 (whole-period lower bound finite)")
    pt = RatePoint(float(snr), float(r), cfg.sigma2_sd)
    rho0 = pt.rho0
    big_t = 4.0 ** pt.rate
    if big_t <= 1.0:
        return _compose({D_BOTH: 0.0}, cfg, pt, cond, conditioned)
    delays = DelayConfig.from_t0bw(float(t0bw))
    delta1 = delays.delta1
    lam_sd = cfg.lam("sd")
    lam1 = cfg.lam("r1d")
    lam2 = cfg.lam("r2d")
    x_max = pt.decode_threshold
    try:
        nu_hi = (2.0 * big_t ** (1.0 / delta1) - 1.0) / rho0
    except OverflowError:
        raise NumericError(f"rtda2: the relay-sum range T^(1/delta1) passes the float range "
                           f"(snr={snr}, r={r}, t0bw={t0bw})") from None
    nu_lo = 1e-8 * (big_t - 1.0) / rho0

    t_lo, t_hi = math.log(nu_lo), math.log(nu_hi)
    panels = math.ceil((t_hi - t_lo) / _RTDA2_PANEL_EFOLDS)
    edges = [t_lo + (t_hi - t_lo) * k / panels for k in range(panels)] + [t_hi]
    t_nodes, t_w = map(np.concatenate, zip(*(gl_nodes(lo, hi, _RTDA2_SCALE)
                                              for lo, hi in zip(edges, edges[1:]))))
    nu = np.exp(t_nodes)                       # relay-sum scale, log-spaced
    q_nodes, q_w = (v[:_RTDA2_SPLIT // 2] for v in gl_nodes(0.0, 1.0, _RTDA2_SPLIT))
    y1 = nu[:, None] * q_nodes[None, :]
    y2 = nu[:, None] * (1.0 - q_nodes[None, :])
    bc = 2.0 * rho0 * _root_product(y1, y2)   # cosine swing of the pair gain

    if delta1 == 1.0:  # a whole number of periods
        big_c = 2.0 * big_t
        with np.errstate(over="ignore"):
            a_star = (big_c * big_c + bc * bc) / (2.0 * big_c)
        # where C^2 + B^2 overflows (C past about 1e154): C/2 + B (B/C)/2, finite as B < C
        a_star = np.where(np.isfinite(a_star), a_star, 0.5 * big_c + bc * (0.5 * bc / big_c))
        x_star = np.clip((a_star - 1.0 - rho0 * nu[:, None]) / rho0, 0.0, x_max)
        x_star = np.where(bc < big_c, x_star, 0.0)  # A + sqrt(A^2-B^2) >= B: no root past B >= C
        fx = _cdf_exp(x_star, lam_sd)
    else:
        phi, phi_w = gl_nodes(0.0, math.pi, _RTDA2_PHASE)
        x_star = _rtda2_threshold(1.0 / rho0 + nu[None, :, None], bc / rho0, phi[:, None, None],
                                  big_t / rho0, float(t0bw), snr)
        fx = np.tensordot(phi_w / math.pi, _cdf_exp(x_star, lam_sd), axes=(0, 0))

    dens = lam1 * lam2 * (np.exp(-lam1 * y1 - lam2 * y2) + np.exp(-lam1 * y2 - lam2 * y1))
    jac = nu[:, None] ** 2                      # dy1 dy2 = nu dnu dq, dnu = nu dt
    p = float(t_w @ ((fx * dens * jac) @ q_w))
    return _compose({D_BOTH: p}, cfg, pt, cond, conditioned)


def _rtda2_threshold(base, swing, phi, level: float, t0bw: float, snr: float):
    """Direct gain x = a - base, per (phase, scale, split) node, at which
    mean log2(a + swing cos(u + phi)) over |u| <= h = pi t0bw meets log2 level.

    The caller works in units of rho0 (a = 1/rho0 + nu + x, swing =
    2 sqrt(y1 y2)) so that a^2 - swing^2 stays finite at any snr.  The mean
    is increasing and concave in a, so Newton started below the root climbs
    to it without overshoot.  The start is the root of Jensen's upper bound
    log2(a + swing sin(h) cos(phi) / h), or x = 0 when that lies lower.  A
    node stops at its first step that does not climb: it is at the root to
    rounding, or its x = 0 rate already meets the target.  Each step runs the
    window means on the nodes still moving only, and a node starting at x = 0
    whose whole-period lower bound clears the target by a margin far above
    the mean's roundoff stops before the first step, as Newton would.  The
    psi-only window terms are computed once per element of phi.
    """
    h = math.pi * t0bw
    a = np.maximum(base, level - swing * (math.sin(h) / h) * np.cos(phi))
    shape = a.shape
    a = a.ravel()
    phase = _window_phase(phi.ravel(), h)
    which = np.broadcast_to(np.arange(phi.size).reshape(phi.shape), shape).ravel()
    base, swing, phi = (np.broadcast_to(v, shape).ravel() for v in (base, swing, phi))
    target = math.log2(level)
    with np.errstate(all="ignore"):  # a non-finite bound leaves its node moving
        low = _window_mean_lower(base, swing, t0bw)
    settled = (a == base) & np.isfinite(low) & (low - _SCREEN_SLACK * (1.0 + abs(target)) >= target)
    live = np.flatnonzero(~settled)
    for _ in range(_RTDA2_NEWTON_CAP):
        al, bl, pl = a[live], swing[live], phi[live]
        mean, inv_mean = _cos_window_means(al, bl, pl, h,
                                           tuple(v[:, which[live]] for v in phase))
        step = (target - mean) * _LN2 / inv_mean
        moving = ~(step <= 1e-14 * al)  # a NaN step keeps its node moving
        live, step = live[moving], step[moving]
        if not live.size:
            break
        a[live] = al[moving] + step
    else:
        raise NumericError(f"rtda2 threshold: Newton did not converge in {_RTDA2_NEWTON_CAP} "
                           f"steps (snr={snr}, t0bw={t0bw}; {live.size} of {a.size} nodes "
                           f"still moving, largest relative step "
                           f"{np.max(step / al[moving]):.3g})")
    return (a - base).reshape(shape)


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
