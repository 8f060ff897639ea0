"""Spans around the calls into each relaylab layer, and the layer probes.

The tracer wraps the public functions that ``relaylab.cli`` resolves from the
other modules (the names in the cli module's namespace), so a traced
``cli.main`` call opens one span per library call, nested as they happen.
A span's self time is its duration minus its children's; summed per layer
(the module the function lives in) they split the traced wall time.

Monte Carlo internals (draws, decoding sets, the mutual-information kernel)
are not separately visible from the public API.  The probes recover that
split from public calls: a forced-d0 Monte Carlo curve costs only the engine
floor, and the forced-d2 minus forced-d0 time is the both-relays kernel.
The overall curve is timed in the same rounds, so the split can be compared
with it whatever the machine's speed at the time.
"""

from __future__ import annotations

import functools
import inspect
import math
import time

import workloads as wl


class Tracer:
    """Self time per layer and inclusive time per span name, kept in memory."""

    def __init__(self):
        self._child_s = []   # time of finished children, one entry per open span
        self.self_s = {}
        self.total_s = {}

    def call(self, name, layer, fn, *args, **kwargs):
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = self._child_s.pop()
            self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - child
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            if self._child_s:
                self._child_s[-1] += dur

    def wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)
        return traced


def install(cli, tracer: Tracer) -> dict:
    """Wrap every public relaylab function the cli module resolves.

    Returns the originals so ``uninstall`` can restore them.  Classes stay
    unwrapped: the cli constructs and compares them, and their constructors
    do no work worth a span.
    """
    originals = {}
    for name, obj in list(vars(cli).items()):
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        mod = obj.__module__ or ""
        if not mod.startswith("relaylab.") or mod == "relaylab.cli":
            continue
        originals[name] = obj
        setattr(cli, name, tracer.wrap(obj, mod.split(".", 1)[1]))
    return originals


def uninstall(cli, originals: dict) -> None:
    for name, obj in originals.items():
        setattr(cli, name, obj)


# ---------------------------------------------------------------------------
# layer probes: the same public calls on every workload

# The probes use the workloads' snr grid: draws happen once per trial and the
# rest once per trial and snr point, so ns per trial*snr depends on the grid.
PROBE_TRIALS = 16384
MC_PROBE_ROUNDS = 3


def _mc_probe_cases(ctx):
    from relaylab.mutualinfo import DelayConfig
    return {
        "STC_SYNC": {},
        "TDA_LINMOD": {"corr": ctx.corr["rect1"]},
        "ASTC": {"corr": ctx.corr["srrc2"]},
        "MIX_AF": {"corr": ctx.corr["rect1"]},
        "TDA_INDEP": {"delays": DelayConfig.from_t0bw(2.5)},
    }


def probe_layers(ctx, seed: int, cal):
    """Time each layer through its public functions, in reference seconds."""
    from relaylab.channel import POWER_NORM, NetworkConfig, sample_fading
    from relaylab.outage import (ConditionalCase, analytic_curve,
                                 analytic_outage_parallel3, analytic_outage_rtda2,
                                 analytic_outage_stc, mc_outage, slope_fit)
    from relaylab.toeplitz import build_taps, convergence_study, finite_n_mi
    from relaylab.tradeoff import crossings
    from relaylab.waveform import certify_pd, correlations
    import numpy as np

    out, floors = {}, []
    snr = [10.0 ** (d / 10.0) for d in wl.MC_SNR_DB]
    n_pts = PROBE_TRIALS * len(snr)
    for scheme, kw in _mc_probe_cases(ctx).items():
        def curve(cond):
            return lambda: mc_outage(scheme, wl.R, snr, PROBE_TRIALS, seed, cond,
                                     force_set=cond != ConditionalCase.OVERALL,
                                     workers=1, **kw)
        t_d0, t_all, t_d2 = cal.interleaved(
            [curve(c) for c in (ConditionalCase.D0, ConditionalCase.OVERALL,
                                ConditionalCase.D2)], MC_PROBE_ROUNDS)
        floors.append(1e9 * t_d0 / n_pts)
        out[f"outage.mc_floor_ns.{scheme}"] = floors[-1]
        out[f"outage.mc_overall_ns.{scheme}"] = 1e9 * t_all / n_pts
        out[f"mutualinfo.both_kernel_ns.{scheme}"] = 1e9 * (t_d2 - t_d0) / n_pts
    out["outage.mc_floor_ns"] = sum(floors) / len(floors)

    cfg = NetworkConfig()
    s60 = 1e6
    out["outage.rtda2_point_s.frac"] = cal.timed(
        lambda: analytic_outage_rtda2(cfg, wl.R, s60, 2.5), 3)
    out["outage.rtda2_point_s.int"] = cal.timed(
        lambda: analytic_outage_rtda2(cfg, wl.R, s60, 2.0), 5, inner=20)
    out["outage.parallel3_point_s"] = cal.timed(
        lambda: analytic_outage_parallel3(cfg, wl.R, s60), 5, inner=20)
    out["outage.stc_point_s"] = cal.timed(lambda: analytic_outage_stc(cfg, wl.R, s60), 5, inner=100)
    grid = [10.0 ** (d / 10.0) for d in range(40, 81, 5)]
    stc_curve = analytic_curve(lambda s: analytic_outage_stc(cfg, wl.R, s), grid,
                               "STC_SYNC", wl.R, ConditionalCase.OVERALL)
    out["outage.slope_fit_s"] = cal.timed(lambda: slope_fit(stc_curve, (40.0, 80.0)), 5, inner=200)

    f = sample_fading(cfg, np.random.default_rng(seed))
    taps = build_taps(ctx.corr["srrc2"], f.r1d, f.r2d)
    rho0 = POWER_NORM * 10.0
    t512 = cal.timed(lambda: finite_n_mi(taps, 512, rho0), 3)
    t1024 = cal.timed(lambda: finite_n_mi(taps, 1024, rho0), 1)
    out["toeplitz.finite_n_mi_s.n512"] = t512
    out["toeplitz.finite_n_mi_s.n1024"] = t1024
    out["toeplitz.n_scaling_exp"] = math.log2(t1024 / t512)
    out["toeplitz.limit_s"] = cal.timed(
        lambda: convergence_study(taps, (1,), rho0, rel_tol=1.0, quad_points=2048), 5, inner=10)

    out["waveform.correlations_s"] = cal.timed(
        lambda: (correlations(ctx.pulses["srrc2"], 0.3),
                 correlations(ctx.pulses["rect1"], 0.5)), 5, inner=10)
    out["waveform.certify_pd_s"] = cal.timed(
        lambda: [certify_pd(c) for c in ctx.corr.values()], 5, inner=10)
    pts = ("stc", "tda", "ltda", "astc", "naf", "ddf", "maf")
    pairs = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
    out["tradeoff.crossings_s"] = cal.timed(
        lambda: [crossings(a, b, 2) for a, b in pairs], 5, inner=10)
    return out
