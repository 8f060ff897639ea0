"""Unit-energy pulse shapes and the correlation structure of their shifts.

A waveform is stored as samples on a uniform grid over [0, span] symbol
periods and treated as the piecewise-linear interpolant of those samples
(zero outside).  All correlation integrals are evaluated EXACTLY for that
interpolant: the product of two piecewise-linear factors is piecewise
quadratic on the merged breakpoint grid, and a two-point Gauss rule per cell
integrates quadratics exactly.  Working in exact L2 arithmetic keeps the
analytic facts tests rely on (Cauchy-Schwarz bounds, positive semidefinite
spectra, eigenvalue caps) true to float roundoff instead of to the mercy of
a sampling rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import ConfigError, NumericError

MIN_SAMPLES_PER_SYMBOL = 64
_MAX_GRID_SAMPLES = 2 ** 20  # most span * samples_per_symbol (the largest in use is 3 * 256)
_INV_SQRT3 = 1.0 / math.sqrt(3.0)


def _pl_energy(samples: np.ndarray, h: float) -> float:
    """Exact integral of the squared piecewise-linear interpolant."""
    a = samples[:-1]
    b = samples[1:]
    return float(np.sum(a * a + a * b + b * b) * h / 3.0)


def _check_grid(span, samples_per_symbol) -> None:
    if not (isinstance(span, int) and span >= 1):
        raise ConfigError(f"span must be a positive integer, got {span!r}")
    if not (isinstance(samples_per_symbol, int)
            and samples_per_symbol >= MIN_SAMPLES_PER_SYMBOL):
        raise ConfigError(
            f"samples_per_symbol must be an integer >= {MIN_SAMPLES_PER_SYMBOL}")
    if span * samples_per_symbol > _MAX_GRID_SAMPLES:
        raise ConfigError(f"span * samples_per_symbol must be <= {_MAX_GRID_SAMPLES}, "
                          f"got {span} * {samples_per_symbol}")


@dataclass(frozen=True, eq=False)
class Waveform:
    """Sampled unit-energy pulse spanning `span` whole symbol periods."""

    label: str
    span: int
    samples_per_symbol: int
    samples: np.ndarray

    def __post_init__(self):
        _check_grid(self.span, self.samples_per_symbol)
        arr = np.asarray(self.samples, dtype=float).copy()
        expect = self.span * self.samples_per_symbol + 1
        if arr.ndim != 1 or arr.size != expect:
            raise ConfigError(
                f"expected {expect} samples (span*samples_per_symbol + 1), got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("waveform samples must be finite")
        e = _pl_energy(arr, 1.0 / self.samples_per_symbol)
        if abs(e - 1.0) > 1e-6:
            raise ConfigError(f"waveform energy is {e:.6g}, expected 1 (normalize first)")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_samples(cls, label: str, span: int, samples_per_symbol: int,
                     samples) -> "Waveform":
        """Build a waveform from raw samples, normalizing to unit energy."""
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1:
            raise ConfigError("samples must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("waveform samples must be finite")
        e = _pl_energy(arr, 1.0 / samples_per_symbol)
        if not (math.isfinite(e) and e > 1e-12):
            raise ConfigError("waveform has (near) zero energy; cannot normalize")
        return cls(label, span, samples_per_symbol, arr / math.sqrt(e))

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, float(self.span), self.samples.size)

    @property
    def energy(self) -> float:
        return _pl_energy(self.samples, 1.0 / self.samples_per_symbol)


def overlap_integral(w: Waveform, shift: float) -> float:
    """Exact integral of s(t) * s(t - shift) dt for the interpolant of w.

    Merging the breakpoints of both factors makes the product a plain
    quadratic on each cell, so two interior Gauss nodes per cell integrate
    it exactly and never touch the discontinuous support edges.
    """
    t = w.grid
    lo = max(t[0], t[0] + shift)
    hi = min(t[-1], t[-1] + shift)
    if hi - lo <= 0.0:
        return 0.0
    cuts = np.union1d(t, t + shift)
    cuts = cuts[(cuts > lo) & (cuts < hi)]
    cuts = np.concatenate(([lo], cuts, [hi]))
    a = cuts[:-1]
    b = cuts[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = np.concatenate((mid - half * _INV_SQRT3, mid + half * _INV_SQRT3))
    wts = np.concatenate((half, half))
    s = w.samples
    vals = np.interp(x, t, s, left=0.0, right=0.0) \
        * np.interp(x - shift, t, s, left=0.0, right=0.0)
    return float(np.dot(wts, vals))


def rectangular(span: int = 1, samples_per_symbol: int = 256, duty: float = 1.0) -> Waveform:
    """Flat unit-energy pulse over [0, duty] symbol periods.

    duty < 1 shortens the support (the trailing grid cell carries the ramp of
    the interpolant, so correlations with shifts beyond duty are O(1/spp)
    rather than exactly zero).
    """
    _check_grid(span, samples_per_symbol)
    if not 0.0 < duty <= float(span):
        raise ConfigError(f"duty must lie in (0, span], got {duty!r}")
    t = np.linspace(0.0, float(span), span * samples_per_symbol + 1)
    raw = np.where(t <= duty + 1e-12, 1.0, 0.0)
    name = "rect" if duty == span else f"rect-duty{duty:g}"
    return Waveform.from_samples(name, span, samples_per_symbol, raw)


def _srrc_values(t: np.ndarray, beta: float) -> np.ndarray:
    # removable singularities at t = 0 and |t| = 1/(4 beta)
    out = np.empty_like(t)
    at_zero = np.abs(t) < 1e-9
    at_knee = np.abs(np.abs(t) - 1.0 / (4.0 * beta)) < 1e-9
    rest = ~(at_zero | at_knee)
    x = t[rest]
    num = np.sin(np.pi * x * (1.0 - beta)) + 4.0 * beta * x * np.cos(np.pi * x * (1.0 + beta))
    den = np.pi * x * (1.0 - (4.0 * beta * x) ** 2)
    out[rest] = num / den
    out[at_zero] = 1.0 - beta + 4.0 * beta / np.pi
    out[at_knee] = (beta / math.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * beta))
        + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * beta)))
    return out


def srrc(rolloff: float, span: int = 2, samples_per_symbol: int = 256) -> Waveform:
    """Square-root raised-cosine pulse truncated to span symbol periods.

    The ideal pulse is centered, truncated to [-span/2, span/2], shifted to
    [0, span] and renormalized, so every reported correlation refers to the
    truncated pulse actually transmitted, not the infinite-length ideal.
    """
    if not 0.0 < rolloff <= 1.0:
        raise ConfigError(f"rolloff must lie in (0, 1], got {rolloff!r}")
    _check_grid(span, samples_per_symbol)
    t = np.linspace(-0.5 * span, 0.5 * span, span * samples_per_symbol + 1)
    raw = _srrc_values(t, rolloff)
    return Waveform.from_samples(f"srrc{rolloff:g}-m{span}", span, samples_per_symbol, raw)


def save_waveform(w: Waveform, path) -> None:
    """Write a waveform as a commented header plus one sample per line."""
    lines = [
        "# relaylab-waveform v1",
        f"# label={w.label}",
        f"# span={w.span}",
        f"# samples_per_symbol={w.samples_per_symbol}",
    ]
    lines.extend(repr(float(v)) for v in w.samples)
    Path(path).write_text("\n".join(lines) + "\n")


def load_waveform(path) -> Waveform:
    """Read a waveform file written by save_waveform (renormalizes energy)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"waveform file not found: {p}")
    meta: dict[str, str] = {}
    vals: list[float] = []
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
            continue
        try:
            vals.append(float(line))
        except ValueError as exc:
            raise ConfigError(f"{p}:{lineno}: not a number: {line!r}") from exc
    for key in ("span", "samples_per_symbol"):
        if key not in meta:
            raise ConfigError(f"{p}: missing required header '# {key}=...'")
    try:
        span = int(meta["span"])
        spp = int(meta["samples_per_symbol"])
    except ValueError as exc:
        raise ConfigError(f"{p}: span and samples_per_symbol must be integers") from exc
    return Waveform.from_samples(meta.get("label", p.stem), span, spp, np.asarray(vals))


@dataclass(frozen=True)
class CorrelationSet:
    """Overlap integrals between the two relays' pulse trains.

    With both relays using the same pulse s and relay 2 arriving tau symbol
    periods later (0 < tau <= 1):

        r_taps[m] = integral s(t) s(t - m) dt,      m = 0 .. span
        g(m)      = integral s(t) s(t - tau - m) dt, m = -span .. span

    The named coefficients of the two-period model map onto g as
    c0 = g(0), c1 = g(-1), c2 = g(-2), f1 = g(1), and a1 = r_taps[1].
    """

    tau: float
    span: int
    r_taps: tuple[float, ...]
    g_taps: tuple[float, ...]

    def g(self, m: int) -> float:
        if abs(m) > self.span:
            return 0.0
        return self.g_taps[m + self.span]

    def r(self, m: int) -> float:
        if abs(m) > self.span:
            return 0.0
        return self.r_taps[abs(m)]

    @property
    def a1(self) -> float:
        return self.r(1)

    @property
    def c0(self) -> float:
        return self.g(0)

    @property
    def c1(self) -> float:
        return self.g(-1)

    @property
    def c2(self) -> float:
        return self.g(-2)

    @property
    def f1(self) -> float:
        return self.g(1)

    @property
    def rho12(self) -> float | None:
        """Single-period overlap; only meaningful for span-1 pulses."""
        return self.c0 if self.span == 1 else None

    @property
    def rho21(self) -> float | None:
        return self.c1 if self.span == 1 else None


def correlations(w: Waveform, tau: float) -> CorrelationSet:
    """All same-pulse and cross-delay correlation taps for relative delay tau.

    tau is the second relay's extra delay in symbol periods, 0 < tau <= 1
    (an integer part of a physical delay only relabels symbol indices).
    """
    if not (isinstance(tau, (int, float)) and 0.0 < tau <= 1.0):
        raise ConfigError(f"tau must lie in (0, 1], got {tau!r}")
    span = w.span
    r_taps = tuple(overlap_integral(w, float(m)) for m in range(span + 1))
    g_taps = tuple(overlap_integral(w, tau + m) for m in range(-span, span + 1))
    cs = CorrelationSet(float(tau), span, r_taps, g_taps)
    if abs(cs.r_taps[0] - 1.0) > 1e-9:
        raise NumericError(f"unit-energy tap r(0)={cs.r_taps[0]!r} drifted from 1")
    if abs(cs.a1) >= 0.5:
        raise ConfigError(
            f"adjacent-symbol correlation a1={cs.a1:.4f} violates |a1| < 1/2; "
            "this pulse is outside the supported ISI model")
    if span == 1:
        s = abs(cs.rho12) + abs(cs.rho21)
        if s > 1.0 + 1e-9:
            raise NumericError(f"|rho12|+|rho21| = {s!r} exceeds the Cauchy-Schwarz cap")
    return cs


@dataclass(frozen=True)
class EigenBounds:
    """Exact eigenvalue range of the spectral density over omega.

    lambda_min / lambda_max are the extremes of t11 -/+ |t12| over the whole
    frequency interval, omega_at_min in [0, pi] is where the minimum sits
    (the density is even in omega), and pd is true when lambda_min clears
    pd_tol.
    """

    lambda_min: float
    lambda_max: float
    omega_at_min: float
    pd: bool
    trace_dev: float
    pd_tol: float


def certify_pd(corr: CorrelationSet, pd_tol: float = 1e-6) -> EigenBounds:
    """Eigenvalue range of the 2x2 spectral density T(w), from its stationary points.

    T has equal diagonals, so its eigenvalues are t11 +/- |t12|, where t11 and
    q = |t12|^2 are cosine polynomials of degree span and 2 span: Chebyshev
    series in x = cos w (Dumitrescu, Positive Trigonometric Polynomials and
    Signal Processing Applications, 2007).  Off the ends x = +-1 both branches
    are stationary where 4 t11'^2 q = q'^2, and the trace where t11' = 0.  The
    real part of every root of either, clipped to [-1, 1], is a candidate
    alongside the ends: a spurious candidate is still a true frequency, so
    none can pull an extreme past the true one.  Where t12 = 0 the kinks are
    maxima of the lower branch and minima of the upper, so they need none.
    The branches are evaluated from the taps at w = arccos(x), because q
    cancels where |t12| is small.
    """
    if not pd_tol >= 0:
        raise ConfigError(f"pd_tol must be >= 0, got {pd_tol!r}")
    s = corr.span
    r = np.asarray(corr.r_taps)
    g = np.asarray(corr.g_taps)
    t11 = np.concatenate(([r[0]], 2.0 * r[1:]))
    q = 2.0 * np.correlate(g, g, "full")[2 * s:]
    q[0] *= 0.5
    d11, dq = cheb.chebder(t11), cheb.chebder(q)
    stationary = cheb.chebsub(4.0 * cheb.chebmul(cheb.chebmul(d11, d11), q),
                              cheb.chebmul(dq, dq))
    x = np.concatenate([cheb.chebroots(cheb.chebtrim(p)).real for p in (stationary, d11)]
                       + [[-1.0, 1.0]])
    om = np.arccos(np.clip(x, -1.0, 1.0))
    e = np.exp(1j * np.outer(om, np.arange(-s, s + 1)))
    diag = (e @ np.concatenate((r[:0:-1], r))).real
    off = np.abs(e @ g)
    lo = diag - off
    i_min = int(np.argmin(lo))
    return EigenBounds(
        lambda_min=float(lo[i_min]),
        lambda_max=float(np.max(diag + off)),
        omega_at_min=float(om[i_min]),
        pd=bool(lo[i_min] > pd_tol),
        trace_dev=float(np.max(np.abs(2.0 * diag - 2.0))),
        pd_tol=float(pd_tol),
    )
