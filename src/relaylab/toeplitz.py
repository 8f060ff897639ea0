"""Finite-block rates of the ISI-coupled relay pair and their spectral limit.

Sampling the matched-filter bank over n symbol periods per relay gives a
2n x 2n banded block-Toeplitz covariance; the per-symbol rate

    I(n) = (1/n) * sum_k log2(1 + rho0 * eig_k)

converges to the frequency-domain evaluator as n grows.  The block matrix is
assembled relay-major (all of relay 1's symbols, then relay 2's), which is a
permutation of the symbol-interleaved ordering and therefore has the same
eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz as _toeplitz

from .errors import ConfigError, NumericError
from .mutualinfo import _emaca_batch
from .waveform import CorrelationSet

DENSE_EIG_CAP = 4096


@dataclass(frozen=True)
class IsiTapSet:
    """Correlation taps of the two relay pulse trains with their link gains.

    h(k) is the 2x2 cross-covariance block at lag k symbols; h(-k) = h(k)^H.
    Pulses spanning more than two symbol periods fall outside the five-tap
    lag structure this model assumes.
    """

    corr: CorrelationSet
    alpha_r1d: complex
    alpha_r2d: complex

    def __post_init__(self):
        if self.corr.span > 2:
            raise ConfigError("tap model supports pulse spans of 1 or 2 symbol periods")

    @property
    def g1(self) -> float:
        return abs(self.alpha_r1d) ** 2

    @property
    def g2(self) -> float:
        return abs(self.alpha_r2d) ** 2

    @property
    def cross(self) -> complex:
        return self.alpha_r1d * np.conj(self.alpha_r2d)

    def h(self, k: int) -> np.ndarray:
        """2x2 lag-k block: diag carries same-pulse taps scaled by the squared
        gains, off-diagonals carry the delay-offset taps scaled by the gain
        cross term."""
        if k < 0:
            return self.h(-k).conj().T
        c = self.corr
        x = self.cross
        return np.array([
            [c.r(k) * self.g1, c.g(-k) * x],
            [c.g(k) * np.conj(x), c.r(k) * self.g2],
        ], dtype=complex)


def build_taps(corr: CorrelationSet, alpha_r1d: complex, alpha_r2d: complex) -> IsiTapSet:
    return IsiTapSet(corr, complex(alpha_r1d), complex(alpha_r2d))


def block_matrix(taps: IsiTapSet, n: int) -> np.ndarray:
    """Dense 2n x 2n covariance of n symbols per relay, relay-major order."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    c = taps.corr
    lags = np.arange(n)
    same = np.array([c.r(int(m)) for m in lags])
    t_same = _toeplitz(same)
    col = np.array([c.g(-int(m)) for m in lags])
    row = np.array([c.g(int(m)) for m in lags])
    t_cross = _toeplitz(col, row)
    x = taps.cross
    top = np.hstack([taps.g1 * t_same, x * t_cross])
    bot = np.hstack([np.conj(x) * t_cross.conj().T, taps.g2 * t_same])
    return np.vstack([top, bot]).astype(complex)


def finite_n_mi(taps: IsiTapSet, n: int, rho0: float) -> float:
    """Per-symbol rate of the length-n block via dense eigenvalues.

    The covariance is positive semidefinite by construction; eigenvalues
    below -1e-9 (relative to the largest) indicate a broken tap set and
    raise instead of being silently clipped.
    """
    if n > DENSE_EIG_CAP:
        raise ConfigError(f"n={n} exceeds the dense eigensolver cap {DENSE_EIG_CAP}")
    m = block_matrix(taps, n)
    ev = np.linalg.eigvalsh(m)
    floor = -1e-9 * max(1.0, float(ev[-1]))
    if ev[0] < floor:
        raise NumericError(f"covariance eigenvalue {ev[0]!r} is significantly negative")
    ev = np.maximum(ev, 0.0)
    return float(np.sum(np.log2(1.0 + rho0 * ev)) / n)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Finite-n rates against the spectral limit."""

    ns: tuple[int, ...]
    mi: tuple[float, ...]
    limit: float
    abs_err: tuple[float, ...]
    rel_err: tuple[float, ...]


def convergence_study(taps: IsiTapSet, ns, rho0: float, rel_tol: float = 0.01,
                      quad_points=None) -> ConvergenceStudy:
    """Evaluate I(n) over ns and compare with the frequency-domain limit.

    Raises NumericError when the relative error at the largest n misses
    rel_tol; zero-correlation tap sets are a degenerate exact case (the limit
    itself is hit at every n) and pass trivially.  The limit is exact;
    quad_points is ignored and stays only for callers that still pass it
    (the benchmark's layer probe).
    """
    ns = tuple(int(v) for v in ns)
    if not ns or any(v < 1 for v in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("ns must be a strictly increasing tuple of positive ints")
    limit = float(_emaca_batch(taps.g1, taps.g2, taps.corr, rho0)[0])
    vals = tuple(finite_n_mi(taps, n, rho0) for n in ns)
    abs_err = tuple(abs(v - limit) for v in vals)
    denom = max(abs(limit), 1e-300)
    rel_err = tuple(e / denom for e in abs_err)
    if rel_err[-1] > rel_tol:
        raise NumericError(
            f"finite-n rate at n={ns[-1]} is {rel_err[-1]:.3%} from the limit (tol {rel_tol:.1%})")
    return ConvergenceStudy(ns, vals, limit, abs_err, rel_err)
