"""Finite-block rates of the ISI-coupled relay pair and their spectral limit.

Sampling the matched-filter bank over n symbol periods per relay gives a
2n x 2n block-Toeplitz covariance M_n; the per-symbol rate

    I(n) = (1/n) * log2 det(I + rho0 * M_n)

converges to the frequency-domain evaluator as n grows (Szego; Gray,
"Toeplitz and Circulant Matrices: A Review").  In symbol-interleaved order
block (i, j) of M_n is the lag block h(j - i), so M_n has scalar bandwidth
2*span + 1 and log det is twice the summed log2 of a banded Cholesky
factor's diagonal.  M_m leads M_n, so one factor serves every n <= n_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .mutualinfo import _emaca_batch
from .waveform import CorrelationSet

# Largest block size: the band of M_n at span 2 is 6 x 2n complex entries,
# about 25 MB per copy at this n.
MAX_BLOCK_N = 2 ** 17


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


def _upper_band(taps: IsiTapSet, n: int) -> np.ndarray:
    """Upper band of M_n in LAPACK storage ((i, j) at [u + i - j, j], u =
    2*span + 1): entry (2i + a, 2(i + k) + b) is h(k)[a, b] for every i."""
    s = taps.corr.span
    u = 2 * s + 1
    band = np.zeros((u + 1, 2 * n), dtype=complex)
    for k in range(s + 1):
        for (a, b), v in np.ndenumerate(taps.h(k)):
            if 2 * k + b - a >= 0:
                band[u - 2 * k - b + a, 2 * k + b::2] = v
    return band


def _rate_ladder(taps: IsiTapSet, ns: tuple[int, ...], rho0: float) -> np.ndarray:
    """I(n) for each n of the strictly increasing ns, from one factor at ns[-1].

    A broken tap set (M_n with an eigenvalue below -delta, delta = 1e-9 *
    max(1, max diag M_n) <= 1e-9 * max(1, lambda_max)) fails the Cholesky of
    M_n + delta I and raises; by interlacing, the check at ns[-1] covers every
    smaller section.  So does an M_n that passes it but makes I + rho0 M_n
    indefinite.
    """
    # imported here, not at module level: scipy.linalg is most of the
    # package's import time, and only this function reads it
    from scipy.linalg import LinAlgError, cholesky_banded

    if not ns or any(v < 1 for v in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("block sizes must be strictly increasing positive ints")
    if ns[-1] > MAX_BLOCK_N:
        raise ConfigError(f"n={ns[-1]} exceeds the block size cap {MAX_BLOCK_N}")
    band = _upper_band(taps, ns[-1])
    if not math.isfinite(rho0 * float(np.abs(band).max())):
        raise NumericError(f"rho0 * covariance is not finite (rho0={rho0!r})")
    work = band.copy(order="F")  # Fortran order: LAPACK factors it in place
    work[-1] += 1e-9 * max(1.0, float(band[-1].real.max()))
    try:
        cholesky_banded(work, overwrite_ab=True, check_finite=False)
        np.multiply(band, rho0, out=work)
        work[-1] += 1.0
        diag = cholesky_banded(work, overwrite_ab=True, check_finite=False)[-1].real
    except LinAlgError:
        raise NumericError("covariance is not positive semidefinite (broken tap set)") from None
    logdiag = np.cumsum(np.log2(diag))
    n = np.asarray(ns)
    return 2.0 * logdiag[2 * n - 1] / n


def finite_n_mi(taps: IsiTapSet, n: int, rho0: float) -> float:
    """Per-symbol rate of the length-n block, (1/n) log2 det(I + rho0 M_n)."""
    return float(_rate_ladder(taps, (int(n),), rho0)[0])


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
    vals = tuple(float(v) for v in _rate_ladder(taps, ns, rho0))
    limit = float(_emaca_batch(taps.g1, taps.g2, taps.corr, rho0)[0])
    abs_err = tuple(abs(v - limit) for v in vals)
    denom = max(abs(limit), 1e-300)
    rel_err = tuple(e / denom for e in abs_err)
    if rel_err[-1] > rel_tol:
        raise NumericError(
            f"finite-n rate at n={ns[-1]} has relative error {rel_err[-1]:.3g} from the limit"
            f" (rel_tol {rel_tol:.3g})")
    return ConvergenceStudy(ns, vals, limit, abs_err, rel_err)
