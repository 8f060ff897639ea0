"""Two-relay fading network: link statistics, rate targets, decoding sets.

The network has one source, two half-duplex relays and one destination.
Every link gain is circularly symmetric complex Gaussian, so the squared
magnitudes are exponential with rate 1/sigma^2.  Transmission happens in two
equal phases (source broadcasts, then relays that decoded forward), which
costs half the degrees of freedom and normalizes the per-node transmit snr
to rho0 = 2/(K+1) * snr with K = 2 relays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

K_RELAYS = 2
POWER_NORM = 2.0 / (K_RELAYS + 1)

LINKS = ("sd", "sr1", "sr2", "r1d", "r2d")


@dataclass(frozen=True)
class NetworkConfig:
    """Per-link variances sigma^2 of the complex link gains."""

    sigma2_sd: float = 1.0
    sigma2_sr1: float = 1.0
    sigma2_sr2: float = 1.0
    sigma2_r1d: float = 1.0
    sigma2_r2d: float = 1.0

    def __post_init__(self):
        for link in LINKS:
            v = getattr(self, "sigma2_" + link)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConfigError(f"sigma2_{link} must be a positive finite number, got {v!r}")

    def lam(self, link: str) -> float:
        """Exponential rate of |alpha|^2 for one link (equals 1/sigma^2)."""
        if link not in LINKS:
            raise ConfigError(f"unknown link {link!r}")
        return 1.0 / getattr(self, "sigma2_" + link)


def rate_target(snr: float, r: float, sigma2_sd: float = 1.0) -> float:
    """Target rate R = r * log2(1 + snr * sigma2_sd) in bits/s/Hz.

    Scaling the rate with log snr is what makes the outage decay exponent
    measure diversity at multiplexing gain r.  Two-phase relaying caps the
    usable multiplexing gain at 1/2.
    """
    if not (math.isfinite(snr) and snr > 0):
        raise ConfigError(f"snr must be positive and finite, got {snr!r}")
    if not 0.0 <= r < 0.5:
        raise ConfigError(f"multiplexing gain must lie in [0, 1/2), got {r!r}")
    if not math.isfinite(snr * sigma2_sd):
        raise ConfigError(f"snr * sigma2_sd = {snr!r} * {sigma2_sd!r} passes the float range")
    return r * math.log2(1.0 + snr * sigma2_sd)


@dataclass(frozen=True)
class RatePoint:
    """Operating point: linear snr plus multiplexing gain r."""

    snr: float
    r: float
    sigma2_sd: float = 1.0

    def __post_init__(self):
        rate_target(self.snr, self.r, self.sigma2_sd)  # validates both

    @property
    def rate(self) -> float:
        return rate_target(self.snr, self.r, self.sigma2_sd)

    @property
    def rho0(self) -> float:
        return POWER_NORM * self.snr

    @property
    def decode_threshold(self) -> float:
        """Squared source-relay gain a relay needs to decode in phase one:
        0.5*log2(1 + rho0 |alpha|^2) >= R iff |alpha|^2 >= (4^R - 1)/rho0."""
        return (4.0 ** self.rate - 1.0) / self.rho0


@dataclass(frozen=True)
class FadingRealization:
    """One draw of the five complex link gains."""

    sd: complex
    sr1: complex
    sr2: complex
    r1d: complex
    r2d: complex


def sample_fading(cfg: NetworkConfig, rng: np.random.Generator) -> FadingRealization:
    """Draw all five gains, each CN(0, sigma^2) with independent Re/Im parts."""
    z = (rng.standard_normal(len(LINKS)) + 1j * rng.standard_normal(len(LINKS)))
    z *= math.sqrt(0.5)
    return FadingRealization(**{
        link: complex(z[i] * math.sqrt(getattr(cfg, "sigma2_" + link)))
        for i, link in enumerate(LINKS)
    })


@dataclass(frozen=True)
class DecodingSet:
    """Subset of the two relays that decoded the first-phase message."""

    r1: bool
    r2: bool


D_NONE = DecodingSet(False, False)
D_R1 = DecodingSet(True, False)
D_R2 = DecodingSet(False, True)
D_BOTH = DecodingSet(True, True)


def relay_failure_prob(lam_sr: float, pt: RatePoint) -> float:
    """Exact Pr[0.5*log2(1 + rho0 |alpha|^2) < R] for an Exp(lam) squared gain:
    1 - exp(-lam * pt.decode_threshold)."""
    return -math.expm1(-lam_sr * pt.decode_threshold)


def decoding_set_probs(cfg: NetworkConfig, pt: RatePoint) -> dict[DecodingSet, float]:
    """Exact probabilities of the four decoding-set outcomes."""
    p1 = relay_failure_prob(cfg.lam("sr1"), pt)
    p2 = relay_failure_prob(cfg.lam("sr2"), pt)
    return {
        D_NONE: p1 * p2,
        D_R1: (1.0 - p1) * p2,
        D_R2: p1 * (1.0 - p2),
        D_BOTH: (1.0 - p1) * (1.0 - p2),
    }
