import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaylab.channel import (D_BOTH, D_NONE, D_R1, D_R2, K_RELAYS, LINKS,
                              POWER_NORM, DecodingSet, NetworkConfig, RatePoint,
                              decoding_set_probs, rate_target, relay_failure_prob,
                              sample_fading)
from relaylab.errors import ConfigError

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_constants():
    assert K_RELAYS == 2
    assert POWER_NORM == pytest.approx(2.0 / 3.0, abs=0)
    assert LINKS == ("sd", "sr1", "sr2", "r1d", "r2d")


def test_config_rejects_nonpositive_variance():
    with pytest.raises(ConfigError):
        NetworkConfig(sigma2_sd=0.0)
    with pytest.raises(ConfigError):
        NetworkConfig(sigma2_r2d=-1.0)
    with pytest.raises(ConfigError):
        NetworkConfig(sigma2_sr1=math.inf)


def test_lam_unknown_link():
    with pytest.raises(ConfigError):
        NetworkConfig().lam("dd")


def test_rate_point():
    pt = RatePoint(snr=15.0, r=0.25, sigma2_sd=1.0)
    assert pt.rate == pytest.approx(0.25 * math.log2(16.0), rel=1e-15)
    assert pt.rho0 == pytest.approx(POWER_NORM * 15.0, rel=1e-15)
    assert rate_target(15.0, 0.25) == pytest.approx(1.0, rel=1e-15)


def test_rate_point_domain():
    # half-duplex two-phase operation restricts r to [0, 1/2)
    RatePoint(10.0, 0.0, 1.0)
    RatePoint(10.0, 0.499, 1.0)
    with pytest.raises(ConfigError):
        RatePoint(10.0, 0.5, 1.0)
    with pytest.raises(ConfigError):
        RatePoint(10.0, -0.01, 1.0)
    with pytest.raises(ConfigError):
        RatePoint(-1.0, 0.25, 1.0)


FOUR_SETS = (D_NONE, D_R1, D_R2, D_BOTH)


def test_decoding_set_basics():
    assert [(d.r1, d.r2) for d in FOUR_SETS] == [(False, False), (True, False),
                                                 (False, True), (True, True)]
    assert len(set(FOUR_SETS)) == 4
    assert DecodingSet(True, False) == D_R1


def test_relay_decode_threshold_boundary():
    # relay listens for half the frame: 0.5*log2(1 + rho0 g) >= R iff
    # g >= (4^R - 1)/rho0
    pt = RatePoint(snr=15.0, r=0.25, sigma2_sd=1.0)  # R = 1 bit
    assert pt.decode_threshold == pytest.approx(0.3, rel=1e-15)
    for snr, r in ((15.0, 0.25), (0.3, 0.1), (1e6, 0.45)):
        pt = RatePoint(snr, r, 1.0)
        g = pt.decode_threshold
        assert 0.5 * math.log2(1.0 + pt.rho0 * g * (1 + 1e-9)) >= pt.rate
        assert 0.5 * math.log2(1.0 + pt.rho0 * g * (1 - 1e-9)) < pt.rate


def test_relay_failure_prob_exact():
    pt = RatePoint(15.0, 0.25, 1.0)  # R = 1, threshold 3/10
    expect = 1.0 - math.exp(-0.3)
    assert relay_failure_prob(1.0, pt) == pytest.approx(expect, rel=1e-14)


def test_sample_fading_statistics(unit_cfg, rng):
    n = 20000
    draws = [sample_fading(unit_cfg, rng) for _ in range(n)]
    g = np.array([abs(f.sd) ** 2 for f in draws])
    # |alpha|^2 ~ Exp(1): mean 1, variance 1
    assert abs(g.mean() - 1.0) < 4.0 / math.sqrt(n)
    assert abs(g.var() - 1.0) < 10.0 / math.sqrt(n)
    re = np.array([f.sd.real for f in draws])
    im = np.array([f.sd.imag for f in draws])
    assert abs(np.mean(re * im)) < 4.0 / math.sqrt(n)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(lam1=positive, lam2=positive, snr=st.floats(min_value=0.1, max_value=1e4),
       r=st.floats(min_value=0.0, max_value=0.49))
def test_decoding_probs_total_one(lam1, lam2, snr, r):
    cfg = NetworkConfig(1.0, 1.0 / lam1, 1.0 / lam2, 1.0, 1.0)
    pt = RatePoint(snr, r, 1.0)
    probs = decoding_set_probs(cfg, pt)
    assert set(probs) == set(FOUR_SETS)
    assert all(0.0 <= p <= 1.0 for p in probs.values())
    np.testing.assert_allclose(sum(probs.values()), 1.0, rtol=0, atol=1e-12)
    # product structure: independent relays
    p1 = relay_failure_prob(lam1, pt)
    p2 = relay_failure_prob(lam2, pt)
    np.testing.assert_allclose(probs[D_NONE], p1 * p2, rtol=1e-12, atol=0)
    np.testing.assert_allclose(probs[D_BOTH], (1 - p1) * (1 - p2), rtol=1e-12, atol=0)
