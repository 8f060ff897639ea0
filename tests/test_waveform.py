import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from relaylab.errors import ConfigError, NumericError
from relaylab.waveform import (MIN_SAMPLES_PER_SYMBOL, Waveform, certify_pd,
                               correlations, load_waveform, overlap_integral,
                               rectangular, save_waveform, srrc)


def quad_overlap(w, shift):
    """Adaptive quadrature on each smooth cell, independent of the
    closed-form piecewise integrator under test."""
    t = w.grid

    def f(x):
        a = np.interp(x, t, w.samples, left=0.0, right=0.0)
        b = np.interp(x - shift, t, w.samples, left=0.0, right=0.0)
        return a * b

    lo, hi = max(t[0], t[0] + shift), min(t[-1], t[-1] + shift)
    if hi <= lo:
        return 0.0
    knots = np.unique(np.clip(np.concatenate([t, t + shift]), lo, hi))
    return sum(integrate.quad(f, a, b, epsabs=1e-14)[0]
               for a, b in zip(knots[:-1], knots[1:]))


def spectral_entries(corr, omegas):
    """Diagonal (real) and upper cross (complex) entries of the normalized
    2x2 spectral density at each frequency in omegas."""
    om = np.asarray(omegas, dtype=float)
    t11 = np.full_like(om, corr.r_taps[0])
    for m in range(1, corr.span + 1):
        t11 = t11 + 2.0 * corr.r_taps[m] * np.cos(m * om)
    t12 = np.zeros(om.shape, dtype=complex)
    for m in range(-corr.span, corr.span + 1):
        t12 = t12 + corr.g(m) * np.exp(1j * m * om)
    return t11, t12


def grid_certificate(corr, omega_points):
    """Grid oracle for certify_pd: the extremes of t11 -/+ |t12| on
    omega_points frequencies over [-pi, pi], and the certified extremes.

    Both branches are Lipschitz in omega with constant at most
    2 sum_m m |r(m)| + sum_m |m| |g(m)|, so the grid minimum less (maximum
    plus) half a grid step times it bounds the true minimum (maximum); those
    are clipped to the always-valid [0, trace cap] range.
    """
    om = np.linspace(-math.pi, math.pi, int(omega_points))
    t11, t12 = spectral_entries(corr, om)
    lo = t11 - np.abs(t12)
    hi = t11 + np.abs(t12)
    lips = 2.0 * sum(m * abs(corr.r_taps[m]) for m in range(1, corr.span + 1)) \
        + sum(abs(m) * abs(corr.g(m)) for m in range(-corr.span, corr.span + 1))
    margin = 0.5 * lips * (om[1] - om[0])
    trace_cap = 2.0 * (corr.r_taps[0] + 2.0 * sum(abs(corr.r_taps[m])
                                                  for m in range(1, corr.span + 1)))
    return {
        "lambda_min": float(lo.min()),
        "lambda_max": float(hi.max()),
        "certified_min": float(max(lo.min() - margin, 0.0)),
        "certified_max": float(min(hi.max() + margin, trace_cap)),
        "trace_dev": float(np.max(np.abs(2.0 * t11 - 2.0))),
        "omega": om,
        "lo": lo,
        "hi": hi,
    }


def zoomed_extremes(corr, grid):
    """grid_certificate's two extremes, each refined on 4097 points across
    the grid cells beside it."""
    om, step = grid["omega"], grid["omega"][1] - grid["omega"][0]
    out = []
    for branch, pick, sign in (("lo", np.argmin, -1.0), ("hi", np.argmax, 1.0)):
        w = np.linspace(-step, step, 4097) + om[pick(grid[branch])]
        t11, t12 = spectral_entries(corr, w)
        vals = t11 + sign * np.abs(t12)
        out.append(float(vals.max() if sign > 0 else vals.min()))
    return tuple(out)


def test_energy_normalized():
    for w in (rectangular(1, 64), rectangular(2, 128, duty=0.5),
              srrc(0.5, 2, 64), srrc(1.0, 3, 64), srrc(0.22, 4, 64)):
        assert w.energy == pytest.approx(1.0, abs=1e-9)
        assert len(w.samples) == w.span * w.samples_per_symbol + 1
        assert w.samples.flags.writeable is False


def test_from_samples_validation():
    n = 2 * MIN_SAMPLES_PER_SYMBOL
    good = np.ones(n + 1)
    w = Waveform.from_samples("flat", 2, MIN_SAMPLES_PER_SYMBOL // 2 * 2, good)
    assert w.energy == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):
        Waveform.from_samples("bad", 2, MIN_SAMPLES_PER_SYMBOL, np.ones(5))
    with pytest.raises(ConfigError):
        Waveform.from_samples("bad", 0, MIN_SAMPLES_PER_SYMBOL, good)
    with pytest.raises(ConfigError):
        Waveform.from_samples("bad", 2, 8, np.ones(17))
    with pytest.raises(ConfigError):
        Waveform.from_samples("bad", 2, MIN_SAMPLES_PER_SYMBOL,
                              np.zeros(n + 1))


def test_overlap_matches_adaptive_quadrature():
    w = srrc(0.5, 2, 64)
    for shift in (0.0, 0.3, 1.3, -0.7, 1.9):
        np.testing.assert_allclose(overlap_integral(w, shift),
                                   quad_overlap(w, shift), rtol=0, atol=1e-12)


def test_overlap_outside_support():
    w = srrc(0.5, 2, 64)
    assert overlap_integral(w, 2.0) == 0.0
    assert overlap_integral(w, -2.5) == 0.0


def test_autocorrelation_symmetry():
    w = srrc(0.35, 2, 64)
    c = correlations(w, 0.4)
    for m in (1, 2):
        np.testing.assert_allclose(c.r(m), c.r(-m), rtol=0, atol=1e-15)
    assert c.r(3) == 0.0 and c.g(3) == 0.0


def test_rect_half_symbol_delay():
    c = correlations(rectangular(1, 64), 0.5)
    assert c.rho12 == pytest.approx(0.5, abs=1e-15)
    assert c.rho21 == pytest.approx(0.5, abs=1e-15)
    assert c.a1 == pytest.approx(0.0, abs=1e-15)


def test_rect_full_symbol_delay():
    c = correlations(rectangular(1, 64), 1.0)
    assert c.rho12 == pytest.approx(0.0, abs=1e-15)
    assert c.rho21 == pytest.approx(1.0, abs=1e-15)
    assert abs(c.rho12) + abs(c.rho21) == pytest.approx(1.0, abs=1e-15)


def test_wide_pulse_rejected():
    # flat pulse over three symbols has r(1) = 2/3, outside |a1| < 1/2
    with pytest.raises(ConfigError):
        correlations(rectangular(3, 64, duty=3.0), 0.5)


def test_tau_domain():
    w = rectangular(1, 64)
    for tau in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            correlations(w, tau)


def test_srrc_span2_taps_frozen():
    # reference values from the exact piecewise-linear integrator at 64 spp
    c = correlations(srrc(0.5, 2, 64), 0.3)
    np.testing.assert_allclose(c.a1, 0.1403275445530828, rtol=1e-12)
    np.testing.assert_allclose(c.c0, 0.8530083357062395, rtol=1e-12)
    np.testing.assert_allclose(c.c1, 0.4116109428316528, rtol=1e-12)
    np.testing.assert_allclose(c.c2, -0.002472907654291682, rtol=1e-9)
    np.testing.assert_allclose(c.f1, 0.0166734161580919, rtol=1e-9)


def test_spectral_matrix_hermitian():
    # certify_pd's extremes (t11 -/+ |t12|) are the extreme eigenvalues of
    # the Hermitian 2x2 spectral density [[t11, t12], [conj(t12), t11]]: its
    # eigenvalues at omega_at_min reach lambda_min, and on a grid they stay
    # inside [lambda_min, lambda_max]
    n = 1024
    om = np.linspace(-math.pi, math.pi, n)
    for c in (correlations(srrc(0.5, 2, 64), 0.3), correlations(rectangular(1, 64), 0.5)):
        e = certify_pd(c)
        t11, t12 = spectral_entries(c, np.append(om, e.omega_at_min))
        mats = np.empty((n + 1, 2, 2), dtype=complex)
        mats[:, 0, 0] = mats[:, 1, 1] = t11
        mats[:, 0, 1] = t12
        mats[:, 1, 0] = np.conj(t12)
        ev = np.linalg.eigvalsh(mats)
        np.testing.assert_allclose(ev[-1, 0], e.lambda_min, rtol=0, atol=1e-14)
        assert e.lambda_min - 1e-14 <= ev[:, 0].min()
        assert ev[:, 1].max() <= e.lambda_max + 1e-14


def test_certify_pd_srrc_span2():
    c = correlations(srrc(0.5, 2), 0.3)
    e = certify_pd(c)
    assert e.pd
    np.testing.assert_allclose(e.lambda_min, 1.8343874113e-3, rtol=1e-10)
    grid = grid_certificate(c, 4096)
    assert grid["certified_min"] <= e.lambda_min <= e.lambda_max <= grid["certified_max"]
    assert e.lambda_max <= 2 * (2 * c.span + 1) + 1e-9
    # trace 2*t11(omega) swings by at most 4*sum_m |r(m)| around 2
    cap = 4 * (abs(c.r(1)) + abs(c.r(2)))
    assert 0.0 < e.trace_dev <= cap + 1e-9


def test_certify_pd_rect_half_delay():
    # classic singular pair: rectangle with half-symbol delay, defect at omega=0
    e = certify_pd(correlations(rectangular(1, 64), 0.5))
    assert not e.pd
    assert e.lambda_min == 0.0
    assert e.omega_at_min == 0.0
    assert e.lambda_max <= 2 * 3 + 1e-9
    assert e.trace_dev < 1e-9  # flat rectangle: r(1) = 0, trace constant


def test_certify_pd_grid_floor():
    c = correlations(rectangular(1, 64), 0.5)
    with pytest.raises(TypeError):  # the extremes are exact: no frequency grid to size
        certify_pd(c, omega_points=4096)
    # a negative or NaN pd_tol would certify the singular pair PD or nothing
    for tol in (-1.0, math.nan):
        with pytest.raises(ConfigError):
            certify_pd(c, pd_tol=tol)
    assert certify_pd(c, pd_tol=0.0).pd is False


# the criterion-8 pulses, then pairs the 4096-point grid certificate could not certify
EXACTNESS_PAIRS = [
    (rectangular(1, 64), 0.5),
    (rectangular(1, 64), 1.0),
    (rectangular(1, 64, duty=0.4), 0.5),
    (srrc(0.5, 1, 64), 0.5),
    (srrc(0.5, 2, 64), 0.3),
    (srrc(0.22, 2, 64), 0.7),
    (srrc(0.25, 2), 0.9),
    (srrc(0.5, 3, 64), 0.4),
    (srrc(0.3, 4), 0.6),
]


@pytest.mark.parametrize("pulse,tau", EXACTNESS_PAIRS,
                         ids=[f"{w.label}-tau{t:g}" for w, t in EXACTNESS_PAIRS])
def test_certify_pd_matches_grid_oracle(pulse, tau):
    c = correlations(pulse, tau)
    e = certify_pd(c)
    grid = grid_certificate(c, 2 ** 20)
    lam_min, lam_max = zoomed_extremes(c, grid)
    np.testing.assert_allclose([e.lambda_min, e.lambda_max, e.trace_dev],
                               [lam_min, lam_max, grid["trace_dev"]], rtol=0, atol=1e-12)
    assert grid["certified_min"] <= e.lambda_min <= grid["lambda_min"] + 1e-15
    t11, t12 = spectral_entries(c, np.array([e.omega_at_min]))
    np.testing.assert_allclose(t11 - np.abs(t12), e.lambda_min, rtol=0, atol=1e-15)
    assert 0.0 <= e.omega_at_min <= math.pi


def test_certify_pd_finds_pairs_the_grid_missed():
    # a 4096-point grid's Lipschitz margin swallowed these minima, so the
    # grid certificate called both pairs singular
    for pulse, tau, lam in ((srrc(0.25, 2), 0.9, 1.0605338191e-3),
                            (srrc(0.3, 4), 0.6, 2.7419455728e-4)):
        c = correlations(pulse, tau)
        e = certify_pd(c)
        assert e.pd
        np.testing.assert_allclose(e.lambda_min, lam, rtol=1e-9)
        assert grid_certificate(c, 4096)["certified_min"] == 0.0


def test_save_load_round_trip(tmp_path):
    w = srrc(0.4, 2, 64)
    p = tmp_path / "pulse.txt"
    save_waveform(w, p)
    back = load_waveform(p)
    assert back.span == w.span
    assert back.samples_per_symbol == w.samples_per_symbol
    assert back.label == w.label
    np.testing.assert_allclose(back.samples, w.samples, rtol=0, atol=1e-12)


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_waveform(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("not a waveform\n1.0\n")
    with pytest.raises(ConfigError):
        load_waveform(bad)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(tau=st.floats(min_value=0.01, max_value=1.0),
       rolloff=st.floats(min_value=0.1, max_value=1.0))
def test_cauchy_schwarz_cap_srrc(tau, rolloff):
    c = correlations(srrc(rolloff, 1, 64), tau)
    assert abs(c.rho12) + abs(c.rho21) <= 1.0 + 1e-9


@settings(max_examples=40, derandomize=True, deadline=None)
@given(tau=st.floats(min_value=0.01, max_value=1.0),
       duty=st.floats(min_value=0.3, max_value=1.0))
def test_cauchy_schwarz_cap_rect(tau, duty):
    c = correlations(rectangular(1, 64, duty=duty), tau)
    assert abs(c.rho12) + abs(c.rho21) <= 1.0 + 1e-9
    e = certify_pd(c)
    assert e.lambda_max <= 2 * 3 + 1e-9
