import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from relaylab.errors import ConfigError, NumericError
from relaylab.waveform import (MIN_SAMPLES_PER_SYMBOL, Waveform, certify_pd,
                               correlations, load_waveform, overlap_integral,
                               rectangular, save_waveform, spectral_entries,
                               srrc)


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


def test_swap_relays():
    c = correlations(srrc(0.5, 2, 64), 0.3)
    s = c.swap_relays()
    for m in range(-2, 3):
        np.testing.assert_allclose(s.g(m), c.g(-m), rtol=0, atol=1e-15)
        np.testing.assert_allclose(s.r(m), c.r(m), rtol=0, atol=1e-15)
    t = s.swap_relays()
    assert t.g_taps == c.g_taps


def test_spectral_matrix_hermitian():
    # certify_pd's grid extremes (t11 -/+ |t12|) are the extreme eigenvalues of
    # the Hermitian 2x2 spectral density [[t11, t12], [conj(t12), t11]]
    n = 1024
    om = np.linspace(-math.pi, math.pi, n)
    for c in (correlations(srrc(0.5, 2, 64), 0.3), correlations(rectangular(1, 64), 0.5)):
        t11, t12 = spectral_entries(c, om)
        mats = np.empty((n, 2, 2), dtype=complex)
        mats[:, 0, 0] = mats[:, 1, 1] = t11
        mats[:, 0, 1] = t12
        mats[:, 1, 0] = np.conj(t12)
        ev = np.linalg.eigvalsh(mats)
        e = certify_pd(c, omega_points=n)
        np.testing.assert_allclose([e.lambda_min, e.lambda_max],
                                   [ev[:, 0].min(), ev[:, 1].max()], rtol=0, atol=1e-12)


def test_certify_pd_srrc_span2():
    c = correlations(srrc(0.5, 2, 64), 0.3)
    e = certify_pd(c)
    assert e.pd
    np.testing.assert_allclose(e.certified_min, 0.00128763074882, rtol=1e-6)
    assert e.certified_min <= e.lambda_min <= e.lambda_max <= e.certified_max
    assert e.lambda_max <= 2 * (2 * c.span + 1) + 1e-9
    # trace 2*t11(omega) swings by at most 4*sum_m |r(m)| around 2
    cap = 4 * (abs(c.r(1)) + abs(c.r(2)))
    assert 0.0 < e.trace_dev <= cap + 1e-9


def test_certify_pd_rect_half_delay():
    # classic singular pair: rectangle with half-symbol delay, defect at omega=0
    e = certify_pd(correlations(rectangular(1, 64), 0.5))
    assert not e.pd
    assert e.certified_min == 0.0
    assert abs(e.omega_at_min) < 0.01
    assert e.lambda_max <= 2 * 3 + 1e-9
    assert e.trace_dev < 1e-9  # flat rectangle: r(1) = 0, trace constant


def test_certify_margin_shrinks_with_grid():
    c = correlations(srrc(0.5, 2, 64), 0.3)
    a = certify_pd(c, omega_points=1024)
    b = certify_pd(c, omega_points=8192)
    assert b.margin < a.margin
    assert b.certified_min >= a.certified_min


def test_certify_pd_grid_floor():
    c = correlations(rectangular(1, 64), 0.5)
    with pytest.raises(ConfigError):
        certify_pd(c, omega_points=16)
    # a negative or NaN pd_tol would certify the singular pair PD or nothing
    for tol in (-1.0, math.nan):
        with pytest.raises(ConfigError):
            certify_pd(c, pd_tol=tol)
    assert certify_pd(c, pd_tol=0.0).pd is False


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
    e = certify_pd(c, omega_points=512)
    assert e.lambda_max <= 2 * 3 + 1e-9
