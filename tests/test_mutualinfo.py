import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import spence

from relaylab.channel import D_BOTH, D_NONE, D_R1, D_R2, FadingRealization
from relaylab import mutualinfo
from relaylab.errors import ConfigError, NumericError
from relaylab.mutualinfo import (DelayConfig, LinkRecord, SchemeId, _both_relays, _clausen2,
                                 _cos_window_means, _emaca_batch, _wrap_angle, check_scheme,
                                 closed_log_integral, i_af_pair, i_esd, i_esd_bounds,
                                 mi_batch, mi_envelope, record_below, record_mi)
from relaylab.waveform import certify_pd, correlations, rectangular, srrc
from test_waveform import spectral_entries

UNIT = FadingRealization(1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)

gain = st.floats(min_value=1e-4, max_value=50.0)
phase = st.floats(min_value=-math.pi, max_value=math.pi)
rho = st.floats(min_value=1e-2, max_value=1e3)


def random_fading(rng):
    z = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) / math.sqrt(2)
    return FadingRealization(*map(complex, z))


def envelope(scheme, f, d, rho0, **kw):
    """mi_envelope on a batch of one draw f and decoding set d, as floats."""
    rows = mi_envelope(scheme, np.array([f.sd]), np.array([f.r1d]), np.array([f.r2d]),
                       np.array([d.r1]), np.array([d.r2]), rho0, **kw)
    return tuple(float(x[0]) for x in rows)


def mi(scheme, f, d, rho0, **kw):
    """mi_batch on a batch of one, as a float."""
    return float(mi_batch(scheme, np.array([f.sd]), np.array([f.r1d]), np.array([f.r2d]),
                          np.array([d.r1]), np.array([d.r2]), rho0, **kw)[0])


def gains2(f):
    return abs(f.sd) ** 2, abs(f.r1d) ** 2, abs(f.r2d) ** 2


def _record(sd, r1d, r2d):
    """The link record of complex destination gains, as mi_batch builds it."""
    return LinkRecord.of_gains(np.abs(sd) ** 2, r1d, r2d)


# ---------------------------------------------------------------------------
# synchronous evaluator and the circle-log integral


def test_i_stc_reference_point():
    # 0.5*log2(2) + 0.5*log2(3) at unit gains, rho0 = 1; a closed form, so
    # the envelope is the value itself
    v = envelope(SchemeId.STC_SYNC, UNIT, D_BOTH, 1.0)
    np.testing.assert_allclose(v, [1.2924812503605778] * 3, rtol=1e-15)
    np.testing.assert_allclose(mi(SchemeId.STC_SYNC, UNIT, D_NONE, 1.0), 0.5, rtol=1e-15)
    np.testing.assert_allclose(mi(SchemeId.STC_SYNC, UNIT, D_R1, 1.0), 1.0, rtol=1e-15)


def test_i_stc_set_monotone():
    f = FadingRealization(0.3 + 0.4j, 0j, 0j, 1.2 - 0.1j, 0.2 + 0.9j)
    vals = [mi(SchemeId.STC_SYNC, f, d, 5.0) for d in (D_NONE, D_R1, D_R2, D_BOTH)]
    assert vals[0] <= vals[1] <= vals[3]
    assert vals[0] <= vals[2] <= vals[3]


def test_closed_log_integral_values():
    np.testing.assert_allclose(closed_log_integral(0.0, 0.0), 0.0, atol=0)
    np.testing.assert_allclose(closed_log_integral(0.6, 0.0),
                               math.log2(0.9), rtol=1e-15)
    np.testing.assert_allclose(closed_log_integral(0.6, 0.0),
                               -0.15200309344504995, rtol=1e-15)
    with pytest.raises(ConfigError):
        closed_log_integral(0.8, 0.7)


def test_closed_log_integral_vs_quadrature():
    for a, b in ((0.3, 0.2), (-0.5, 0.4), (0.0, 0.95), (0.7, -0.6)):
        ref, _ = integrate.quad(
            lambda x: math.log2(1.0 + a * math.sin(x) + b * math.cos(x)),
            0.0, 2.0 * math.pi, limit=300)
        np.testing.assert_allclose(closed_log_integral(a, b), ref / (2 * math.pi),
                                   rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# delay configurations


def test_delay_config_delta1():
    assert DelayConfig.from_t0bw(3.0).delta1 == 1.0
    assert DelayConfig.from_t0bw(2.5).delta1 == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert DelayConfig.from_t0bw(0.5).delta1 == 0.0
    # near-integer snap keeps the closed-form branch reachable
    assert DelayConfig.from_t0bw(3.0 - 1e-12).delta1 == 1.0


def test_delay_config_validation():
    for t0bw in (-1.0, math.nan, math.inf, 2.0 ** 21 + 1.0, 1e300, 1e308):
        with pytest.raises(ConfigError):
            DelayConfig.from_t0bw(t0bw)
    for t0bw in (0, 2.5, 1e6 + 0.5, 2.0 ** 21):
        assert DelayConfig.from_t0bw(t0bw).t0bw == float(t0bw)


def test_scheme_input_sets():
    # every scheme but STC_SYNC reads one input besides the gains, and check_scheme asks for it
    for scheme in SchemeId:
        reads = (scheme in mutualinfo._DELAY_SCHEMES) + (scheme in mutualinfo._CORR_SCHEMES)
        assert reads == (scheme != SchemeId.STC_SYNC), scheme
    corr = correlations(rectangular(1, 64), 0.5)
    delays = DelayConfig.from_t0bw(2.0)
    for scheme in mutualinfo._DELAY_SCHEMES:
        with pytest.raises(ConfigError, match="needs delays"):
            check_scheme(scheme, corr=corr)
        assert check_scheme(scheme, delays=delays) == scheme
    for scheme in mutualinfo._CORR_SCHEMES:
        with pytest.raises(ConfigError, match="needs a CorrelationSet"):
            check_scheme(scheme, delays=delays)
        assert check_scheme(scheme, corr=corr) == scheme
    assert check_scheme(SchemeId.STC_SYNC) == SchemeId.STC_SYNC


# ---------------------------------------------------------------------------
# independent-codebook delay diversity


# Closed forms of the both-relays delay-diversity rates at whole-period t0*bw:
# the mean of log2(A + B cos u) over whole periods is log2((A + sqrt(A^2 - B^2))/2)
# with A = inside + rho0 (g1+g2), B = 2 rho0 sqrt(g1 g2).


def _whole_period_relay_rate(inside, g1, g2, rho0):
    A = inside + rho0 * (g1 + g2)
    B = 2.0 * rho0 * math.sqrt(g1 * g2)
    return math.log2(0.5 * (A + math.sqrt(max(A * A - B * B, 0.0))))


def _tda_integer_period_value(f, rho0):
    gsd, g1, g2 = gains2(f)
    return 0.5 * math.log2(1.0 + rho0 * gsd) + 0.5 * _whole_period_relay_rate(1.0, g1, g2, rho0)


def _rtda_integer_period_value(f, rho0):
    gsd, g1, g2 = gains2(f)
    return 0.5 * _whole_period_relay_rate(1.0 + rho0 * gsd, g1, g2, rho0)


def test_tda_integer_period_matches_quadrature():
    delays = DelayConfig.from_t0bw(3.0)
    f = FadingRealization(0.5 + 0.2j, 0j, 0j, 1.1 + 0.3j, 0.4 - 0.8j)
    closed = _tda_integer_period_value(f, 4.0)
    quad = mi(SchemeId.TDA_INDEP, f, D_BOTH, 4.0, delays=delays)
    np.testing.assert_allclose(closed, quad, rtol=0, atol=1e-12)


def test_tda_reduces_to_sync_for_small_sets():
    delays = DelayConfig.from_t0bw(2.0)
    for d in (D_NONE, D_R1, D_R2):
        value, lower, upper = envelope(SchemeId.TDA_INDEP, UNIT, d, 3.0, delays=delays)
        assert value == lower == upper == mi(SchemeId.STC_SYNC, UNIT, d, 3.0)


def test_tda_zero_delay_collapses():
    # zero relative delay: the relays collapse to one effective gain, a closed
    # form, so the envelope is the value itself
    delays = DelayConfig.from_t0bw(0.0)
    f = FadingRealization(1 + 0j, 0j, 0j, 1 + 0j, -1 + 0j)  # opposite phases cancel
    value, lower, upper = envelope(SchemeId.TDA_INDEP, f, D_BOTH, 1.0, delays=delays)
    np.testing.assert_allclose(value, 0.5, rtol=1e-12)  # direct term only
    assert lower == value == upper


def test_tda_subunit_bandwidth_lower_is_zero():
    # below one period the window holds no whole period, so the lower bound
    # is log2(A - B), 0 at unit relay gains with no direct link (A = 3,
    # B = 2); Jensen's upper bound at psi = 0 is log2(A + B sin(h)/h), h = pi/2
    f = FadingRealization(0j, 0j, 0j, 1 + 0j, 1 + 0j)
    for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
        value, lower, upper = envelope(scheme, f, D_BOTH, 1.0,
                                       delays=DelayConfig.from_t0bw(0.5))
        assert lower == 0.0 < value <= upper
        assert upper == pytest.approx(0.5 * math.log2(3.0 + 4.0 / math.pi), rel=1e-15)


def _graded_window_mean(f, h, dips, levels=40, points=20):
    """Mean of f over [-h, h]: Gauss-Legendre on panels that halve in width
    toward every cut (the window ends and the dips of f inside it), so a
    near-singular dip is resolved at any depth."""
    x, w = np.polynomial.legendre.leggauss(points)
    cuts = sorted({-h, h, *(d for d in dips if -h < d < h)})
    frac = np.concatenate(([0.0], 0.5 ** np.arange(levels, -1, -1)))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        for end in (a, b):
            edges = end + (0.5 * (a + b) - end) * frac
            half = 0.5 * np.diff(edges)[:, None]
            centre = 0.5 * (edges[:-1] + edges[1:])[:, None]
            total += np.sum(np.abs(half) * w * f(half * x + centre))
    return total / (2.0 * h)


def test_tda_window_mean_matches_graded_quadrature():
    # Both-relays delay-diversity rates against the graded rule above, which
    # integrates |a1 + a2 e^{ju}|^2 straight from the complex gains.  Half the
    # rows have nearly equal relay gains: there A - B stays near 1 while A
    # grows with rho0, and the integrand dips sharply at u = pi - psi.
    rng = np.random.default_rng(23)
    n = 12
    g1 = rng.exponential(size=n)
    g2 = np.concatenate([g1[:6] * (1.0 + np.array([0.0, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2])),
                         rng.exponential(size=n - 6)])
    r1d = np.sqrt(g1) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    r2d = np.sqrt(g2) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    sd = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    both = np.ones(n, dtype=bool)
    worst = 0.0
    for db in (0.0, 30.0, 60.0):
        rho0 = 10.0 ** (db / 10.0)
        for t0bw in (1e-3, 0.3, 1.0, 1.7, 2.5, 6.0):
            delays = DelayConfig.from_t0bw(t0bw)
            for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
                got = mi_batch(scheme, sd, r1d, r2d, both, both, rho0, delays=delays)
                rep = scheme == SchemeId.TDA_REPETITION
                for i in range(n):
                    direct = rho0 * abs(sd[i]) ** 2
                    inside = 1.0 + (direct if rep else 0.0)
                    psi = cmath.phase(r2d[i]) - cmath.phase(r1d[i])
                    mean = _graded_window_mean(
                        lambda u: np.log2(inside + rho0 * np.abs(r1d[i] + r2d[i] * np.exp(1j * u)) ** 2),
                        math.pi * t0bw, [math.pi - psi + 2.0 * math.pi * k for k in range(-8, 9)])
                    want = 0.5 * mean if rep else 0.5 * math.log2(1.0 + direct) + 0.5 * mean
                    worst = max(worst, abs(got[i] - want))
    assert worst <= 1e-11, worst


def _mp_window_mean(f, a, b, psi, h):
    """mean of f(a + b cos(u + psi)) over |u| <= h by mpmath quad, split
    where the argument dips (u + psi = pi mod 2 pi)."""
    with mpmath.workdps(40):
        a, b, psi, h = (mpmath.mpf(float(v)) for v in (a, b, psi, h))
        cuts = {mpmath.mpf(-1), mpmath.mpf(0), mpmath.mpf(1)}
        for k in range(-2, 3):
            t = (mpmath.pi - psi + 2 * mpmath.pi * k) / h
            if -1 < t < 1:
                cuts.add(t)
        return float(mpmath.quad(lambda t: f(a + b * mpmath.cos(psi + h * t)), sorted(cuts)) / 2)


def _short_window_rows():
    # Rows pair near-equal relay gains with phases near pi, where
    # A + B cos dips to A - B.
    rng = np.random.default_rng(31)
    rows = [(101.0, 99.0, 0.3), (101.0, 99.0, math.pi - 1e-3), (3.0, 1.0, 1.0)]
    for db in (20.0, 40.0, 60.0, 80.0):
        rho0 = 10.0 ** (db / 10.0)
        for rel in (0.0, 1e-6, 1e-3, 1e-1):
            g1 = rng.exponential()
            g2 = g1 * (1.0 + rel)
            psi = math.pi - 10.0 ** rng.uniform(-4.0, -1.0) if rel < 1e-2 \
                else rng.uniform(-math.pi, math.pi)
            rows.append((1.0 + rho0 * (g1 + g2), 2.0 * rho0 * math.sqrt(g1 * g2), psi))
    return rows


@pytest.mark.parametrize("t0bw", (1e-300, 1e-12, 1e-8, 1e-6, 1e-3))
def test_short_window_mean_matches_mpmath(t0bw):
    # The dilogarithm form cancels like eps / h in short windows (3.6 bits off
    # at t0bw = 1e-300 for A = 101, B = 99); the short-window expansion takes
    # over there.
    rows = _short_window_rows()
    a, b, psi = (np.array(col) for col in zip(*rows))
    h = math.pi * t0bw
    got = _cos_window_means(a, b, psi, h)[0]
    want = [_mp_window_mean(lambda x: mpmath.log(x, 2), *row, h) for row in rows]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


@pytest.mark.parametrize("t0bw", (1e-300, 1e-12, 1e-8, 1e-6, 1e-3))
def test_short_window_inverse_mean_matches_mpmath(t0bw):
    # The mean of 1/(A + B cos), the Newton slope of the rtda2 oracle, has the
    # same eps / h cancellation (8.8 relative off at t0bw = 1e-300 for
    # A = 101, B = 99, psi = 0.3) and takes the A-derivative of the same
    # expansion.
    rows = _short_window_rows()
    a, b, psi = (np.array(col) for col in zip(*rows))
    h = math.pi * t0bw
    got = _cos_window_means(a, b, psi, h)[1]
    want = [_mp_window_mean(lambda x: 1 / x, *row, h) for row in rows]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("rho0", (1e8, 1e12, 1e16))
def test_short_window_kernel_keeps_a_minus_b_from_the_gains(rho0):
    # Near-opposite relay gains, r1d = 1 and r2d = -(1 - 1e-9), in a short
    # window (t0bw 1e-6): A - B = 1 + rho0 (sqrt g1 - sqrt g2)^2 is near
    # 1 + 1e-10, 1 + 1e-6 and 1.01, where the float A - B reads 1.0, 1.0 and
    # 0.0.  From the gain form the MI is within 1.1e-10 bits of a 50-digit
    # window mean (from the float A - B it was 7.2e-11, 2.9e-7 and 7.2e-3 low)
    delays = DelayConfig.from_t0bw(1e-6)
    r1d, r2d = np.array([1.0 + 0j]), np.array([-(1.0 - 1e-9) + 0j])
    both = np.array([True])
    got = float(mi_batch(SchemeId.TDA_INDEP, np.array([0j]), r1d, r2d, both, both, rho0,
                         delays=delays)[0])
    links = _record(np.array([0j]), r1d, r2d)
    with mpmath.workdps(50):
        g1, g2 = mpmath.mpf(float(links.g1[0])), mpmath.mpf(float(links.g2[0]))
        a, b = 1 + rho0 * (g1 + g2), 2 * rho0 * mpmath.sqrt(g1 * g2)
        h = mpmath.pi * mpmath.mpf(delays.t0bw)
        kernel = mpmath.quad(lambda u: mpmath.log(a - b * mpmath.cos(u), 2), [-h, 0, h]) / (2 * h)
        want = float(kernel / 2)  # (direct + kernel)/2 with no direct gain
    assert abs(got - want) < 2e-10, (got, want)


def test_clausen2_matches_mpmath():
    # A grid over several periods plus the points where the argument
    # reduction matters most: the zeros at multiples of pi (the slope
    # -ln|2 sin(t/2)| is unbounded at even multiples) and 1e-9 beside them
    k = np.arange(-6, 7) * math.pi
    t = np.concatenate((np.linspace(-20.0, 20.0, 321), k, k + 1e-9, k - 1e-9,
                        [1e-300, 5e-324, -1e-15, 0.0]))
    with mpmath.workdps(30):
        want = np.array([float(mpmath.clsin(2, mpmath.mpf(float(v)))) for v in t])
    np.testing.assert_allclose(_clausen2(_wrap_angle(t)), want, rtol=0, atol=4e-15)


def _spence_window_mean(A, B, psi, h):
    """The window mean with F(x) = Im Li2(-c e^{ix}) taken from complex
    scipy.special.spence (Li2(z) = spence(1 - z)), the form the real Clausen
    functions replaced."""
    r = np.sqrt((A - B) * (A + B))
    c = B / (A + r)
    f = sum(spence(1.0 + c * np.exp(1j * x)).imag for x in (h + psi, h - psi))
    return (np.log(0.5 * (A + r)) - f / h) / math.log(2.0)


def _mp_window_means(A, B, psi, h):
    """Both window means at 40 digits from the same sums, with Li2 and arg in
    mpmath on the exact float inputs."""
    with mpmath.workdps(40):
        A, B, psi, h = (mpmath.mpf(float(v)) for v in (A, B, psi, h))
        r = mpmath.sqrt((A - B) * (A + B))
        c = B / (A + r)
        zs = [c * mpmath.expj(h + psi), c * mpmath.expj(h - psi)]
        f = sum(mpmath.im(mpmath.polylog(2, -z)) for z in zs)
        arg = sum(mpmath.arg(1 + z) for z in zs)
        return float((mpmath.log((A + r) / 2) - f / h) / mpmath.log(2)), float((1 - arg / h) / r)


def _clausen_rows():
    # (A, B, psi): c = 0; c near 1 (A - B = 1e-12 A); h +- psi at multiples
    # of pi for h = 2.5 pi and h = pi (1e6 + 0.5); psi at and beside +-pi
    pi = math.pi
    rows = [(3.0, 0.0, 0.7), (1.0, 0.0, -2.0), (1e6, 1e6 * (1.0 - 1e-12), 0.3),
            (1e6, 1e6 * (1.0 - 1e-12), pi - 1e-3), (2.0, 1.0, 0.5 * pi), (2.0, 1.0, -0.5 * pi),
            (5.0, 4.0, pi), (5.0, 4.0, -pi), (1e4, 9999.0, pi - 1e-9), (1e4, 9999.0, 1e-9 - pi)]
    return tuple(np.array(col) for col in zip(*rows))


@pytest.mark.parametrize("t0bw", (1.0 + 1e-6, 2.5, 12.3, 1e6 + 0.5))
def test_window_means_match_spence_and_mpmath(t0bw):
    # The Clausen form against 40-digit sums on edge rows, and against the
    # complex-spence form on the edge rows and on 4096 random rows (A up to
    # 1e10, B / A up to 1 - 1e-12, any psi), to 1e-12 bits.  Spence is left
    # out where h +- psi is within 1e-3 of a multiple of 2 pi: there
    # 1 + c e^{ix} lies just off the real axis past 1, and scipy's complex
    # spence misses Im Li2 by 0.026 at c = 2 - sqrt(3) (A = 2, B = 1) on the
    # axis and by 3e-11 at 1e-6 beside it, while the Clausen form matches
    # mpmath
    h = math.pi * t0bw
    a, b, psi = _clausen_rows()
    got, got_inv = _cos_window_means(a, b, psi, h)
    want = [_mp_window_means(*row, h) for row in zip(a, b, psi)]
    np.testing.assert_allclose(got, [w[0] for w in want], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_inv, [w[1] for w in want], rtol=1e-12, atol=0)
    off_axis = np.all(np.abs(np.angle(np.exp(1j * np.stack((h + psi, h - psi))))) > 1e-3, axis=0)
    np.testing.assert_allclose(got[off_axis], _spence_window_mean(a, b, psi, h)[off_axis],
                               rtol=0, atol=1e-12)
    rng = np.random.default_rng(53)
    a = 1.0 + 10.0 ** rng.uniform(-3.0, 10.0, 4096)
    b = a * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0, a.size))
    psi = rng.uniform(-math.pi, math.pi, a.size)
    np.testing.assert_allclose(_cos_window_means(a, b, psi, h)[0],
                               _spence_window_mean(a, b, psi, h), rtol=0, atol=1e-12)


@pytest.mark.parametrize("t0bw", (0.01, 1.0 + 1e-6, 2.5, 12.3, 1e6 + 0.5))
def test_window_means_on_shared_phase_terms_are_bitwise_equal(t0bw):
    # The rtda2 level rule computes the psi-only terms once per phase node and
    # shares them across rows: the same float operations per row as the means'
    # own per-row terms, short windows (t0bw 0.01) and B = 0 rows included
    rng = np.random.default_rng(59)
    phases = rng.uniform(-math.pi, math.pi, 12)
    which = rng.integers(0, phases.size, 4096)
    a = 1.0 + 10.0 ** rng.uniform(-3.0, 10.0, which.size)
    b = a * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0, a.size)) * (rng.random(a.size) > 0.1)
    h = math.pi * t0bw
    shared = tuple(v[:, which] for v in mutualinfo._window_phase(phases, h))
    got = _cos_window_means(a, b, phases[which], h, shared)
    want = _cos_window_means(a, b, phases[which], h)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("t0bw", (1e-6, 2.5))
def test_window_means_where_a_plus_r_passes_the_float_range(t0bw):
    # A = 0.9 of the float max with B <= A/9: A + B and R are finite, A + R
    # is not.  The means take (A + R)/2 as A/2 + R/2, so no overflow warning
    # escapes (an error in this suite) and the mean, near 1024 bits, matches
    # the 40-digit sums
    big = np.finfo(float).max
    a = np.full(3, 0.9 * big)
    b = np.array([0.0, 0.05, 0.1]) * big
    psi = np.array([0.3, 1.0, 2.5])
    h = math.pi * t0bw
    got = _cos_window_means(a, b, psi, h)[0]
    want = [_mp_window_means(*row, h)[0] for row in zip(a, b, psi)]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# repetition delay diversity


def test_rtda_cases():
    delays = DelayConfig.from_t0bw(2.0)
    rho0 = 3.0
    v0 = mi(SchemeId.TDA_REPETITION, UNIT, D_NONE, rho0, delays=delays)
    np.testing.assert_allclose(v0, 0.5 * math.log2(1 + rho0), rtol=1e-14)
    v1 = mi(SchemeId.TDA_REPETITION, UNIT, D_R2, rho0, delays=delays)
    np.testing.assert_allclose(v1, 0.5 * math.log2(1 + 2 * rho0), rtol=1e-14)
    closed = _rtda_integer_period_value(UNIT, rho0)
    quad = mi(SchemeId.TDA_REPETITION, UNIT, D_BOTH, rho0, delays=delays)
    np.testing.assert_allclose(closed, quad, rtol=0, atol=1e-12)


def test_rtda_below_tda():
    # repeating the codeword can never beat independent codebooks
    rng = np.random.default_rng(7)
    delays = DelayConfig.from_t0bw(2.0)
    for _ in range(50):
        f = random_fading(rng)
        vt = mi(SchemeId.TDA_INDEP, f, D_BOTH, 5.0, delays=delays)
        vr = mi(SchemeId.TDA_REPETITION, f, D_BOTH, 5.0, delays=delays)
        assert vr <= vt + 1e-12


# ---------------------------------------------------------------------------
# linearly modulated overlap evaluator


def test_ltda_disjoint_support_reference():
    # duty 0.4 pulse with tau 0.5: zero cross-overlap, so b = 0 and
    # i2 = log2(1 + a + (1+a)) - 1 with a = rho0 (r1^2 + r2^2)
    corr = correlations(rectangular(1, 64, duty=0.4), 0.5)
    assert corr.rho12 == 0.0 and corr.rho21 == 0.0
    f = FadingRealization(1 + 0j, 0j, 0j, complex(math.sqrt(2)), 1 + 0j)
    v = mi(SchemeId.TDA_LINMOD, f, D_BOTH, 1.0, corr=corr)
    # a = 3: i2 = log2(8) - 1 = 2, plus the direct half-bit
    np.testing.assert_allclose(v, 0.5 * math.log2(2.0) + 0.5 * 2.0, rtol=1e-12)


def test_ltda_span_guard():
    corr = correlations(srrc(0.5, 2, 64), 0.3)
    with pytest.raises(ConfigError):
        envelope(SchemeId.TDA_LINMOD, UNIT, D_BOTH, 1.0, corr=corr)


def test_ltda_small_sets():
    corr = correlations(rectangular(1, 64), 0.5)
    for d in (D_NONE, D_R1):
        value, lower, upper = envelope(SchemeId.TDA_LINMOD, UNIT, d, 2.0, corr=corr)
        assert value == lower == upper == mi(SchemeId.STC_SYNC, UNIT, d, 2.0)


# ---------------------------------------------------------------------------
# single-stream and two-stream spectral evaluators


def test_i_esd_zero_isi():
    g = np.array([0.1, 1.0, 7.5])
    np.testing.assert_allclose(i_esd(np.sqrt(g) + 0j, 0.0, 1.0), np.log2(1 + g), rtol=1e-14)


def test_i_esd_matches_quadrature():
    a1, g, rho0 = 0.25, 1.7, 3.0
    ref, _ = integrate.quad(
        lambda w: math.log2(1.0 + rho0 * g * (1.0 + 2.0 * a1 * math.cos(w))),
        -math.pi, math.pi, limit=200)
    ref /= 2 * math.pi
    np.testing.assert_allclose(i_esd(complex(math.sqrt(g)), a1, rho0), ref,
                               rtol=0, atol=1e-11)


def test_i_esd_domain():
    with pytest.raises(ConfigError):
        i_esd(1 + 0j, 0.5, 1.0)
    # every element is checked, NaN included
    for bad in (0.5, -0.5, math.nan):
        with pytest.raises(ConfigError):
            i_esd(np.ones(3, dtype=complex), np.array([0.1, bad, 0.2]), 1.0)


def test_i_esd_bounds_sandwich():
    # elementwise over (gain, a1, rho0) triples, scalars broadcasting
    a = np.sqrt([0.5, 2.0, 10.0]) + 0j
    a1 = np.array([0.1, -0.45, 0.3])
    rho0 = np.array([2.0, 0.3, 50.0])
    lo, hi = i_esd_bounds(a, rho0)
    v = i_esd(a, a1, rho0)
    assert v.shape == lo.shape == hi.shape == (3,)
    assert np.all(lo < v) and np.all(v <= hi + 1e-15)
    for i in range(3):
        assert i_esd(a[i], a1[i], rho0[i]) == v[i]
        assert i_esd_bounds(a[i], rho0[i]) == (lo[i], hi[i])


def test_i_emaca_matches_brute_quadrature():
    corr = correlations(srrc(0.5, 2, 64), 0.3)
    rho0, g1, g2 = 5.0, 1.3, 0.6

    def integrand(w):
        t11, t12 = spectral_entries(corr, np.array([w]))
        t11 = float(t11[0])
        det = (1.0 + rho0 * (g1 + g2) * t11
               + rho0 * rho0 * g1 * g2 * (t11 * t11 - abs(t12[0]) ** 2))
        return math.log2(det)

    ref, _ = integrate.quad(integrand, -math.pi, math.pi, limit=400)
    ref /= 2 * math.pi
    got = _emaca_batch(g1, g2, corr, rho0)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)


def test_emaca_batch_matches_graded_quadrature():
    # The exact pair rate against the graded rule above, applied to the
    # determinant built from spectral_entries.  The rect/half-delay pair is
    # singular at w = 0 (t11 = 1, |t12| = cos(w/2)), where the integrand dips
    # to log2(1 + a) from about log2(b) over a width of order rho0^-1/2.  The
    # gain rows include zeros and near-zeros, where the degree of the
    # determinant in cos w drops or its top coefficient nearly vanishes.
    rng = np.random.default_rng(29)
    draws = rng.exponential(size=(2, 8))
    x = rng.exponential(size=6)
    g1 = np.concatenate([draws[0], [0.0, 1e-12, 1e-9], x[:3], [0.0, 1e-12]])
    g2 = np.concatenate([draws[1], x[3:], [0.0, 1e-12, 1e-9], [0.0, 1e-9]])
    pulses = [(rectangular(1, 256), 0.5), (srrc(0.5, 1, 256), 0.5), (srrc(0.5, 2, 256), 0.3)]
    worst = 0.0
    for pulse, tau in pulses:
        corr = correlations(pulse, tau)
        grid = np.linspace(-np.pi, np.pi, 4097)
        t11, t12 = spectral_entries(corr, grid)
        dips = [0.0, float(grid[np.argmin(t11 * t11 - np.abs(t12) ** 2)])]
        for db in (0.0, 20.0, 40.0, 60.0, 80.0):
            rho0 = (2.0 / 3.0) * 10.0 ** (db / 10.0)
            got = _emaca_batch(g1, g2, corr, rho0)
            for i in range(g1.size):
                a = rho0 * (g1[i] + g2[i])
                b = rho0 * rho0 * g1[i] * g2[i]

                def log_det(w):
                    t11, t12 = spectral_entries(corr, w)
                    return np.log2(1.0 + a * t11 + b * (t11 * t11 - np.abs(t12) ** 2))

                want = _graded_window_mean(log_det, np.pi, dips)
                worst = max(worst, abs(got[i] - want))
    assert worst <= 1e-11, worst


def test_emaca_batch_one_gain_is_single_stream():
    # With one relay gain zero the determinant is 1 + rho0 g t11(w), of
    # degree span (degree 1 for the truncated SRRC span 2, whose r(2) is 0),
    # and its mean is the single-stream closed form i_esd.
    g = np.array([0.04, 0.7, 1.0, 3.5, 20.0])
    zero = np.zeros(g.size)
    for pulse, tau in [(rectangular(1, 256), 0.5), (srrc(0.5, 1, 256), 0.5),
                       (srrc(0.5, 2, 256), 0.3)]:
        corr = correlations(pulse, tau)
        for rho0 in (0.67, 50.0, 6.7e7):
            want = i_esd(np.sqrt(g), corr.a1, rho0)
            for pair in ((g, zero), (zero, g)):
                got = _emaca_batch(*pair, corr, rho0)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_i_emaca_phase_invariant():
    corr = correlations(srrc(0.5, 1, 64), 0.5)
    f1 = FadingRealization(0j, 0j, 0j, 1.2 + 0j, 0.7 + 0j)
    f2 = FadingRealization(0j, 0j, 0j, 1.2 * cmath.exp(0.9j), 0.7 * cmath.exp(-2.1j))
    a = envelope(SchemeId.ASTC, f1, D_BOTH, 4.0, corr=corr)
    b = envelope(SchemeId.ASTC, f2, D_BOTH, 4.0, corr=corr)
    np.testing.assert_allclose(a, b, rtol=1e-13)


def test_isi_envelope_certified_eigenvalues():
    # The parallel-channel sandwich: the pair term of ASTC and MIX_AF lies
    # between sum_k log2(1 + rho0 g_k lambda) at certify_pd's eigenvalue
    # extremes; on the singular rect pair the minimum is 0, so the lower sum
    # is 0 and the lower bound is the direct term.
    rng = np.random.default_rng(5)
    n = 200
    sd, r1d, r2d = (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))) / math.sqrt(2)
    both = np.ones(n, dtype=bool)
    for corr in (correlations(rectangular(1, 64), 0.5), correlations(srrc(0.5, 2, 64), 0.3)):
        eig = certify_pd(corr)
        if not eig.pd:
            assert eig.lambda_min == 0.0
        for rho0 in (0.5, 30.0, 1e4):
            own = i_esd(sd, corr.a1, rho0)
            lower, upper = (0.5 * (own + sum(np.log2(1.0 + rho0 * np.abs(r) ** 2 * lam)
                                             for r in (r1d, r2d)))
                            for lam in (eig.lambda_min, eig.lambda_max))
            for scheme in (SchemeId.ASTC, SchemeId.MIX_AF):
                value = mi_envelope(scheme, sd, r1d, r2d, both, both, rho0, corr=corr)[0]
                np.testing.assert_array_equal(
                    value, mi_batch(scheme, sd, r1d, r2d, both, both, rho0, corr=corr))
                assert np.all(lower <= value + 1e-12) and np.all(value <= upper + 1e-12)


# ---------------------------------------------------------------------------
# asynchronous space-time coding and the mixing protocol


def test_i_astc_case_structure():
    corr = correlations(srrc(0.5, 1, 64), 0.5)
    rho0 = 4.0
    f = FadingRealization(0.9 + 0.1j, 0j, 0j, 1.1 - 0.4j, 0.3 + 0.6j)
    own = i_esd(f.sd, corr.a1, rho0)
    got = mi_batch(SchemeId.ASTC, np.full(3, f.sd), np.full(3, f.r1d), np.full(3, f.r2d),
                   np.array([False, False, True]), np.array([False, True, True]), rho0,
                   corr=corr)
    np.testing.assert_allclose(got[0], 0.5 * own, rtol=1e-14)
    np.testing.assert_allclose(got[1], 0.5 * (own + i_esd(f.r2d, corr.a1, rho0)), rtol=1e-14)
    pair = _emaca_batch(abs(f.r1d) ** 2, abs(f.r2d) ** 2, corr, rho0)[0]
    np.testing.assert_allclose(got[2], 0.5 * (own + pair), rtol=1e-14)


def test_scheme_mi_requirements():
    for scheme in (SchemeId.TDA_INDEP, SchemeId.ASTC, SchemeId.MIX_AF):
        for fn in (mi, envelope):
            with pytest.raises(ConfigError):
                fn(scheme, UNIT, D_BOTH, 1.0)


def test_mix_af_branches():
    corr = correlations(srrc(0.5, 1, 64), 0.5)
    rho0 = 2.0
    f = FadingRealization(1.0 + 0j, 0j, 0j, 0.8 + 0.1j, 1.4 - 0.2j)
    gsd, g1, g2 = gains2(f)
    v0 = mi(SchemeId.MIX_AF, f, D_NONE, rho0, corr=corr)
    np.testing.assert_allclose(v0, 0.5 * i_af_pair(gsd, g1, rho0), rtol=1e-14)
    # relay 2 decoded: its own stream, plus relay 1 amplified with the direct link
    v1 = mi(SchemeId.MIX_AF, f, D_R2, rho0, corr=corr)
    np.testing.assert_allclose(
        v1, 0.5 * (i_af_pair(gsd, g1, rho0) + math.log2(1 + rho0 * g2)), rtol=1e-14)
    v2 = envelope(SchemeId.MIX_AF, f, D_BOTH, rho0, corr=corr)
    np.testing.assert_allclose(v2, envelope(SchemeId.ASTC, f, D_BOTH, rho0, corr=corr),
                               rtol=1e-14)


def test_mix_af_lone_relay_identity():
    # whichever relay decoded forwards its own stream; the one that failed is
    # the amplify-forward partner of the direct link
    corr = correlations(srrc(0.5, 1, 64), 0.5)
    rho0, g1, g2 = 4.0, 2.0, 0.1
    f = FadingRealization(1 + 0j, 0j, 0j, complex(math.sqrt(g1)), complex(math.sqrt(g2)))
    v1 = mi(SchemeId.MIX_AF, f, D_R1, rho0, corr=corr)
    v2 = mi(SchemeId.MIX_AF, f, D_R2, rho0, corr=corr)
    np.testing.assert_allclose(
        v1, 0.5 * (i_af_pair(1.0, g2, rho0) + math.log2(1 + rho0 * g1)), rtol=1e-14)
    np.testing.assert_allclose(
        v2, 0.5 * (i_af_pair(1.0, g1, rho0) + math.log2(1 + rho0 * g2)), rtol=1e-14)
    assert v1 == pytest.approx(2.8014, abs=1e-4)
    assert v2 == pytest.approx(2.0929, abs=1e-4)


# ---------------------------------------------------------------------------
# property checks on the bound sandwiches


@settings(max_examples=80, derandomize=True, deadline=None)
@given(g1=gain, g2=gain, gsd=gain, p1=phase, p2=phase, rho0=rho,
       t0bw=st.floats(min_value=1.0, max_value=6.0))
def test_tda_bounds_sandwich(g1, g2, gsd, p1, p2, rho0, t0bw):
    f = FadingRealization(complex(math.sqrt(gsd)), 0j, 0j,
                          cmath.rect(math.sqrt(g1), p1),
                          cmath.rect(math.sqrt(g2), p2))
    delays = DelayConfig.from_t0bw(t0bw)
    for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
        value, lower, upper = envelope(scheme, f, D_BOTH, rho0, delays=delays)
        assert lower <= value + 1e-9
        assert value <= upper + 1e-9


@settings(max_examples=80, derandomize=True, deadline=None)
@given(g1=gain, g2=gain, gsd=gain, p1=phase, p2=phase, rho0=rho)
def test_ltda_bounds_sandwich(g1, g2, gsd, p1, p2, rho0):
    corr = correlations(rectangular(1, 64), 0.5)
    f = FadingRealization(complex(math.sqrt(gsd)), 0j, 0j,
                          cmath.rect(math.sqrt(g1), p1),
                          cmath.rect(math.sqrt(g2), p2))
    value, lower, upper = envelope(SchemeId.TDA_LINMOD, f, D_BOTH, rho0, corr=corr)
    assert lower <= value + 1e-9
    assert value <= upper + 1e-9


# ---------------------------------------------------------------------------
# the batch kernel


def _swap_cases():
    rect = correlations(rectangular(1, 64), 0.5)
    srrc2 = correlations(srrc(0.5, 2, 64), 0.3)
    return [
        (SchemeId.STC_SYNC, {}),
        (SchemeId.TDA_INDEP, {"delays": DelayConfig.from_t0bw(2.5)}),
        (SchemeId.TDA_INDEP, {"delays": DelayConfig.from_t0bw(0.0)}),
        (SchemeId.TDA_REPETITION, {"delays": DelayConfig.from_t0bw(2.5)}),
        (SchemeId.TDA_REPETITION, {"delays": DelayConfig.from_t0bw(0.0)}),
        (SchemeId.TDA_LINMOD, {"corr": rect}),
        (SchemeId.ASTC, {"corr": srrc2}),
        (SchemeId.MIX_AF, {"corr": rect}),
        (SchemeId.MIX_AF, {"corr": srrc2}),
    ]


def test_mi_batch_relay_swap():
    # relabelling the relays (gain and membership together) changes no row,
    # value or envelope bound, bit for bit except where ASTC's and MIX_AF's
    # pair kernel orders its eigenvalues; MIX_AF's no-relay rows are
    # excluded: that fallback is bound to relay 1
    rng = np.random.default_rng(11)
    n = 2000
    sd, r1d, r2d = ((rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
                    * math.sqrt(s2) for s2 in (1.0, 3.0, 0.2))
    m1 = rng.random(n) < 0.6
    m2 = rng.random(n) < 0.4
    # the link record swaps its squared relay gains and keeps their coherent
    # sum, bit for bit, on all rows and on a subset
    idx = np.flatnonzero(m1)
    for a, b in ((_record(sd, r1d, r2d), _record(sd, r2d, r1d)),
                 (_record(sd, r1d, r2d).rows(idx), _record(sd, r2d, r1d).rows(idx))):
        for x, y in ((a.g_sd, b.g_sd), (a.g1, b.g2), (a.g2, b.g1), (a.coh, b.coh)):
            np.testing.assert_array_equal(x, y)
    for scheme, kw in _swap_cases():
        rtol = 1e-12 if scheme in (SchemeId.ASTC, SchemeId.MIX_AF) else 0.0
        for rho0 in (0.5, 20.0, 1e3):
            a = mi_batch(scheme, sd, r1d, r2d, m1, m2, rho0, **kw)
            b = mi_batch(scheme, sd, r2d, r1d, m2, m1, rho0, **kw)
            keep = (m1 | m2) if scheme == SchemeId.MIX_AF else np.ones(n, dtype=bool)
            np.testing.assert_allclose(a[keep], b[keep], rtol=rtol, atol=0,
                                       err_msg=f"{scheme.value} {kw}")
            # the screened verdicts swap with them, at a rate splitting the rows
            rate = float(np.median(a))
            below = record_below(scheme, _record(sd, r1d, r2d), m1, m2, rho0, rate, **kw)
            np.testing.assert_array_equal(below, a < rate)
            np.testing.assert_array_equal(below[keep], record_below(
                scheme, _record(sd, r2d, r1d), m2, m1, rho0, rate, **kw)[keep])
            # and so do the envelope's bounds
            env_a = mi_envelope(scheme, sd, r1d, r2d, m1, m2, rho0, **kw)
            env_b = mi_envelope(scheme, sd, r2d, r1d, m2, m1, rho0, **kw)
            for x, y in zip(env_a[1:], env_b[1:]):
                np.testing.assert_allclose(x[keep], y[keep], rtol=rtol, atol=0,
                                           err_msg=f"{scheme.value} {kw} envelope")


def test_rows_equal_their_batch_of_one():
    # a scalar call is a batch of one: each row of a mixed batch gets, bit for
    # bit, the value, verdict and envelope bounds it gets alone, for every
    # membership (row i has m1 = i & 1, m2 = i & 2) and for gains of 0 and 1e-12
    rng = np.random.default_rng(53)
    n = 64
    sd, r1d, r2d = _screen_rows(rng, n)
    r2d[:4] = 0.0  # both relay gains zero
    sd[40:44] = 0.0
    sd[44:48] *= 1e-6 / np.abs(sd[44:48])
    m1 = np.arange(n) % 2 == 1
    m2 = np.arange(n) % 4 >= 2
    for scheme, kw in _swap_cases():
        for rho0 in (0.5, 1e3):
            value = mi_batch(scheme, sd, r1d, r2d, m1, m2, rho0, **kw)
            rate = float(np.median(value))
            below = record_below(scheme, _record(sd, r1d, r2d), m1, m2, rho0, rate, **kw)
            env = mi_envelope(scheme, sd, r1d, r2d, m1, m2, rho0, **kw)
            for i in range(n):
                row = (sd[i:i + 1], r1d[i:i + 1], r2d[i:i + 1], m1[i:i + 1], m2[i:i + 1], rho0)
                msg = f"{scheme.value} {kw} rho0={rho0} row {i}"
                np.testing.assert_array_equal(mi_batch(scheme, *row, **kw), value[i:i + 1],
                                              err_msg=msg)
                np.testing.assert_array_equal(
                    record_below(scheme, _record(*row[:3]), *row[3:], rate, **kw),
                    below[i:i + 1], err_msg=msg)
                for got, want in zip(mi_envelope(scheme, *row, **kw), env):
                    np.testing.assert_array_equal(got, want[i:i + 1], err_msg=msg)


# ---------------------------------------------------------------------------
# the screen's kernel bounds


def _screen_rows(rng, n):
    # Exp(1) gains with exact zeros, 1e-12 and 1e-9 relay gains and
    # equal-gain pairs (where A - B is smallest) mixed in
    sd, r1d, r2d = (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))) / math.sqrt(2)
    k = n // 8
    r1d[:k] = 0.0
    r2d[k:2 * k] *= math.sqrt(1e-12) / np.abs(r2d[k:2 * k])
    r1d[2 * k:3 * k] *= math.sqrt(1e-9) / np.abs(r1d[2 * k:3 * k])
    r2d[3 * k:4 * k] = r1d[3 * k:4 * k] * np.exp(1j * rng.uniform(-math.pi, math.pi, k))
    return sd, r1d, r2d


SANDWICH_DB = (0, 10, 20, 30, 40, 60, 80)


def test_isi_kernel_bounds_sandwich():
    # lower <= pair kernel <= upper, to the slack: the ISI pair's mean log2 det
    # for the PD and singular span-1 pairs, the truncated SRRC span 2 and a
    # span-3 pulse (r(2) != 0, where only q >= 1 bounds the kernel below),
    # and the matched-filter pair on the span-1 pulses out to rho0 = 1e300,
    # past 1e154, where its (1 + a)^2 leaves the float range
    rng = np.random.default_rng(41)
    pulses = {"rect1": correlations(rectangular(1, 64), 0.5),
              "srrc1": correlations(srrc(0.5, 1, 64), 0.5),
              "srrc2": correlations(srrc(0.5, 2, 64), 0.3),
              "srrc3": correlations(srrc(0.3, 3, 64), 0.7)}
    cases = [(SchemeId.ASTC, name, SANDWICH_DB) for name in pulses]
    cases += [(SchemeId.TDA_LINMOD, name, SANDWICH_DB + (1540, 1600, 3000))
              for name in ("rect1", "srrc1")]
    for scheme, name, dbs in cases:
        corr = pulses[name]
        for db in dbs:
            rho0 = 10.0 ** (db / 10.0)
            sd, r1d, r2d = _screen_rows(rng, 2000)
            rate = 0.45 * math.log2(1.0 + rho0)
            _, kernel, lower, upper = _both_relays(scheme, _record(sd, r1d, r2d), rho0, corr, None)
            lower, upper = lower(), upper()
            slack = mutualinfo._SCREEN_SLACK * (1.0 + rate)
            if scheme == SchemeId.ASTC:
                kernel = _emaca_batch(np.abs(r1d) ** 2, np.abs(r2d) ** 2, corr, rho0)
            else:
                kernel = kernel()
            msg = (scheme.value, name, db)
            assert np.all(np.isfinite(lower) & np.isfinite(upper) & np.isfinite(kernel)), msg
            assert np.all(lower - slack <= kernel), msg
            assert np.all(kernel <= upper + slack), msg
            if name == "srrc3":
                assert np.all(lower == 0.0)


@pytest.mark.parametrize("t0bw", (0.0, 1e-6, 0.3, 1.7, 2.0, 2.5, 6.0))
def test_window_kernel_bounds_sandwich(t0bw):
    # at t0 bw = 0 the relays add coherently, a closed form that is its own
    # bounds: mi_envelope reports lower = upper = value, and record_below's
    # verdicts are the kernel's
    rng = np.random.default_rng(43)
    delays = DelayConfig.from_t0bw(t0bw)
    for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
        for db in SANDWICH_DB:
            rho0 = 10.0 ** (db / 10.0)
            sd, r1d, r2d = _screen_rows(rng, 2000)
            rate = 0.45 * math.log2(1.0 + rho0)
            links = _record(sd, r1d, r2d)
            _, kernel, lower, upper = _both_relays(scheme, links, rho0, None, delays)
            if t0bw == 0.0:
                assert np.array_equal(lower(), kernel()) and np.array_equal(upper(), kernel())
                both = np.ones(sd.size, dtype=bool)
                value, lower, upper = mi_envelope(scheme, sd, r1d, r2d, both, both, rho0,
                                                  delays=delays)
                assert np.array_equal(lower, value) and np.array_equal(upper, value)
                np.testing.assert_array_equal(
                    record_below(scheme, links, both, both, rho0, rate, delays=delays),
                    value < rate)
                continue
            lower, upper = lower(), upper()
            slack = mutualinfo._SCREEN_SLACK * (1.0 + rate) * (1.0 + 1.0 / t0bw)
            gsd, g1, g2 = (np.abs(z) ** 2 for z in (sd, r1d, r2d))
            nu = g1 + g2
            a = 1.0 + rho0 * ((gsd + nu) if scheme == SchemeId.TDA_REPETITION else nu)
            kernel = _cos_window_means(a, 2.0 * rho0 * np.sqrt(g1 * g2),
                                           np.angle(r2d) - np.angle(r1d), math.pi * t0bw)[0]
            assert np.all(np.isfinite(lower) & np.isfinite(upper)), (scheme, db)
            assert np.all(lower - slack <= kernel), (scheme, db)
            assert np.all(kernel <= upper + slack), (scheme, db)


def _spy_rows(monkeypatch, name):
    """Patch mutualinfo's function name, which takes (scheme, links, ...), to
    log the direct-link squared gains of each record it gets; returns the log."""
    rows = []
    real = getattr(mutualinfo, name)

    def spy(scheme, links, *args, **kwargs):
        rows.append(links.g_sd)
        return real(scheme, links, *args, **kwargs)

    monkeypatch.setattr(mutualinfo, name, spy)
    return rows


def test_screen_sends_non_finite_bounds_to_the_kernel(monkeypatch):
    # with equal relay gains at 200 dB, A = 1 + rho0 (g1 + g2) rounds to
    # B = 2 rho0 sqrt(g1 g2), so the window lower bound log2(A - B) is -inf
    # while the kernel stays finite
    rng = np.random.default_rng(47)
    sd, r1d, _ = _screen_rows(rng, 400)
    r1d[:50] = 1.0 + 0.5j  # rows that are not all zero gain
    r2d = r1d.copy()
    m = np.ones(sd.size, dtype=bool)
    delays = DelayConfig.from_t0bw(2.5)
    rho0 = 1e20
    rate = 0.25 * math.log2(1.0 + rho0)
    links = _record(sd, r1d, r2d)
    with np.errstate(divide="ignore"):
        direct, _, lower, upper = _both_relays(SchemeId.TDA_INDEP, links, rho0, None, delays)
        lower, upper = lower(), upper()
    bad = ~(np.isfinite(direct) & np.isfinite(lower) & np.isfinite(upper))
    assert np.count_nonzero(bad[:50]) == 50
    # the envelope reports those bounds as vacuous
    _, env_lo, env_hi = mi_envelope(SchemeId.TDA_INDEP, sd, r1d, r2d, m, m, rho0, delays=delays)
    assert np.all(env_lo[bad] == -np.inf) and np.all(env_hi[bad] == np.inf)
    kernel_rows = _spy_rows(monkeypatch, "record_mi")
    got = record_below(SchemeId.TDA_INDEP, _record(sd, r1d, r2d), m, m, rho0, rate,
                       delays=delays)
    assert len(kernel_rows) == 1 and np.all(np.isin(np.abs(sd[bad]) ** 2, kernel_rows[0]))
    want = mi_batch(SchemeId.TDA_INDEP, sd, r1d, r2d, m, m, rho0, delays=delays)
    assert np.all(np.isfinite(want))
    np.testing.assert_array_equal(got, want < rate)


def test_envelope_is_the_screen(monkeypatch):
    # mi_envelope reports the bounds record_below screens with: at a rate
    # splitting the rows, no both-relays row whose finite envelope settles
    # its verdict by more than the slack reaches record_mi, and _both_relays
    # runs on every both-relays row for the lower bound, then on exactly the
    # rows the lower bound leaves for the upper bound (and from record_mi on
    # the rows still in doubt)
    rng = np.random.default_rng(59)
    n = 2000
    sd, r1d, r2d = _screen_rows(rng, n)
    m1 = rng.random(n) < 0.8
    m2 = rng.random(n) < 0.8
    b = np.flatnonzero(m1 & m2)
    cases = [(scheme, {"corr": correlations(pulse, tau)}, 1.0)
             for scheme in (SchemeId.ASTC, SchemeId.MIX_AF)
             for pulse, tau in ((rectangular(1, 64), 0.5), (srrc(0.5, 2, 64), 0.3),
                                (srrc(0.3, 3, 64), 0.7))]
    cases += [(scheme, {"delays": DelayConfig.from_t0bw(t0bw)}, 1.0 + 1.0 / t0bw)
              for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION)
              for t0bw in (0.3, 2.5)]
    kernel_rows = _spy_rows(monkeypatch, "record_mi")
    pair_rows = _spy_rows(monkeypatch, "_both_relays")
    for scheme, kw, window in cases:
        for db in (0, 20, 40):
            rho0 = 10.0 ** (db / 10.0)
            value, lower, upper = mi_envelope(scheme, sd, r1d, r2d, m1, m2, rho0, **kw)
            rate = float(np.median(value))
            slack = mutualinfo._SCREEN_SLACK * (1.0 + rate) * window
            settled = (m1 & m2) & np.isfinite(lower) & np.isfinite(upper) & (
                (upper < rate - slack) | (lower >= rate + slack))
            assert np.count_nonzero(settled) > np.count_nonzero(m1 & m2) // 4, (scheme, kw, db)
            direct, _, low, _ = _both_relays(scheme, _record(sd, r1d, r2d).rows(b), rho0,
                                             kw.get("corr"), kw.get("delays"))
            low = low()
            need = 2.0 * rate - direct
            left = b[~(np.isfinite(need) & np.isfinite(low) & (low - slack >= need))]
            kernel_rows.clear()
            pair_rows.clear()
            below = record_below(scheme, _record(sd, r1d, r2d), m1, m2, rho0, rate, **kw)
            assert len(kernel_rows) == 1, (scheme, kw, db)
            assert not np.any(np.isin(np.abs(sd[settled]) ** 2, kernel_rows[0])), (scheme, kw, db)
            assert len(pair_rows) in (2, 3), (scheme, kw, db)
            np.testing.assert_array_equal(pair_rows[0], np.abs(sd[b]) ** 2)
            np.testing.assert_array_equal(np.sort(pair_rows[1]), np.sort(np.abs(sd[left]) ** 2),
                                          err_msg=f"{scheme.value} {kw} {db} dB")
            np.testing.assert_array_equal(
                below, mi_batch(scheme, sd, r1d, r2d, m1, m2, rho0, **kw) < rate)
    # at the benchmark's rate on plain Exp(1) gains the upper bound runs on
    # under 1% of the both-relays rows
    snr = 100.0
    n = 32768
    sd, r1d, r2d = (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))) / math.sqrt(2)
    m = np.ones(n, dtype=bool)
    for scheme, corr in ((SchemeId.ASTC, correlations(srrc(0.5, 2, 64), 0.3)),
                         (SchemeId.MIX_AF, correlations(rectangular(1, 64), 0.5))):
        pair_rows.clear()
        record_below(scheme, _record(sd, r1d, r2d), m, m, 2.0 / 3.0 * snr,
                     0.25 * math.log2(1.0 + snr), corr=corr)
        assert len(pair_rows) in (2, 3) and pair_rows[1].size < 0.01 * n, (scheme, pair_rows[1].size)


def test_screen_keeps_the_overflow_edge():
    # Past rho0^2's float range the pair kernel's coefficients are not
    # finite, so record_mi raises whatever the second row's gain: c_0 is
    # inf, or inf * 0 = NaN on a zero gain.  The screen's lower bound, a
    # single-stream rate, stays finite and clears both rows in each case.
    corr = correlations(srrc(0.5, 2, 64), 0.3)
    rho0 = 2.0 / 3.0 * 1e160
    rate = 0.25 * math.log2(1.0 + 1e160)
    m = np.ones(2, dtype=bool)
    sd = np.array([1.0 + 0.5j, 0.3 - 1.0j])
    r1d = np.array([0.8 + 0.1j, -1.2 + 0.4j])
    for last in (0.0, 1e-150, 0.9j):
        links = _record(sd, r1d, np.array([0.5 - 0.7j, last]))
        got = record_below(SchemeId.ASTC, links, m, m, rho0, rate, corr=corr)
        np.testing.assert_array_equal(got, [False, False])
        with pytest.raises(NumericError):
            record_mi(SchemeId.ASTC, links, m, m, rho0, corr=corr)
    # in the delay window a finite lower bound has A > B and A + B finite, so
    # its upper bound is finite too; at 1e154 A^2 passes the float range on
    # some rows, at 1e300 on all
    rng = np.random.default_rng(67)
    sd, r1d, r2d = _screen_rows(rng, 400)
    m = np.ones(sd.size, dtype=bool)
    for t0bw in (0.3, 2.0, 2.5):
        delays = DelayConfig.from_t0bw(t0bw)
        for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
            for rho0 in (1e20, 1e150, 1e154, 1e300):
                with np.errstate(all="ignore"):
                    links = _record(sd, r1d, r2d)
                    _, _, lower, upper = _both_relays(scheme, links, rho0, None, delays)
                    lower, upper = lower(), upper()
                    assert np.all(np.isfinite(upper[np.isfinite(lower)])), (scheme, t0bw, rho0)
                    rate = 0.25 * math.log2(1.0 + rho0)
                    np.testing.assert_array_equal(
                        record_below(scheme, links, m, m, rho0, rate, delays=delays),
                        mi_batch(scheme, sd, r1d, r2d, m, m, rho0, delays=delays) < rate)


@pytest.mark.parametrize("t0bw", (1e-6, 1e-3, 0.3, 1.0, 2.5))
def test_window_kernel_at_extreme_snr_is_finite_and_quiet(t0bw):
    # With equal, opposite and orthogonal unit relay gains, A - B rounds to 0
    # from rho0 = 1e16 (R = 0, and the unread inverse mean is 0/0 or 1/0)
    # and A^2 passes the float range past 1e154; the kernel stays finite and
    # no floating-point warning escapes (the suite turns them into errors)
    ones = np.ones(3, dtype=complex)
    r2d = np.array([1.0, -1.0, 1j])
    both = np.ones(3, dtype=bool)
    delays = DelayConfig.from_t0bw(t0bw)
    for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
        for rho0 in (1e15, 1e16, 1e20, 1e100, 1e200):
            value = mi_batch(scheme, ones, ones, r2d, both, both, rho0, delays=delays)
            assert np.all(np.isfinite(value)), (scheme, rho0)


@pytest.mark.parametrize("t0bw", (1e-6, 0.3, 1.7, 2.0, 2.5, 6.0))
def test_window_envelope_nests_in_the_delta1_envelope(t0bw):
    # The delay-window envelope lies inside the paper's delta1-scaled and
    # coherent-combining envelope, delta1 (direct + log2(A/2))/2 below and
    # (direct + log2(A + rho0 nu))/2 above: floor(w)/w >= delta1,
    # log2((A + R)/2) >= max(0, log2(A/2)) and log2(A - B) >= 0, and Jensen's
    # log2(A + B sin(h) cos(psi)/h) <= log2(A + B) <= log2(A + rho0 nu).
    rng = np.random.default_rng(61)
    delays = DelayConfig.from_t0bw(t0bw)
    both = np.ones(2000, dtype=bool)
    for scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
        for db in SANDWICH_DB:
            rho0 = 10.0 ** (db / 10.0)
            sd, r1d, r2d = _screen_rows(rng, 2000)
            _, lower, upper = mi_envelope(scheme, sd, r1d, r2d, both, both, rho0, delays=delays)
            gsd, nu = np.abs(sd) ** 2, np.abs(r1d) ** 2 + np.abs(r2d) ** 2
            if scheme == SchemeId.TDA_REPETITION:
                direct, a = 0.0, 1.0 + rho0 * (gsd + nu)
            else:
                direct, a = np.log2(1.0 + rho0 * gsd), 1.0 + rho0 * nu
            assert np.all(lower >= delays.delta1 * 0.5 * (direct + np.log2(0.5 * a))), (scheme, db)
            assert np.all(upper <= 0.5 * (direct + np.log2(a + rho0 * nu))), (scheme, db)
