import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import toeplitz as _toeplitz

from relaylab.errors import ConfigError, NumericError
from relaylab.toeplitz import (MAX_BLOCK_N, IsiTapSet, build_taps, convergence_study,
                               finite_n_mi)
from relaylab.waveform import CorrelationSet, correlations, rectangular, srrc


def disjoint_corr():
    # duty-0.4 pulse with tau 0.5: every cross tap and every r(m != 0) is zero
    return correlations(rectangular(1, 64, duty=0.4), 0.5)


# ---------------------------------------------------------------------------
# dense reference path: the O(n^3) eigenvalue form of the rate and its guard,
# the oracle of the banded Cholesky


def _block_matrix(taps, n):
    """Dense 2n x 2n covariance of n symbols per relay, relay-major order."""
    c = taps.corr
    lags = np.arange(n)
    t_same = _toeplitz(np.array([c.r(int(m)) for m in lags]))
    t_cross = _toeplitz(np.array([c.g(-int(m)) for m in lags]),
                        np.array([c.g(int(m)) for m in lags]))
    x = taps.cross
    top = np.hstack([taps.g1 * t_same, x * t_cross])
    bot = np.hstack([np.conj(x) * t_cross.conj().T, taps.g2 * t_same])
    return np.vstack([top, bot]).astype(complex)


def _dense_guard(m):
    """The dense PSD guard: an eigenvalue of M below -1e-9 (relative to the
    largest) marks a broken tap set."""
    ev = np.linalg.eigvalsh(m)
    if ev[0] < -1e-9 * max(1.0, float(ev[-1])):
        raise NumericError(f"covariance eigenvalue {ev[0]!r} is significantly negative")


def _dense_rate(m, rho0):
    """Per-symbol rate (1/n) log2 det(I + rho0 M) of the 2n x 2n block m
    from dense eigenvalues.

    It takes the eigenvalues of I + rho0 M scaled to unit diagonal:
    unscaled, eigvalsh's absolute error eps * rho0 ||M|| swamps the
    eigenvalues a gain of 1e-12 adds at high snr (1.9e-3 bits off at 160 dB
    against a 60-digit determinant, which the unit-diagonal form and the
    banded path both match).
    """
    a = np.eye(m.shape[0]) + rho0 * m
    d = a.diagonal().real
    s = 1.0 / np.sqrt(d)
    ev = np.linalg.eigvalsh(s[:, None] * a * s[None, :])
    return float((np.sum(np.log2(d)) + np.sum(np.log2(ev))) / (m.shape[0] // 2))


ORACLE_PULSES = {
    "srrc1": lambda: correlations(srrc(0.5, 1, 64), 0.5),
    "srrc2": lambda: correlations(srrc(0.5, 2, 64), 0.3),
    "rect-half": lambda: correlations(rectangular(1, 64), 0.5),  # singular pair
    "disjoint": disjoint_corr,
}
ORACLE_GAINS = ((1.0 + 0j, 0.5 + 0.5j), (0.3 - 1.0j, 0.3 - 1.0j), (0j, 1.1 - 0.3j),
                (1.3 + 0.2j, 0j), (0j, 0j), (1e-6 + 0j, 0.7j))  # |1e-6|^2 = 1e-12


def test_tap_set_guard():
    class FakeSpan3:
        span = 3

    with pytest.raises(ConfigError):
        IsiTapSet(FakeSpan3(), 1 + 0j, 1 + 0j)


def test_hermitian_lag_structure():
    taps = build_taps(correlations(srrc(0.5, 2, 64), 0.3), 0.7 + 0.2j, -0.1 + 1.1j)
    for k in (0, 1, 2):
        np.testing.assert_allclose(taps.h(-k), taps.h(k).conj().T, atol=1e-15)
    assert np.allclose(taps.h(3), 0.0)


def test_block_matrix_is_hermitian_psd():
    taps = build_taps(correlations(srrc(0.5, 2, 64), 0.3), 0.7 + 0.2j, -0.1 + 1.1j)
    m = _block_matrix(taps, 12)
    assert m.shape == (24, 24)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
    ev = np.linalg.eigvalsh(m)
    assert ev.min() > -1e-10


def test_block_matrix_matches_interleaved_ordering():
    # relay-major assembly must be a permutation of the symbol-interleaved
    # covariance built directly from the lag blocks
    taps = build_taps(correlations(srrc(0.5, 2, 64), 0.3), 0.7 + 0.2j, -0.1 + 1.1j)
    n = 9
    inter = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            inter[2 * i:2 * i + 2, 2 * j:2 * j + 2] = taps.h(j - i)
    got = np.sort(np.linalg.eigvalsh(_block_matrix(taps, n)))
    want = np.sort(np.linalg.eigvalsh(inter))
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-12)


def test_single_symbol_zero_coupling():
    taps = build_taps(disjoint_corr(), 1 + 0j, 1 + 0j)
    for rho0 in (0.5, 1.0, 8.0):
        np.testing.assert_allclose(finite_n_mi(taps, 1, rho0),
                                   2.0 * math.log2(1.0 + rho0), rtol=1e-13)


def test_single_symbol_generic_coupling():
    # n = 1: log2((1 + rho0 g1)(1 + rho0 g2) - rho0^2 c0^2 g1 g2)
    corr = correlations(srrc(0.5, 2, 64), 0.3)
    a1, a2 = 1.1 - 0.3j, 0.4 + 0.9j
    taps = build_taps(corr, a1, a2)
    rho0 = 3.0
    g1, g2 = abs(a1) ** 2, abs(a2) ** 2
    want = math.log2((1 + rho0 * g1) * (1 + rho0 * g2)
                     - rho0 ** 2 * corr.c0 ** 2 * g1 * g2)
    np.testing.assert_allclose(finite_n_mi(taps, 1, rho0), want, rtol=1e-13)


def test_zero_coupling_error_is_zero():
    taps = build_taps(disjoint_corr(), 1 + 0j, 1 + 0j)
    st = convergence_study(taps, (1, 2, 4), 2.0)
    np.testing.assert_allclose(st.abs_err, 0.0, atol=1e-12)
    np.testing.assert_allclose(st.limit, 2.0 * math.log2(3.0), rtol=1e-12)


def test_convergence_decreases():
    taps = build_taps(correlations(srrc(0.5, 2, 64), 0.3), 1 + 0j, 0.5 + 0.5j)
    st = convergence_study(taps, (4, 16, 64, 256), 10.0)
    assert st.rel_err[-1] < 0.01
    assert st.abs_err[0] > st.abs_err[-1]
    assert st.mi[-1] > 0.0


def test_convergence_study_validation():
    taps = build_taps(disjoint_corr(), 1 + 0j, 1 + 0j)
    with pytest.raises(ConfigError):
        convergence_study(taps, (4, 4, 8), 1.0)
    with pytest.raises(ConfigError):
        convergence_study(taps, (8, 4), 1.0)
    with pytest.raises(ConfigError):
        convergence_study(taps, (), 1.0)


def test_unreachable_tolerance_raises():
    taps = build_taps(correlations(srrc(0.5, 2, 64), 0.3), 1 + 0j, 0.5 + 0.5j)
    with pytest.raises(NumericError):
        convergence_study(taps, (2, 4), 10.0, rel_tol=1e-9)


def test_block_size_cap():
    # the cap bounds band storage; nothing is factored past it
    taps = build_taps(disjoint_corr(), 1 + 0j, 1 + 0j)
    with pytest.raises(ConfigError):
        finite_n_mi(taps, MAX_BLOCK_N + 1, 1.0)
    with pytest.raises(ConfigError):
        convergence_study(taps, (4, MAX_BLOCK_N + 1), 1.0)
    with pytest.raises(ConfigError):
        finite_n_mi(taps, 0, 1.0)


@pytest.mark.parametrize("pulse", sorted(ORACLE_PULSES))
def test_banded_rate_matches_dense_oracle(pulse):
    # a dense eigensolve at n = 512 is 1024 x 1024, so that size runs on the
    # two pulses with the widest band and the singular spectrum, at 160 dB
    corr = ORACLE_PULSES[pulse]()
    sizes = {n: range(0, 161, 20) for n in (1, 2, 3, 8, 64)}
    if pulse in ("srrc2", "rect-half"):
        sizes[512] = (160,)
    worst = 0.0
    for a1, a2 in ORACLE_GAINS:
        taps = build_taps(corr, a1, a2)
        for n, grid_db in sizes.items():
            m = _block_matrix(taps, n)
            for db in grid_db:
                rho0 = 10.0 ** (db / 10.0)
                worst = max(worst, abs(finite_n_mi(taps, n, rho0) - _dense_rate(m, rho0)))
    assert worst <= 1e-11, worst


def _exact_rate(taps, n, rho0):
    """(1/n) log2 det(I + rho0 M_n) in 60-digit arithmetic."""
    with mpmath.workdps(60):
        a = mpmath.eye(2 * n)
        for i in range(n):
            for j in range(n):
                h = taps.h(j - i)
                for p in (0, 1):
                    for q in (0, 1):
                        a[2 * i + p, 2 * j + q] += mpmath.mpf(rho0) * mpmath.mpc(complex(h[p, q]))
        return float(mpmath.re(mpmath.log(mpmath.det(a), 2)) / n)


def test_graded_gains_match_exact_determinant():
    # one gain 1e-12 below the other: the banded Cholesky keeps full relative
    # accuracy on the small eigenvalues, as the unit-diagonal oracle does
    for pulse in ("srrc2", "rect-half"):
        taps = build_taps(ORACLE_PULSES[pulse](), 1e-6 + 0j, 0.7j)
        for db in (80.0, 160.0):
            rho0 = 10.0 ** (db / 10.0)
            for n in (2, 8):
                want = _exact_rate(taps, n, rho0)
                assert abs(finite_n_mi(taps, n, rho0) - want) <= 1e-11, (pulse, db, n)
                assert abs(_dense_rate(_block_matrix(taps, n), rho0) - want) <= 1e-11, \
                    (pulse, db, n)


def test_ladder_equals_per_n_rates():
    # one factor at max(ns) serves every smaller n: M_m leads M_n
    ns = (1, 2, 3, 8, 64, 512, 1000)
    for pulse in ("srrc2", "rect-half"):
        taps = build_taps(ORACLE_PULSES[pulse](), 1.1 - 0.3j, 0.4 + 0.9j)
        for rho0 in (1.0, 1e8):
            st = convergence_study(taps, ns, rho0, rel_tol=1.0)
            per_n = [finite_n_mi(taps, n, rho0) for n in ns]
            np.testing.assert_allclose(st.mi, per_n, rtol=1e-14, atol=0)


def _guard_cases():
    srrc2 = correlations(srrc(0.5, 2, 64), 0.3)
    g = np.array(srrc2.g_taps)
    return {
        "r1-above-r0": (CorrelationSet(0.3, 2, (1.0, 1.2, 0.1), srrc2.g_taps), True),
        "cross-x3": (CorrelationSet(0.3, 2, srrc2.r_taps, tuple(3.0 * g)), True),
        "cross-x1.0000001": (CorrelationSet(0.3, 2, srrc2.r_taps, tuple(1.0000001 * g)), False),
    }


@pytest.mark.parametrize("case", ["r1-above-r0", "cross-x3", "cross-x1.0000001"])
def test_psd_guard_matches_dense_verdict(case):
    corr, broken = _guard_cases()[case]
    # the dense guard at n = 512 is a 1024 x 1024 eigensolve: one gain pair
    for (a1, a2), sizes in (((1.0 + 0j, 1.0 + 0j), (1, 4, 64, 512)),
                            ((1.1 - 0.3j, 0.4 + 0.9j), (1, 4, 64))):
        taps = build_taps(corr, a1, a2)
        for n in sizes:
            verdicts = []
            for check in (lambda: finite_n_mi(taps, n, 10.0),
                          lambda: _dense_guard(_block_matrix(taps, n))):
                try:
                    check()
                    verdicts.append(False)
                except NumericError:
                    verdicts.append(True)
            assert verdicts[0] == verdicts[1], (case, a1, a2, n, verdicts)
        if broken:
            with pytest.raises(NumericError):
                finite_n_mi(taps, 64, 10.0)
            with pytest.raises(NumericError):
                convergence_study(taps, (4, 64), 10.0, rel_tol=1.0)
        else:
            finite_n_mi(taps, 512, 10.0)
            convergence_study(taps, (4, 64), 10.0, rel_tol=1.0)


def test_indefinite_past_the_guard_is_numeric_failure():
    # lambda_min(M_2) = -5e-10 passes the 1e-9 guard, but I + rho0 M_2 is
    # indefinite at rho0 = 1e12
    corr = CorrelationSet(0.5, 1, (1.0, 1.0 + 5e-10), (0.0, 0.0, 0.0))
    taps = build_taps(corr, 1 + 0j, 1 + 0j)
    assert finite_n_mi(taps, 2, 1.0) > 0.0
    with pytest.raises(NumericError):
        finite_n_mi(taps, 2, 1e12)


def test_overflowing_rho0_is_numeric_failure():
    taps = build_taps(correlations(srrc(0.5, 2, 64), 0.3), 2 + 0j, 0.5 + 0.5j)
    with pytest.raises(NumericError):  # rho0 g1 r(0) = 4e308
        finite_n_mi(taps, 8, 1e308)
    with pytest.raises(NumericError):  # rho0^2 g1 g2 in the spectral limit
        convergence_study(taps, (1, 2), 1e300)
