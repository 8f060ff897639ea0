from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from relaylab.errors import ConfigError
from relaylab.tradeoff import (SCHEMES, CrossPoint, TradeoffCurve, band,
                               crossings, curve, rtda_band)


def test_equal_family_curves():
    # synchrony buys nothing: all three curves are (k+1)(1-2r)
    for scheme in ("stc", "tda", "astc"):
        c = curve(scheme, 2)
        assert c.d(0) == 3
        assert c.d(F(1, 4)) == F(3, 2)
        assert c.d(F(2, 5)) == F(3, 5)
    assert curve("stc", 1).d(0) == 2
    assert curve("stc", 4).d(F(1, 10)) == 4


def test_domain_is_open_right():
    c = curve("stc", 2)
    with pytest.raises(ConfigError):
        c.d(F(1, 2))
    with pytest.raises(ConfigError):
        c.d(-1)
    # closed-domain reference schemes accept the right endpoint
    assert curve("naf", 2).d(1) == 0
    assert curve("ddf", 2).d(1) == 0


def test_string_gain_is_config_error():
    # r is a number: the command line parses rationals before they reach a curve
    with pytest.raises(ConfigError):
        curve("stc").d("1/4")


def test_exact_values_are_fractions():
    v = curve("ddf", 2).d(F(1, 4))
    assert isinstance(v, F) and v == F(9, 4)
    v = curve("naf", 2).d(F(1, 4))
    assert isinstance(v, F) and v == F(7, 4)
    v = curve("maf", 2).d(F(1, 6))
    assert v == F(8, 3)


def test_maf_piece_boundary_continuous():
    c = curve("maf", 2)
    eps = F(1, 10 ** 9)
    left = c.d(F(1, 6) - eps)
    right = c.d(F(1, 6) + eps)
    assert abs(left - F(8, 3)) < F(1, 10 ** 8)
    assert abs(right - F(8, 3)) < F(1, 10 ** 8)
    assert c.d(0) == 3
    c1 = curve("maf", 1)
    assert c1.d(0) == 2 and c1.d(F(1, 4)) == F(3, 2)


def test_ddf_low_rate_matches_full_diversity():
    c = curve("ddf", 2)
    assert c.d(0) == 3
    assert c.d(F(1, 3)) == 2  # piece boundary
    assert c.d(F(1, 2)) == 1


def test_rtda_band():
    low, high = rtda_band(2, F(2, 3))
    assert high.d(F(1, 10)) == F(12, 5)  # 3 - 6r
    assert low.d(F(1, 10)) == F(21, 10)  # 3 - 9r at delta1 = 2/3
    low1, high1 = rtda_band(2, 1)
    assert low1.d(F(1, 5)) == high1.d(F(1, 5)) == F(9, 5)
    with pytest.raises(ConfigError):
        rtda_band(2, 0)
    with pytest.raises(ConfigError):
        rtda_band(3, F(1, 2))


def test_band_dispatch():
    assert curve("stc", 2).d(0) == 3
    assert curve("maf", 2).d(F(1, 6)) == F(8, 3)
    assert curve("ddf", 2).d(F(1, 4)) == F(9, 4)
    assert curve("naf", 2).d(F(1, 4)) == F(7, 4)
    for scheme in SCHEMES:
        low, high = band(scheme, 2, F(2, 3))
        if scheme == "rtda":
            assert (low.d(F(1, 10)), high.d(F(1, 10))) == (F(21, 10), F(12, 5))
        else:
            assert low is high and low == curve(scheme, 2)
    with pytest.raises(ConfigError):
        band("rtda", 2, 0)
    with pytest.raises(ConfigError):
        band("bogus", 2)


def test_curve_validation():
    with pytest.raises(ConfigError):
        curve("bogus", 2)
    with pytest.raises(ConfigError):
        curve("ltda", 3)
    with pytest.raises(ConfigError):
        curve("maf", 3)
    with pytest.raises(ConfigError):
        curve("rtda", 2)
    with pytest.raises(ConfigError):
        curve("stc", 0)


def test_crossing_maf_ddf():
    rep = crossings("maf", "ddf", 2)
    rs = [p.r for p in rep.points]
    assert rs == [F(0, 1), F(1, 5)]
    assert all(p.exact for p in rep.points)
    d_at = dict(zip(rs, (p.d for p in rep.points)))
    assert d_at[F(0, 1)] == 3
    assert d_at[F(1, 5)] == F(12, 5)  # both curves give 4 - 8/5 = 3 - 3/5


def test_crossing_maf_naf():
    rep = crossings("maf", "naf", 2)
    rs = [p.r for p in rep.points]
    assert rs == [F(0, 1), F(1, 3)]
    assert all(p.exact for p in rep.points)
    # mixed strategy matches the non-orthogonal reference at r = 1/3
    assert curve("maf", 2).d(F(1, 3)) == curve("naf", 2).d(F(1, 3)) == F(4, 3)


def test_crossing_coincident_family():
    rep = crossings("stc", "tda", 2)
    assert rep.points == ()
    assert rep.coincident == ((F(0, 1), F(1, 2)),)


def test_crossing_symmetric():
    a = crossings("maf", "ddf", 2)
    b = crossings("ddf", "maf", 2)
    assert [p.r for p in a.points] == [p.r for p in b.points]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(scheme=st.sampled_from([s for s in SCHEMES if s != "rtda"]),
       num=st.integers(min_value=0, max_value=199))
def test_curves_non_increasing(scheme, num):
    k = 2
    c = curve(scheme, k)
    lo, hi = c.domain
    width = hi - lo
    r1 = lo + width * F(num, 200)
    r2 = lo + width * F(num + 1, 200)
    assert c.d(r1) >= c.d(r2)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(num=st.integers(min_value=0, max_value=99),
       d_num=st.integers(min_value=1, max_value=12))
def test_rtda_band_ordering(num, d_num):
    delta1 = F(d_num, 12)
    low, high = rtda_band(2, delta1)
    r = F(num, 200)  # inside [0, 1/2)
    assert low.d(r) <= high.d(r)
