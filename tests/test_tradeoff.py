import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from relaylab import tradeoff
from relaylab.errors import ConfigError
from relaylab.tradeoff import (SCHEMES, CrossPoint, Piece, TradeoffCurve, band,
                               crossings, curve, fraction_text, rtda_band, table)


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


@pytest.mark.parametrize("delta1", [F(1), F(3, 4), F(2, 3), F(5, 7)], ids=str)
def test_rtda_band_is_never_negative(delta1):
    # the lower curve 3(1 - 2r/delta1) is clipped at 0 from r = delta1/2 on:
    # every value of the band is >= 0, on the table grid with its
    # breakpoints and at float r, and the lower curve is 0 exactly from
    # delta1/2 to its open end 1/2
    low, high = rtda_band(2, delta1)
    rows = table(low, high, F(1, 200), 100)
    assert all(q[0] >= 0 for row in rows for q in row[1:])
    assert [row[1][0] == 0 for row in rows] == [F(*row[0]) >= delta1 / 2 for row in rows]
    assert all(c.d(r) >= 0.0 for c in (low, high)
               for r in (i * 0.4999 / 96 for i in range(97)))
    assert F(*low.pieces[0].hi) == min(delta1 / 2, F(1, 2))
    assert low.domain == high.domain == (0, F(1, 2))
    # the headline crossings stay where they were
    assert [p.r for p in crossings("maf", "ddf", 2).points] == [F(0), F(1, 5)]
    assert [p.r for p in crossings("maf", "naf", 2).points] == [F(0), F(1, 3)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(num=st.integers(min_value=0, max_value=99),
       d_num=st.integers(min_value=1, max_value=12))
def test_rtda_band_ordering(num, d_num):
    delta1 = F(d_num, 12)
    low, high = rtda_band(2, delta1)
    r = F(num, 200)  # inside [0, 1/2)
    assert low.d(r) <= high.d(r)


# ---------------------------------------------------------------------------
# the integer tables and crossings against Fraction arithmetic


def _bands():
    """(scheme, k, delta1) of every band with k in {1, 2, 3}; delta1 varies
    for rtda, the only scheme that reads it."""
    out = []
    for k in (1, 2, 3):
        for scheme in SCHEMES:
            for delta1 in ((F(1), F(3, 4), F(2, 3), F(5, 7)) if scheme == "rtda" else (F(1),)):
                try:
                    band(scheme, k, delta1)
                except ConfigError:
                    continue
                out.append((scheme, k, delta1))
    return out


def _fraction_at(c, r):
    """c at rational r in Fractions: the first piece whose right end is at or
    past r, (p0 + p1 r) / (q0 + q1 r) with each coefficient a Fraction."""
    p = next(p for p in c.pieces if r <= F(*p.hi))
    p0, p1, q0, q1 = (F(v, p.s) for v in (p.a0, p.a1, p.b0, p.b1))
    return (p0 + p1 * r) / (q0 + q1 * r)


def _fraction_rows(low, high, grid):
    return [(r, _fraction_at(low, r), _fraction_at(high, r)) for r in grid]


@pytest.mark.parametrize("step", [F(1, 50), F(1, 20), F(1, 7), F(3, 100), F(1, 997)],
                         ids=str)
def test_table_equals_the_fraction_evaluation(step):
    assert len(_bands()) == 6 + (7 + 4) + 5  # k = 1, 2 (four rtda bands), 3
    for scheme, k, delta1 in _bands():
        low, high = band(scheme, k, delta1)
        lo, hi = low.domain
        n = int((hi - lo) / step) + 1
        grid = {lo + step * i for i in range(n)}
        for c in (low, high):
            grid |= {F(0), *(F(*p.hi) for p in c.pieces)}
        want = _fraction_rows(low, high, sorted(
            r for r in grid if lo <= r <= hi and not (low.open_right and r == hi)))
        rows = table(low, high, step, n)
        assert [tuple(F(*q) for q in row) for row in rows] == want, (scheme, k, delta1)
        # the pairs are in lowest terms: they print as the Fractions do
        assert [fraction_text(q) for row in rows for q in row] == \
            [str(v) for row in want for v in row]


@pytest.mark.parametrize("points", [1, 3, 200])
def test_table_without_breakpoints_samples_the_figure_grid(points):
    # scripts/tradeoff_figure.py: lo + i (hi - lo)/points for i < points, nothing else
    for scheme, k, delta1 in _bands():
        low, high = band(scheme, k, delta1)
        lo, hi = low.domain
        step = (hi - lo) / points
        rows = table(low, high, step, points, breakpoints=False)
        want = _fraction_rows(low, high, [lo + step * i for i in range(points)])
        assert [tuple(F(*q) for q in row) for row in rows] == want


# sha256 of repr() of the (k, scheme, str(delta1), r, d) list built below,
# recorded while pieces held Fraction coefficients: a float r meets each
# coefficient rounded once, as it did then.  Re-pinned when rtda's lower
# band was clipped at 0: its ten negative values (r from 0.35 to 0.4999 at
# delta1 3/4, 2/3 and 5/7) became 0.0 and no other value moved
GOLDEN_D_AT_FLOAT = "f5611d55824173b8df85929657fbc11bb15cb2f43a8f64536f2f5237c470e0c4"


def test_d_at_float_r_is_unchanged():
    rs = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 1 / 6, 1 / 3, 0.3, 0.35, 0.4, 0.45, 0.4999,
          0.123456789, 0.5, 0.6, 0.7, 0.75, 0.9, 1.0]
    vals = []
    for scheme, k, delta1 in _bands():
        for c in band(scheme, k, delta1):
            for r in rs:
                try:
                    v = c.d(r)
                except ConfigError:
                    v = None
                assert v is None or type(v) is float
                vals.append((k, scheme, str(delta1), r, v))
    assert hashlib.sha256(repr(vals).encode()).hexdigest() == GOLDEN_D_AT_FLOAT
    lower = band("rtda", 2, F(5, 7))[0]
    assert [lower.d(r) for r in (0.1, 1 / 3, 0.4999)] == [2.16, 0.20000000000000018, 0.0]
    assert [curve("ddf", 2).d(r) for r in (0.4, 0.45, 0.7)] == \
        [1.6666666666666667, 1.3636363636363635, 0.42857142857142866]


# every pair's report at k = 1, 2, 3 as the Fraction implementation gave it:
# (points as (r, d, exact), coincident spans)
CROSSINGS = {
    (1, "stc", "tda"): ((), ((F(0), F(1, 2)),)),
    (1, "stc", "astc"): ((), ((F(0), F(1, 2)),)),
    (1, "stc", "naf"): (((F(0), F(2), True),), ()),
    (1, "stc", "ddf"): (((F(0), F(2), True),), ()),
    (1, "stc", "maf"): (((F(0), F(2), True),), ()),
    (1, "tda", "astc"): ((), ((F(0), F(1, 2)),)),
    (1, "tda", "naf"): (((F(0), F(2), True),), ()),
    (1, "tda", "ddf"): (((F(0), F(2), True),), ()),
    (1, "tda", "maf"): (((F(0), F(2), True),), ()),
    (1, "astc", "naf"): (((F(0), F(2), True),), ()),
    (1, "astc", "ddf"): (((F(0), F(2), True),), ()),
    (1, "astc", "maf"): (((F(0), F(2), True),), ()),
    (1, "naf", "ddf"): (((F(0), F(2), True), (F(1), F(0), True)), ()),
    (1, "naf", "maf"): (((F(0), F(2), True), (F(1, 3), F(1), True)), ()),
    (1, "ddf", "maf"): ((), ((F(0), F(1, 4)),)),
    (2, "stc", "tda"): ((), ((F(0), F(1, 2)),)),
    (2, "stc", "ltda"): ((), ((F(0), F(1, 2)),)),
    (2, "stc", "astc"): ((), ((F(0), F(1, 2)),)),
    (2, "stc", "naf"): (((F(0), F(3), True),), ()),
    (2, "stc", "ddf"): (((F(0), F(3), True),), ()),
    (2, "stc", "maf"): (((F(0), F(3), True),), ()),
    (2, "tda", "ltda"): ((), ((F(0), F(1, 2)),)),
    (2, "tda", "astc"): ((), ((F(0), F(1, 2)),)),
    (2, "tda", "naf"): (((F(0), F(3), True),), ()),
    (2, "tda", "ddf"): (((F(0), F(3), True),), ()),
    (2, "tda", "maf"): (((F(0), F(3), True),), ()),
    (2, "ltda", "astc"): ((), ((F(0), F(1, 2)),)),
    (2, "ltda", "naf"): (((F(0), F(3), True),), ()),
    (2, "ltda", "ddf"): (((F(0), F(3), True),), ()),
    (2, "ltda", "maf"): (((F(0), F(3), True),), ()),
    (2, "astc", "naf"): (((F(0), F(3), True),), ()),
    (2, "astc", "ddf"): (((F(0), F(3), True),), ()),
    (2, "astc", "maf"): (((F(0), F(3), True),), ()),
    (2, "naf", "ddf"): (((F(0), F(3), True), (F(1), F(0), True)), ()),
    (2, "naf", "maf"): (((F(0), F(3), True), (F(1, 3), F(4, 3), True)), ()),
    (2, "ddf", "maf"): (((F(0), F(3), True), (F(1, 5), F(12, 5), True)), ()),
    (3, "stc", "tda"): ((), ((F(0), F(1, 2)),)),
    (3, "stc", "astc"): ((), ((F(0), F(1, 2)),)),
    (3, "stc", "naf"): (((F(0), F(4), True),), ()),
    (3, "stc", "ddf"): (((F(0), F(4), True),), ()),
    (3, "tda", "astc"): ((), ((F(0), F(1, 2)),)),
    (3, "tda", "naf"): (((F(0), F(4), True),), ()),
    (3, "tda", "ddf"): (((F(0), F(4), True),), ()),
    (3, "astc", "naf"): (((F(0), F(4), True),), ()),
    (3, "astc", "ddf"): (((F(0), F(4), True),), ()),
    (3, "naf", "ddf"): (((F(0), F(4), True), (F(1), F(0), True)), ()),
}


def test_crossing_reports_are_unchanged():
    for (k, a, b), (points, spans) in CROSSINGS.items():
        for x, y in ((a, b), (b, a)):
            rep = crossings(x, y, k)
            assert (rep.scheme_a, rep.scheme_b) == (x, y)
            assert tuple((p.r, p.d, p.exact) for p in rep.points) == points, (k, x, y)
            assert rep.coincident == spans, (k, x, y)
            assert all(type(v) is F for p in rep.points for v in (p.r, p.d))
            assert all(type(v) is F for span in rep.coincident for v in span)


def test_irrational_crossings_are_floats(monkeypatch):
    # No shipped pair crosses at an irrational r (none for k up to 29), so
    # made-up curves take that branch: qa = (3 - 5r)/(1 - r) meets qb = 2 - r
    # at sqrt(2) - 1, and meets qc (2 - r, then 9/4 - 2r from r = 1/4) near
    # 0.4529.  The values were recorded with Fraction coefficients.
    made = {
        "qa": TradeoffCurve("qa", 2, (Piece((1, 2), 3, -5, 1, -1),), True),
        "qb": TradeoffCurve("qb", 2, (Piece((1, 2), 2, -1),), True),
        "qc": TradeoffCurve("qc", 2, (Piece((1, 4), 2, -1), Piece((1, 1), 9, -8, 4, 0, 4)), False),
    }
    monkeypatch.setattr(tradeoff, "curve", lambda scheme, k=2: made[scheme])
    want = {
        ("qa", "qb"): (0.41421356237309515, 1.5857864376269049),
        ("qb", "qa"): (0.41421356237309515, 1.5857864376269049),
        ("qa", "qc"): (0.4529344228724749, 1.3441311542550505),
        ("qc", "qa"): (0.4529344228724749, 1.3441311542550503),
    }
    for (a, b), (r, d) in want.items():
        rep = crossings(a, b)
        assert rep.points == (CrossPoint(r, d, False),)
        assert rep.coincident == ()
