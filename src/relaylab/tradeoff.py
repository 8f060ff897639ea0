"""Diversity-multiplexing tradeoff curves with exact rational arithmetic.

Each curve is a piecewise ratio of affine functions of the multiplexing gain
r, held as Fractions so breakpoints, evaluations at rational r, and curve
crossings are exact.  Two-phase schemes live on [0, 1/2); the full-duplex
reference protocols (naf, ddf) extend to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError

SCHEMES = ("stc", "tda", "rtda", "ltda", "astc", "naf", "ddf", "maf")

_F = Fraction


def _coerce(r):
    """Fractions and ints stay exact; floats stay float."""
    if isinstance(r, bool):
        raise ConfigError("r must be a number")
    if isinstance(r, (Fraction, int)):
        return _F(r)
    if isinstance(r, float):
        if not math.isfinite(r):
            raise ConfigError("r must be finite")
        return r
    raise ConfigError(f"unsupported r type {type(r)!r}")


@dataclass(frozen=True)
class Piece:
    """d(r) = (p0 + p1 r) / (q0 + q1 r) on [lo, hi]."""

    lo: Fraction
    hi: Fraction
    p0: Fraction
    p1: Fraction
    q0: Fraction = _F(1)
    q1: Fraction = _F(0)

    def at(self, r):
        return (self.p0 + self.p1 * r) / (self.q0 + self.q1 * r)


@dataclass(frozen=True)
class TradeoffCurve:
    """Piecewise tradeoff curve; open_right marks a right-open domain."""

    scheme: str
    k: int
    pieces: tuple[Piece, ...]
    open_right: bool

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.pieces[0].lo, self.pieces[-1].hi

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        pts = {self.pieces[0].lo}
        for p in self.pieces:
            pts.add(p.hi)
        return tuple(sorted(pts))

    def d(self, r):
        """Diversity order at multiplexing gain r (exact for rational r)."""
        rv = _coerce(r)
        lo, hi = self.domain
        if rv < lo or rv > hi or (self.open_right and rv >= hi):
            end = ")" if self.open_right else "]"
            raise ConfigError(
                f"r={r!r} outside the domain [{lo}, {hi}{end} of scheme {self.scheme}")
        return next(p.at(rv) for p in self.pieces if rv <= p.hi)


def _lin(lo, hi, c0, c1) -> Piece:
    return Piece(_F(lo), _F(hi), _F(c0), _F(c1))


def curve(scheme: str, k: int = 2) -> TradeoffCurve:
    """Tradeoff curve of one scheme with k relays.

    The synchronous, delay-diversity and asynchronous space-time curves all
    equal (k+1)(1-2r): asynchrony costs nothing in overall tradeoff.  The
    repetition scheme is a band; use band or rtda_band for it.
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if not (isinstance(k, int) and k >= 1):
        raise ConfigError("k must be a positive integer relay count")
    if scheme == "rtda":
        raise ConfigError("rtda is a band; use band('rtda', k, delta1)")
    if scheme in ("stc", "tda", "astc", "ltda"):
        if scheme == "ltda" and k != 2:
            raise ConfigError("the matched-filter analysis covers k=2 only")
        return TradeoffCurve(scheme, k, (_lin(0, _F(1, 2), k + 1, -2 * (k + 1)),), True)
    if scheme == "naf":
        return TradeoffCurve(scheme, k, (
            _lin(0, _F(1, 2), 1 + k, -(1 + 2 * k)),
            _lin(_F(1, 2), 1, 1, -1),
        ), False)
    if scheme == "ddf":
        third = _F(1, k + 1)
        return TradeoffCurve(scheme, k, (
            _lin(0, third, k + 1, -(k + 1)),
            Piece(third, _F(1, 2), _F(1 + k), _F(-(1 + 2 * k)), _F(1), _F(-1)),
            Piece(_F(1, 2), _F(1), _F(1), _F(-1), _F(0), _F(1)),
        ), False)
    if scheme == "maf":
        if k == 1:
            return TradeoffCurve(scheme, k, (
                _lin(0, _F(1, 4), 2, -2),
                _lin(_F(1, 4), _F(1, 2), 3, -6),
            ), True)
        if k == 2:
            return TradeoffCurve(scheme, k, (
                _lin(0, _F(1, 6), 3, -2),
                _lin(_F(1, 6), _F(1, 2), 4, -8),
            ), True)
        raise ConfigError("mixed amplify-forward curve is known for k in {1, 2}")


def rtda_band(k: int = 2, delta1=_F(1)) -> tuple[TradeoffCurve, TradeoffCurve]:
    """Lower/upper tradeoff band of the repetition delay-diversity scheme.

    delta1 = floor(t0*bw)/ceil(t0*bw) in (0, 1]; the band collapses onto
    3(1-2r) exactly when the delay spans a whole number of periods.
    """
    if k != 2:
        raise ConfigError("the repetition-band analysis covers k=2 only")
    d1 = _F(delta1)
    if not 0 < d1 <= 1:
        raise ConfigError(f"delta1 must lie in (0, 1], got {delta1!r}")
    lower = TradeoffCurve("rtda", k, (_lin(0, _F(1, 2), 3, _F(-6, 1) / d1),), True)
    upper = TradeoffCurve("rtda", k, (_lin(0, _F(1, 2), 3, -6),), True)
    return lower, upper


def band(scheme: str, k: int = 2, delta1=_F(1)) -> tuple[TradeoffCurve, TradeoffCurve]:
    """(lower, upper) curves of one scheme: rtda's band, the same curve twice
    for every other scheme (delta1 is read by rtda only)."""
    if scheme == "rtda":
        return rtda_band(k, delta1)
    c = curve(scheme, k)
    return c, c


@dataclass(frozen=True)
class CrossPoint:
    r: object  # Fraction when exact, float otherwise
    d: object
    exact: bool


@dataclass(frozen=True)
class CrossingReport:
    scheme_a: str
    scheme_b: str
    points: tuple[CrossPoint, ...]
    coincident: tuple[tuple[Fraction, Fraction], ...]


def _piece_at(c: TradeoffCurve, r: Fraction) -> Piece:  # r in c's domain
    return next(p for p in c.pieces if p.lo <= r <= p.hi)


def _exact_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    pn, pd = x.numerator, x.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return _F(rn, rd)
    return None


def crossings(scheme_a: str, scheme_b: str, k: int = 2) -> CrossingReport:
    """All equality points of two curves over their common domain.

    Equality on a segment reduces to a quadratic with Fraction coefficients;
    rational roots are reported exactly, irrational ones as floats flagged
    exact=False.  Segments where the curves agree identically are reported
    as coincident spans instead of points.
    """
    ca = curve(scheme_a, k)
    cb = curve(scheme_b, k)
    lo = max(ca.domain[0], cb.domain[0])
    hi = min(ca.domain[1], cb.domain[1])
    open_right = (ca.open_right and hi == ca.domain[1]) or \
                 (cb.open_right and hi == cb.domain[1])
    cuts = sorted({p for p in ca.breakpoints + cb.breakpoints if lo <= p <= hi}
                  | {lo, hi})
    points: list[CrossPoint] = []
    spans: list[tuple[Fraction, Fraction]] = []

    def admit(rv, exact: bool):  # rv in [lo, hi]; span points go after the loop
        if open_right and rv >= hi:
            return
        for p in points:
            if p.r == rv:
                return
        da = _piece_at(ca, rv).at(rv) if exact else ca.d(float(rv))
        points.append(CrossPoint(rv, da, exact))

    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = (a + b) / 2
        pa = _piece_at(ca, mid)
        pb = _piece_at(cb, mid)
        A = pa.p1 * pb.q1 - pb.p1 * pa.q1
        B = pa.p0 * pb.q1 + pa.p1 * pb.q0 - pb.p0 * pa.q1 - pb.p1 * pa.q0
        C = pa.p0 * pb.q0 - pb.p0 * pa.q0
        if A == 0 and B == 0:
            if C == 0:
                if spans and spans[-1][1] == a:
                    spans[-1] = (spans[-1][0], b)
                else:
                    spans.append((a, b))
            continue
        roots: list[tuple[object, bool]] = []
        if A == 0:
            roots.append((-C / B, True))
        else:
            disc = B * B - 4 * A * C
            if disc >= 0:
                sq = _exact_sqrt(disc)
                if sq is None:
                    fs = math.sqrt(float(disc))
                    roots.append(((-float(B) + fs) / (2.0 * float(A)), False))
                    roots.append(((-float(B) - fs) / (2.0 * float(A)), False))
                else:
                    roots.append(((-B + sq) / (2 * A), True))
                    if sq != 0:
                        roots.append(((-B - sq) / (2 * A), True))
        for rv, exact in roots:
            if a <= rv <= b:
                admit(rv, exact)

    points = [p for p in points
              if not any(a <= p.r <= b for a, b in spans)]
    points.sort(key=lambda p: float(p.r))
    return CrossingReport(scheme_a, scheme_b, tuple(points), tuple(spans))
