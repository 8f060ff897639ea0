"""Diversity-multiplexing tradeoff curves with exact rational values.

Each curve is a piecewise ratio of affine functions of the multiplexing gain
r with integer coefficients.  Tables and crossings are computed in Python
integers over one common denominator, so breakpoints, values at rational r
and curve crossings are exact; a Fraction is built only where a caller
receives one.  Every curve starts at r = 0: two-phase schemes live on
[0, 1/2), and the full-duplex reference protocols (naf, ddf) extend to [0, 1].
"""

from __future__ import annotations

import bisect
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
    """d(r) = (a0 + a1 r) / (b0 + b1 r) with integer a and b, from the
    previous piece's right end (or 0) to hi, a (numerator, denominator) pair.

    s is the coefficients' common denominator: a float r meets each of them
    as the float a_i/s or b_i/s, so it rounds as the coefficient itself does.
    """

    hi: tuple[int, int]
    a0: int
    a1: int
    b0: int = 1
    b1: int = 0
    s: int = 1

    def at(self, n: int, m: int) -> tuple[int, int]:
        """d at r = n/m (m > 0), in lowest terms with a positive denominator."""
        return _lowest(self.a0 * m + self.a1 * n, self.b0 * m + self.b1 * n)


def _lowest(n: int, m: int) -> tuple[int, int]:
    """n/m (m != 0) as a pair in lowest terms with a positive denominator."""
    g = math.gcd(n, m)
    return (n // g, m // g) if m > 0 else (-n // g, -m // g)


@dataclass(frozen=True)
class TradeoffCurve:
    """Piecewise tradeoff curve; open_right marks a right-open domain."""

    scheme: str
    k: int
    pieces: tuple[Piece, ...]
    open_right: bool

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return _F(0), _F(*self.pieces[-1].hi)

    def d(self, r):
        """Diversity order at multiplexing gain r: a Fraction for rational r,
        a float for float r."""
        rv = _coerce(r)
        lo, hi = self.domain
        if rv < lo or rv > hi or (self.open_right and rv >= hi):
            end = ")" if self.open_right else "]"
            raise ConfigError(
                f"r={r!r} outside the domain [{lo}, {hi}{end} of scheme {self.scheme}")
        n, m = rv.as_integer_ratio()
        p = _piece(self, n, m)
        if isinstance(rv, float):
            s = p.s
            return (p.a0 / s + p.a1 / s * rv) / (p.b0 / s + p.b1 / s * rv)
        return _F(*p.at(n, m))


def _piece(c: TradeoffCurve, n: int, m: int) -> Piece:
    """The first piece of c whose right end is at or past r = n/m (m > 0)."""
    return next(p for p in c.pieces if n * p.hi[1] <= p.hi[0] * m)


def _scaled(q: tuple[int, int], den: int) -> int:
    """n/m * den of a pair q = (n, m), for den a multiple of m."""
    return q[0] * (den // q[1])


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
        return TradeoffCurve(scheme, k, (Piece((1, 2), k + 1, -2 * (k + 1)),), True)
    if scheme == "naf":
        return TradeoffCurve(scheme, k, (
            Piece((1, 2), 1 + k, -(1 + 2 * k)),
            Piece((1, 1), 1, -1),
        ), False)
    if scheme == "ddf":
        return TradeoffCurve(scheme, k, (
            Piece((1, k + 1), k + 1, -(k + 1)),
            Piece((1, 2), 1 + k, -(1 + 2 * k), 1, -1),
            Piece((1, 1), 1, -1, 0, 1),
        ), False)
    if scheme == "maf":
        if k == 1:
            return TradeoffCurve(scheme, k, (Piece((1, 4), 2, -2), Piece((1, 2), 3, -6)), True)
        if k == 2:
            return TradeoffCurve(scheme, k, (Piece((1, 6), 3, -2), Piece((1, 2), 4, -8)), True)
        raise ConfigError("mixed amplify-forward curve is known for k in {1, 2}")


def rtda_band(k: int = 2, delta1=_F(1)) -> tuple[TradeoffCurve, TradeoffCurve]:
    """Lower/upper tradeoff band of the repetition delay-diversity scheme.

    delta1 = floor(t0*bw)/ceil(t0*bw) in (0, 1]; the band collapses onto
    3(1-2r) exactly when the delay spans a whole number of periods.  A
    diversity order is never negative: for delta1 < 1 the lower curve
    3(1 - 2r/delta1) reaches 0 at r = delta1/2 and stays there up to 1/2.
    """
    if k != 2:
        raise ConfigError("the repetition-band analysis covers k=2 only")
    d1 = _F(delta1)
    if not 0 < d1 <= 1:
        raise ConfigError(f"delta1 must lie in (0, 1], got {delta1!r}")
    n, m = d1.numerator, d1.denominator  # 3 - 6r/delta1 = (3n - 6m r)/n
    zero = _lowest(n, 2 * m)  # delta1/2
    pieces = (Piece(zero, 3 * n, -6 * m, n, 0, n),)
    if zero != (1, 2):
        pieces += (Piece((1, 2), 0, 0),)
    lower = TradeoffCurve("rtda", k, pieces, True)
    upper = TradeoffCurve("rtda", k, (Piece((1, 2), 3, -6),), True)
    return lower, upper


def band(scheme: str, k: int = 2, delta1=_F(1)) -> tuple[TradeoffCurve, TradeoffCurve]:
    """(lower, upper) curves of one scheme: rtda's band, the same curve twice
    for every other scheme (delta1 is read by rtda only)."""
    if scheme == "rtda":
        return rtda_band(k, delta1)
    c = curve(scheme, k)
    return c, c


def fraction_text(q: tuple[int, int]) -> str:
    """str(Fraction(n, m)) of a pair (n, m) in lowest terms with m > 0."""
    n, m = q
    return str(n) if m == 1 else f"{n}/{m}"


def _values(c: TradeoffCurve, xs: list[int], den: int) -> list[tuple[int, int]]:
    """Piece.at pairs of c at r = x/den for each x of the ascending xs."""
    out: list[tuple[int, int]] = []
    for p in c.pieces:  # each piece takes the xs left up to its right end
        end = bisect.bisect_right(xs, _scaled(p.hi, den), len(out))
        out += [p.at(x, den) for x in xs[len(out):end]]
    return out


def table(low: TradeoffCurve, high: TradeoffCurve, step: Fraction, n: int,
          breakpoints: bool = True) -> list[tuple[tuple[int, int], ...]]:
    """Rows (r, d_low, d_high) of the band (low, high) at r = i*step for
    i < n and, with breakpoints, at both curves' breakpoints; r ascends
    within the domain, without an open right end.

    Each value is an integer pair (n, m) in lowest terms with m > 0:
    fraction_text prints it as str(Fraction) does, and n/m is its float.
    With r = x/D over one common denominator D, a piece's value is
    (a0 D + a1 x)/(b0 D + b1 x).
    """
    ends = [p.hi for c in (low, high) for p in c.pieces]  # the breakpoints after 0
    den = math.lcm(step.denominator, *(q[1] for q in ends))
    top, dx = _scaled(low.pieces[-1].hi, den), _scaled(step.as_integer_ratio(), den)
    xs = set(range(0, n * dx, dx))
    if breakpoints:
        xs.update((0, *(_scaled(q, den) for q in ends)))
    xs = sorted(x for x in xs if x < top or (x == top and not low.open_right))
    d_low = _values(low, xs, den)
    d_high = d_low if high is low else _values(high, xs, den)
    return list(zip([_lowest(x, den) for x in xs], d_low, d_high))


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


def crossings(scheme_a: str, scheme_b: str, k: int = 2) -> CrossingReport:
    """All equality points of two curves over their common domain.

    Equality on a segment reduces to a quadratic with integer coefficients;
    rational roots are reported exactly, irrational ones as floats flagged
    exact=False.  Segments where the curves agree identically are reported
    as coincident spans instead of points.  Until the report is built, each
    cut is an integer over one common denominator and each root an integer
    pair (n, m) in lowest terms with m > 0.
    """
    ca = curve(scheme_a, k)
    cb = curve(scheme_b, k)
    ends = [p.hi for c in (ca, cb) for p in c.pieces]
    den = math.lcm(*(q[1] for q in ends))
    ahi, bhi = _scaled(ca.pieces[-1].hi, den), _scaled(cb.pieces[-1].hi, den)
    hi = min(ahi, bhi)
    open_right = (ca.open_right and hi == ahi) or (cb.open_right and hi == bhi)
    cuts = sorted({0, *(x for x in (_scaled(q, den) for q in ends) if x <= hi)})
    found: dict[tuple[int, int], bool] = {}  # root (n, m) -> exact
    spans: list[tuple[int, int]] = []

    for a, b in zip(cuts[:-1], cuts[1:]):
        pa, pb = _piece(ca, b, den), _piece(cb, b, den)
        A = pa.a1 * pb.b1 - pb.a1 * pa.b1
        B = pa.a0 * pb.b1 + pa.a1 * pb.b0 - pb.a0 * pa.b1 - pb.a1 * pa.b0
        C = pa.a0 * pb.b0 - pb.a0 * pa.b0
        if A == 0 and B == 0:
            if C == 0:
                if spans and spans[-1][1] == a:
                    spans[-1] = (spans[-1][0], b)
                else:
                    spans.append((a, b))
            continue
        if A == 0:
            roots = [(*_lowest(-C, B), True)]
        elif (disc := B * B - 4 * A * C) < 0:
            roots = []
        elif (sq := math.isqrt(disc)) ** 2 == disc:  # a double root is admitted once
            roots = [(*_lowest(-B + sq, 2 * A), True), (*_lowest(-B - sq, 2 * A), True)]
        else:
            fs = math.sqrt(float(disc))
            roots = [(*rv.as_integer_ratio(), False)
                     for rv in ((-float(B) + fs) / (2.0 * float(A)),
                                (-float(B) - fs) / (2.0 * float(A)))]
        for n, m, exact in roots:
            if (a * m <= n * den <= b * m and (n, m) not in found
                    and not (open_right and n * den >= hi * m)):
                found[n, m] = exact

    points = []
    for (n, m), exact in sorted(found.items(), key=lambda q: q[0][0] / q[0][1]):
        if any(a * m <= n * den <= b * m for a, b in spans):
            continue
        if exact:
            points.append(CrossPoint(_F(n, m), _F(*_piece(ca, n, m).at(n, m)), True))
        else:
            points.append(CrossPoint(n / m, ca.d(n / m), False))
    return CrossingReport(scheme_a, scheme_b, tuple(points),
                          tuple((_F(a, den), _F(b, den)) for a, b in spans))
