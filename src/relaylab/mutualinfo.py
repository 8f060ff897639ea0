"""Conditional mutual information of the relaying schemes, in bits/s/Hz.

Every value conditions on the decoding set (which relays got the source
message in phase one) and on one fading realization.  rho0 is the
normalized per-node snr.  All logarithms are base 2.

The evaluators take arrays, one row per draw, and a single draw is a batch
of one.  A LinkRecord holds the destination links of a batch as four real
arrays, the snr-free terms the kernels read (the squared gains and the
relays' coherent sum), so the Monte Carlo engine draws one per block and
every snr point reads it.  record_mi is each scheme's one MI kernel: it
takes a record and the relay memberships, and mi_batch is it on complex
gains.  Rows with fewer than two relays have closed forms; on the
both-relays rows every scheme's MI is (direct + kernel)/2, a direct-link
term plus a relay-pair term.  _both_relays is the one place per scheme for
those rows: it returns the direct term with the kernel and its two bounds
as callables, which record_mi, record_below and mi_envelope all read.  The
Monte Carlo engine only needs record_mi(...) < rate.  record_below returns
it for STC_SYNC and TDA_LINMOD by comparing a product of gain terms with
4^rate, and for the other schemes with the lower bound on every
both-relays row and the upper bound on the rows the lower bound does not
clear; the rows either test leaves in doubt go through one record_mi call.
_direct_cuts gives the engine, per snr point, the direct gain at and above
which record_below is False on every row: the inverse of one floor, with
the same margin (_screen_slack).  mi_envelope returns mi_batch's value
with the bounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericError
from .waveform import CorrelationSet

_LN2 = math.log(2.0)


class SchemeId(str, enum.Enum):
    """Two-phase relaying schemes the lab can evaluate or simulate."""

    STC_SYNC = "STC_SYNC"            # symbol-synchronous space-time code
    TDA_INDEP = "TDA_INDEP"          # delayed relays, independent codebooks
    TDA_REPETITION = "TDA_REPETITION"  # delayed relays repeating the source codeword
    TDA_LINMOD = "TDA_LINMOD"        # delayed overlapping pulses, matched-filter front end
    ASTC = "ASTC"                    # space-time code under symbol-level asynchrony
    MIX_AF = "MIX_AF"                # decode-forward with amplify-forward fallback


# the one input each scheme's kernel reads besides the gains; STC_SYNC reads neither
_DELAY_SCHEMES = frozenset((SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION))
_CORR_SCHEMES = frozenset((SchemeId.TDA_LINMOD, SchemeId.ASTC, SchemeId.MIX_AF))


# _wrap_angle reduces the window angles 2 (pi t0bw +- psi) exactly while they
# span fewer than 2^22 periods; t0 * bw stays at half that.
_MAX_T0BW = 2.0 ** 21


@dataclass(frozen=True)
class DelayConfig:
    """The delay-bandwidth product t0 * bw of the two relays' arrivals.

    Only the relative delay t0 enters the rate expressions, and only through
    t0 * bw: how much of a frequency period the receiver averages over.
    """

    t0bw: float

    def __post_init__(self):
        if not (isinstance(self.t0bw, (int, float)) and 0.0 <= self.t0bw <= _MAX_T0BW):
            raise ConfigError(f"t0 * bandwidth must lie in [0, {_MAX_T0BW:.0f}], "
                              f"got {self.t0bw!r}")

    @classmethod
    def from_t0bw(cls, t0bw: float) -> "DelayConfig":
        """The delays with delay-bandwidth product t0bw (any real number type)."""
        return cls(float(t0bw))

    @property
    def delta1(self) -> float:
        """floor(t0*bw)/ceil(t0*bw), the whole-period fraction of the average."""
        w = self.t0bw
        n = round(w)
        if abs(w - n) < 1e-9:  # snap near-integers so floor/ceil agree
            return 0.0 if n == 0 else 1.0
        return math.floor(w) / math.ceil(w)


def check_scheme(scheme, corr: CorrelationSet | None = None,
                 delays: DelayConfig | None = None) -> SchemeId:
    """The scheme as a SchemeId, once it has the inputs its kernel reads."""
    scheme = SchemeId(scheme)
    if scheme in _DELAY_SCHEMES and delays is None:
        raise ConfigError(f"{scheme.value} needs delays (DelayConfig)")
    if scheme in _CORR_SCHEMES and corr is None:
        raise ConfigError(f"{scheme.value} needs a CorrelationSet")
    if scheme == SchemeId.TDA_LINMOD:
        if corr.span != 1:
            raise ConfigError("TDA_LINMOD needs a single-period (span-1) pulse")
        if abs(corr.rho12) >= 1.0:
            raise ConfigError(f"|rho12| must be < 1, got {corr.rho12}")
    return scheme


class LinkRecord(NamedTuple):
    """The destination links of a batch of draws, one row per draw, as the
    four real arrays the MI kernels read: the squared direct gain g_sd, the
    squared relay gains g1, g2 and the relays' coherent sum coh, which is
    |r1d + r2d|^2 = g1 + g2 + 2 sqrt(g1 g2) cos psi for relay gains r1d,
    r2d with phase difference psi.  psi enters every kernel evenly, so the
    cross term sqrt(g1 g2) cos psi = (coh - (g1 + g2))/2 carries all of it.
    of_gains builds the record of complex relay gains; rows(idx) is the
    record of a subset of the rows.
    """

    g_sd: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    coh: np.ndarray

    @classmethod
    def of_gains(cls, g_sd, r1d, r2d) -> "LinkRecord":
        """The record of the squared direct gain g_sd and the complex relay gains r1d, r2d."""
        r1d, r2d = np.asarray(r1d), np.asarray(r2d)
        return cls(np.asarray(g_sd), np.abs(r1d) ** 2, np.abs(r2d) ** 2, np.abs(r1d + r2d) ** 2)

    def rows(self, idx) -> "LinkRecord":
        """The record of rows idx, sorted distinct row indices (the record
        itself when they are all its rows)."""
        if len(idx) == len(self.g_sd):
            return self
        return LinkRecord(*(v[idx] for v in self))


def mi_batch(scheme, sd, r1d, r2d, m1, m2, rho0: float,
             corr: CorrelationSet | None = None,
             delays: DelayConfig | None = None) -> np.ndarray:
    """record_mi on the complex destination-link gains sd, r1d, r2d."""
    links = LinkRecord.of_gains(np.abs(sd) ** 2, r1d, r2d)
    return record_mi(scheme, links, m1, m2, rho0, corr, delays)


def record_mi(scheme, links: LinkRecord, m1, m2, rho0: float,
              corr: CorrelationSet | None = None,
              delays: DelayConfig | None = None) -> np.ndarray:
    """Conditional MI of one scheme for a record of fading draws.

    m1, m2 are the boolean memberships of the decoding set, one entry per
    row.  The Monte Carlo engine calls it per block and snr point; a single
    draw is a batch of one.  Rows with fewer than two relays are closed
    forms in the members' summed gain relay; both-relays rows are
    (direct + kernel)/2 over _both_relays.
    """
    scheme = check_scheme(scheme, corr, delays)
    gsd, g1, g2 = links.g_sd, links.g1, links.g2
    relay = g1 * m1 + g2 * m2  # np.where(m, g, 0.0) for finite g >= 0
    # a gain term past the float range is inf, and so is its logarithm
    with np.errstate(over="ignore"):
        if scheme == SchemeId.TDA_REPETITION:
            out = 0.5 * np.log2(1.0 + rho0 * (gsd + relay))
        elif scheme == SchemeId.ASTC:
            out = 0.5 * (_esd_from_gain(gsd, corr.a1, rho0)
                         + _esd_from_gain(relay, corr.a1, rho0))
        elif scheme == SchemeId.MIX_AF:
            # A lone decoded relay forwards its own stream; the direct link and
            # the relay that failed form the amplify-forward pair.  With no relay
            # decoded the amplify-forward path is bound to relay 1 by index.
            af = np.log2(1.0 + rho0 * (gsd + np.where(m1 & ~m2, g2, g1)))
            out = 0.5 * (af + np.log2(1.0 + rho0 * relay))
        else:  # STC_SYNC for every row, TDA_INDEP and TDA_LINMOD below two relays
            out = 0.5 * np.log2(1.0 + rho0 * gsd) + 0.5 * np.log2(1.0 + rho0 * relay)

    both = m1 & m2
    if scheme == SchemeId.STC_SYNC or not both.any():
        return out
    b = np.nonzero(both)[0]
    direct, kernel, _, _ = _both_relays(scheme, links.rows(b), rho0, corr, delays)
    out[b] = 0.5 * (direct + kernel())
    return out


def mi_envelope(scheme, sd, r1d, r2d, m1, m2, rho0: float,
                corr: CorrelationSet | None = None,
                delays: DelayConfig | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value, lower, upper) arrays: mi_batch's value and the bounds
    record_below screens it with, (direct + bound)/2 over _both_relays's
    bounds on every both-relays row.

    A row with a non-finite bound gets the vacuous -inf and +inf.  Rows with
    a closed form (STC_SYNC, fewer than two relays, the delay schemes at
    t0 bw = 0, whose closed form is its own bounds) get lower = upper =
    value where it is finite.
    """
    scheme = check_scheme(scheme, corr, delays)
    links = LinkRecord.of_gains(np.abs(sd) ** 2, r1d, r2d)
    value = record_mi(scheme, links, m1, m2, rho0, corr, delays)
    lower = value.copy()
    upper = value.copy()
    both = m1 & m2
    if scheme == SchemeId.STC_SYNC or not both.any():
        return value, lower, upper
    b = np.nonzero(both)[0]
    with np.errstate(all="ignore"):
        direct, _, low, high = _both_relays(scheme, links.rows(b), rho0, corr, delays)
        low, high = low(), high()
        finite = np.isfinite(direct) & np.isfinite(low) & np.isfinite(high)
        lower[b] = np.where(finite, 0.5 * (direct + low), -np.inf)
        upper[b] = np.where(finite, 0.5 * (direct + high), np.inf)
    return value, lower, upper


def record_below(scheme, links: LinkRecord, m1, m2, rho0: float, rate: float,
                 corr: CorrelationSet | None = None,
                 delays: DelayConfig | None = None) -> np.ndarray:
    """record_mi(...) < rate per row, running the logarithms and the costly
    both-relays kernels only where a cheaper test leaves the verdict in doubt.

    STC_SYNC and TDA_LINMOD decide in the gain domain (_product_below).  For
    the both-relays rows of ASTC, MIX_AF and the windowed delay schemes,
    _both_relays's lower <= kernel <= upper bound the kernel term, and the
    row reaches the rate iff the kernel reaches need = 2 rate - direct.  Each
    test keeps a margin above the kernel's roundoff.  The lower bound runs
    first: a row whose finite lower bound reaches the finite need is
    cleared, whatever its upper bound.  The upper bound runs on the rows it
    leaves, and a row whose finite upper bound falls below the need is an
    outage.  Every other row, and every row with a non-finite bound or need,
    goes through one record_mi call.  So the verdicts equal
    record_mi(...) < rate wherever record_mi returns.  Where it would raise,
    because the pair kernel's coefficients pass the float range, a row that
    the lower bound clears gets the lower bound's verdict.
    """
    scheme = check_scheme(scheme, corr, delays)
    if scheme in (SchemeId.STC_SYNC, SchemeId.TDA_LINMOD):
        return _product_below(scheme, links, m1, m2, rho0, rate, corr)
    both = m1 & m2
    b = np.nonzero(both)[0]
    pair = links.rows(b)
    direct, _, lower, _ = _both_relays(scheme, pair, rho0, corr, delays)
    slack = _screen_slack(rate, delays)
    with np.errstate(all="ignore"):  # a non-finite bound sends its row to the kernel
        lower = lower()
        need = np.broadcast_to(2.0 * rate - direct, b.shape)
        finite = np.isfinite(need) & np.isfinite(lower)
        clear = finite & (lower - slack >= need)
        rest = np.nonzero(~clear)[0]
        upper = _both_relays(scheme, pair.rows(rest), rho0, corr, delays)[3]()
    outage = np.zeros(b.size, dtype=bool)
    outage[rest] = finite[rest] & np.isfinite(upper) & (upper + slack < need[rest])
    below = np.zeros(both.size, dtype=bool)
    below[b[outage]] = True
    doubt = np.ones(both.size, dtype=bool)
    doubt[b[outage | clear]] = False
    k = np.nonzero(doubt)[0]
    if k.size:
        below[k] = record_mi(scheme, links.rows(k), m1[k], m2[k], rho0, corr, delays) < rate
    return below


def _product_below(scheme: SchemeId, links: LinkRecord, m1, m2, rho0: float, rate: float,
                   corr: CorrelationSet | None) -> np.ndarray:
    """record_mi(...) < rate for STC_SYNC and TDA_LINMOD, decided without a
    logarithm where the margin allows.

    Both MIs are half the log2 of a product, so MI < R iff P = (1 + rho0
    g_sd) Q < T = 4^R, with Q = 1 + rho0 relay below two relays and Q half
    the matched-filter argument (_linmod_terms) on TDA_LINMOD's both-relays
    rows.  A row whose P lies within T 2^(+-2 slack), the margin of the
    bound screens in bits of MI, or whose P is not finite (the product
    passes the float range past rho0 g of about 1e154) goes through one
    record_mi call; P's roundoff is a few ulps, far inside that margin.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = 1.0 + rho0 * (links.g1 * m1 + links.g2 * m2)
        if scheme == SchemeId.TDA_LINMOD:
            b = np.flatnonzero(m1 & m2)
            if b.size:
                q[b] = 0.5 * _linmod_terms(links.rows(b), rho0, corr)[1]()
        p = (1.0 + rho0 * links.g_sd) * q
        slack = 2.0 * _screen_slack(rate, None)
        low, high = np.exp2(2.0 * rate - slack), np.exp2(2.0 * rate + slack)
    below = p < low
    doubt = np.flatnonzero(~(below | ((p > high) & (p < np.inf))))
    if doubt.size:
        below[doubt] = record_mi(scheme, links.rows(doubt), m1[doubt], m2[doubt], rho0,
                                 corr) < rate
    return below


# Margin of record_below's screens, in bits per bit: far above the kernels'
# roundoff, which stays near 1e-14 bits but grows to about 4e-14/t0bw bits for
# short delay windows, hence _screen_slack's 1/t0bw.
_SCREEN_SLACK = 1e-9


def _screen_slack(rate: float, delays: DelayConfig | None) -> float:
    """record_below's margin in bits at a rate: _SCREEN_SLACK (1 + rate),
    times 1 + 1/t0bw when delays has a window (t0 bw > 0)."""
    slack = _SCREEN_SLACK * (1.0 + rate)
    if delays is not None and delays.t0bw > 0.0:
        slack *= 1.0 + 1.0 / delays.t0bw
    return slack


def _direct_cuts(points, corr: CorrelationSet | None, delays: DelayConfig | None):
    """Per (rho0, rate) point, the direct gain cut = s*/rho0 at and above
    which record_below is False on every row of a scheme given at most the
    inputs corr and delays.  The cut is inf where y passes the float range.

    The one floor is 2 MI >= esd(rho0 g_sd; a) (_esd_from_gain), with
    a = corr.a1, or 0 without a pulse: increasing from esd(0) = 0 as
    |a| < 1/2, with exact inverse s* = 2 (y - 1)/(1 + sqrt(1 - 4a^2 +
    4a^2/y)) at log2 y = 2 rate + 2m, written with y^2 divided out and
    y - 1 applied after the division by rho0, so that nothing overflows
    before y or the cut does.  At a = 0, which every span-1 pulse has
    exactly (r(1)'s supports meet at one point), the factor is exactly 1.
    Each scheme reaches it:
    - esd(s; a) <= log2(1 + s), and the 2 MI of STC_SYNC, TDA_LINMOD and
      the delay schemes is >= log2(1 + rho0 g_sd): below two relays the
      relay term is >= 0 (or adds to rho0 g_sd inside repetition's one
      logarithm); the both-relays kernel is >= 0, as TDA_LINMOD's argument
      1 + a + sqrt((1 + a)^2 - b^2) is >= 2 for |b| <= a and the delay
      window averages log2(A + B cos) with A - B = 1 + rho0 (sqrt g1 -
      sqrt g2)^2 >= 1, plus rho0 g_sd for repetition, whose direct term is 0.
    - ASTC and MIX_AF read the pulse's a1.  Below two relays ASTC's terms
      are esd(rho0 g_sd) and esd(rho0 relay) >= 0; MIX_AF's amplify-forward
      term is >= log2(1 + rho0 g_sd) >= esd, its relay term >= 0.  On the
      both-relays rows the direct term is esd(rho0 g_sd), and the kernel
      mean log2 q is >= 0, as q = det(I + rho0 diag(g1, g2) T(w)) >= 1; so
      is its lower bound in record_below, esd(g1 + g2) or 0.
    So an input the scheme does not read only loosens its cut.

    The margin m is twice _screen_slack.  So a row above the cut has
    P > T 2^(2 slack) in _product_below, and a both-relays row of a
    bounded kernel above it has a lower bound at least 2m above its need
    2 rate - direct, which clears it in record_below.  Each such verdict is
    record_mi(...) < rate, and False, as it is for every row the engine skips.
    """
    a2 = 0.0 if corr is None else 4.0 * corr.a1 * corr.a1
    cuts = []
    for rho0, rate in points:
        margin = 2.0 * _screen_slack(rate, delays)
        try:
            y1 = math.expm1((2.0 * rate + 2.0 * margin) * _LN2)
        except OverflowError:
            cuts.append(math.inf)
            continue
        cuts.append(y1 / rho0 * (2.0 / (1.0 + math.sqrt(1.0 - a2 + a2 / (1.0 + y1)))))
    return cuts


def _both_relays(scheme: SchemeId, links: LinkRecord, rho0: float,
                 corr: CorrelationSet | None, delays: DelayConfig | None):
    """(direct, kernel, lower, upper) of a record of both-relays rows, whose
    MI is (direct + kernel())/2: a direct-link term and the relay-pair
    kernel, with lower() <= kernel() <= upper().  kernel, lower and upper
    are zero-argument callables, so a caller pays only for the parts it
    runs.  The relays' phase difference psi enters through the record's
    cross term cross = (coh - (g1 + g2))/2 = sqrt(g1 g2) cos psi.  STC_SYNC
    has no pair kernel and is not taken here.

    - TDA_INDEP/TDA_REPETITION average log2(A + B cos(u + psi)) over the
      delay window |u| <= h = pi t0 bw, with B = 2 rho0 sqrt(g1 g2); the
      repetition code puts rho0 g_sd into A, so its direct term is 0.  At
      t0 bw = 0 the relays add coherently, B cos psi = 2 rho0 cross, and
      that closed form is kernel, lower and upper.  Otherwise the mean is
      even in psi, so the kernel reads |psi| = arccos(cross / sqrt(g1 g2));
      it is at least _window_mean_lower, and Jensen with the window mean of
      the cosine gives log2(A + 2 rho0 cross sin(h) / h) above.
    - TDA_LINMOD: the matched-filter pair term is log2 of the argument
      1 + a + sqrt((1 + a)^2 - b^2), minus 1, with a = rho0 (g1 + g2 +
      2 rho12 cross) and b = 2 rho0 rho21 sqrt(g1 g2); _linmod_terms holds
      the argument, which record_below's gain-domain verdicts also read.
      The term lies between log2(1 + a) - 1 and log2(1 + a), as
      |rho12| + |rho21| <= 1 (Cauchy-Schwarz) gives |b| <= a.
    - ASTC/MIX_AF: the single-stream ISI rate of g_sd is the direct term
      and the kernel is _emaca_batch's mean log2 q(w),
      q = det(I + rho0 diag(g1, g2) T(w)).  Jensen gives mean log2 q <=
      log2 c_0, the constant cosine coefficient of q (column 0 of
      _det_coeffs).  When the diagonal is t11(w) = r(0) + 2 a1 cos w, that
      is every tap r(m), m >= 2, zero (span 1 and the truncated SRRC
      span 2), T(w) >= 0 gives q >= 1 + tr = 1 + rho0 (g1 + g2) t11, the
      single-stream rate of g1 + g2, and Hadamard's inequality gives
      q <= (1 + rho0 g1 t11)(1 + rho0 g2 t11), so the kernel is also at
      most the sum of the two single-stream rates.  For other pulses only
      q >= 1 bounds it below.
    """
    gsd, g1, g2, coh = links.g_sd, links.g1, links.g2, links.coh
    if scheme in _DELAY_SCHEMES:
        rep = scheme == SchemeId.TDA_REPETITION
        w = delays.t0bw
        with np.errstate(over="ignore"):  # rho0 g_sd past the float range: inf, as are its log and A
            direct = 0.0 if rep else np.log2(1.0 + rho0 * gsd)
            if w == 0.0:  # no delay window: the relays add coherently
                coherent = lambda: np.log2(1.0 + rho0 * ((gsd + coh) if rep else coh))
                return direct, coherent, coherent, coherent
            nu = g1 + g2
            a = 1.0 + rho0 * ((gsd + nu) if rep else nu)
        root = np.sqrt(g1 * g2)
        bc = 2.0 * rho0 * root
        cross = 0.5 * (coh - nu)
        h = math.pi * w

        def kernel():  # where root = 0, bc = 0 and the mean does not read psi
            psi = np.arccos(np.clip(cross / np.where(root == 0.0, 1.0, root), -1.0, 1.0))
            gap = (np.sqrt(g1) - np.sqrt(g2)) ** 2
            with np.errstate(over="ignore"):  # as a: inf past the float range
                a_minus_b = 1.0 + rho0 * ((gsd + gap) if rep else gap)
            return _cos_window_means(a, bc, psi, h, a_minus_b=a_minus_b)[0]

        return (direct, kernel, lambda: _window_mean_lower(a, bc, w),
                lambda: np.log2(a + 2.0 * rho0 * (math.sin(h) / h) * cross))
    if scheme == SchemeId.TDA_LINMOD:
        a, argument = _linmod_terms(links, rho0, corr)
        return (np.log2(1.0 + rho0 * gsd), lambda: np.log2(argument()) - 1.0,
                lambda: np.log2(1.0 + a) - 1.0, lambda: np.log2(1.0 + a))
    direct = _esd_from_gain(gsd, corr.a1, rho0)
    jensen = lambda: np.log2(_det_coeffs(g1, g2, corr, rho0)[:, 0])
    kernel = lambda: _emaca_batch(g1, g2, corr, rho0)
    if any(corr.r_taps[2:]):
        return direct, kernel, lambda: np.zeros(g1.size), jensen
    r0 = corr.r(0)  # t11 = r0 (1 + 2 (a1/r0) cos w): a single-stream rate of gain r0 g
    esd = lambda g: _esd_from_gain(r0 * g, corr.a1 / r0, rho0)
    return direct, kernel, lambda: esd(g1 + g2), lambda: np.minimum(jensen(), esd(g1) + esd(g2))


def _linmod_terms(links: LinkRecord, rho0: float, corr: CorrelationSet):
    """(a, argument) of the matched-filter pair term log2(argument()) - 1 on
    a record of both-relays rows: a = rho0 (g1 + g2 + 2 rho12 cross) and
    argument() = 1 + a + sqrt((1 + a)^2 - b^2), b = 2 rho0 rho21
    sqrt(g1 g2).  Where the square passes the float range (rho0 g past
    about 1e154) the root is taken as sqrt(1 + a - b) sqrt(1 + a + b)."""
    nu = links.g1 + links.g2
    a = rho0 * (nu + corr.rho12 * (links.coh - nu))

    def argument():
        bc = 2.0 * rho0 * corr.rho21 * np.sqrt(links.g1 * links.g2)
        with np.errstate(over="ignore", invalid="ignore"):
            d = (1.0 + a) ** 2 - bc * bc
        root = np.sqrt(np.maximum(d, 0.0))
        big = ~np.isfinite(d)
        if big.any():
            root = np.where(big, np.sqrt(np.maximum(1.0 + a - bc, 0.0)) * np.sqrt(1.0 + a + bc),
                            root)
        return 1.0 + a + root

    return a, argument


def closed_log_integral(a: float, b: float) -> float:
    """Full-period average of log2(1 + a sin x + b cos x).

    Equals log2((1 + sqrt(1 - a^2 - b^2)) / 2) whenever a^2 + b^2 < 1.
    """
    s2 = a * a + b * b
    if not s2 < 1.0:
        raise ConfigError(f"closed form needs a^2 + b^2 < 1, got {s2}")
    return math.log2(0.5 * (1.0 + math.sqrt(1.0 - s2)))


def _window_mean_lower(A, B, w: float):
    """Lower bound on the log2 mean of _cos_window_means(A, B, psi, pi w) for any psi:
    each of the floor(w) whole periods averages exactly log2((A + R)/2),
    R = sqrt(A^2 - B^2), and the rest of the window is at least log2(A - B)."""
    whole = math.floor(w)
    return (whole * np.log2(0.5 * (A + np.sqrt(A - B) * np.sqrt(A + B)))
            + (w - whole) * np.log2(A - B)) / w


def _window_phase(psi, h: float):
    """The terms of _cos_window_means that depend on psi and h alone: e^{ix},
    2x reduced to [-pi, pi] and Cl2(2x) at x = h + psi and h - psi, stacked
    on a new first axis."""
    x = np.stack((h + psi, h - psi))
    two_x = _wrap_angle(2.0 * x)
    return np.exp(1j * x), two_x, _clausen2(two_x)


def _cos_window_means(A, B, psi, h: float, phase=None, a_minus_b=None):
    """Exact means of log2(A + B cos(u + psi)) and of its A-slope times ln 2,
    1 / (A + B cos(u + psi)), over u in [-h, h], for arrays with A > |B|, h > 0.
    phase is _window_phase(psi, h) at these rows, for a caller that meets few
    distinct psi; without it the rows' own psi terms are computed here.
    a_minus_b is A - B in a form that does not cancel, for a caller that has
    one (the delay kernel's gain form); R and the short-window centre value
    read it in place of the float A - B.

    With R = sqrt(A^2 - B^2) and c = B / (A + R), |c| < 1 and

        log(A + B cos x) = log((A + R)/2) + 2 sum_k (-1)^(k+1) c^k cos(kx) / k,
        1 / (A + B cos x) = (1 + 2 sum_k (-c)^k cos(kx)) / R.

    Averaging the series over the window sums them to

        log2 mean = [log((A + R)/2) - (F(h + psi) + F(h - psi)) / h] / ln 2,
        inverse mean = [1 - (alpha(h + psi) + alpha(h - psi)) / h] / R,

    alpha(x) = arg(1 + c e^{ix}) and F(x) = Im Li2(-c e^{ix}).  Lewin's
    identity, Im Li2(r e^{it}) = w ln r + [Cl2(2t) + Cl2(2w) - Cl2(2w + 2t)] / 2
    with w = -arg(1 - r e^{it}), taken at t = x + pi, where w = -alpha,
    turns F into real Clausen functions (_clausen2):

        F(x) = -alpha ln|c| + [Cl2(2x) - Cl2(2 alpha) - Cl2(2x - 2 alpha)] / 2,

    which is 0 at c = 0.  The F and alpha terms cancel to roundoff (eps / h)
    in short windows, so a row with h max(1, |q|) < _SHORT_WINDOW,
    q = z / (1 + z), z = c e^{i psi}, takes the Taylor expansions in h about
    the limits instead; the x-derivatives of log(1 + c e^{ix}) are
    polynomials in q.  With p = q (1 - q), dp/dA = -(1 - 2q) p / R and
    A + B cos psi as (A - B) + 2B cos^2(psi/2) (B >= 0):

        log2 mean = [log(A + B cos psi) - Re(p h^2 (1/3 - (1 - 6p) h^2/60
                    + (1 - 30p + 120p^2) h^4/2520))] / ln 2,
        inverse mean = 1 / (A + B cos psi) + Re((1 - 2q) p h^2 (1/3
                    - (1 - 12p) h^2/60 + (1 - 60p + 360p^2) h^4/2520)) / R.
    """
    A, B, psi = np.broadcast_arrays(A, B, psi)
    a_minus_b = A - B if a_minus_b is None else a_minus_b
    r = np.sqrt(a_minus_b) * np.sqrt(A + B)
    half = 0.5 * A + 0.5 * r  # (A + R)/2, finite where A + R would pass the float range
    c = 0.5 * B / half
    e_x, two_x, cl_x = _window_phase(psi, h) if phase is None else phase
    alpha = np.angle(1.0 + c * e_x)
    del phase, e_x  # 2n complex: freed before the Clausen stack is allocated
    # 2 alpha is in (-pi, pi) already, as Re(1 + c e^{ix}) > 0
    cl = _clausen2(np.stack((2.0 * alpha, _wrap_angle(two_x - 2.0 * alpha))))
    arg_sum = alpha[0] + alpha[1]
    cl_diff = cl_x - cl[0] - cl[1]
    f = 0.5 * (cl_diff[0] + cl_diff[1]) - arg_sum * np.log(np.where(c == 0.0, 1.0, np.abs(c)))
    mean = (np.log(half) - f / h) / _LN2
    with np.errstate(divide="ignore", invalid="ignore"):  # A = B to rounding: R = 0
        inv_mean = (1.0 - arg_sum / h) / r
    if h < _SHORT_WINDOW:
        near, at_psi, q, p = _short_window(a_minus_b, B, psi, c, h)
        h2 = h * h
        poly = 1 / 3 - h2 * ((1 - 6 * p) / 60 - h2 * (1 - 30 * p + 120 * p * p) / 2520)
        mean = np.where(near, (np.log(at_psi) - (p * h2 * poly).real) / _LN2, mean)
        poly = 1 / 3 - h2 * ((1 - 12 * p) / 60 - h2 * (1 - 60 * p + 360 * p * p) / 2520)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_mean = np.where(near, 1.0 / at_psi + ((1.0 - 2.0 * q) * p * h2 * poly).real / r,
                                inv_mean)
    return mean, inv_mean


# The expansion's first omitted term is of order (h |q|)^8 and the Clausen
# form's roundoff of order eps |q| / (h |q|); switching at h |q| = 0.05 keeps
# both near 1e-11 bits.  Every t0*bw >= 1/(20 pi) keeps the Clausen form.
_SHORT_WINDOW = 5e-2


def _short_window(a_minus_b, B, psi, c, h: float):
    """(near, A + B cos psi, q, p) for the short-window expansions of the
    window means, from A - B: near marks the rows with h max(1, |q|) <
    _SHORT_WINDOW."""
    z = c * np.exp(1j * psi)
    q = z / (1.0 + z)
    near = h * np.maximum(1.0, np.abs(q)) < _SHORT_WINDOW
    return near, a_minus_b + 2.0 * B * np.cos(0.5 * psi) ** 2, q, q * (1.0 - q)


def _clausen2_coeffs(n: int):
    """a_k = zeta(2k) / (k (2k+1) (2 pi)^(2k)), k = n .. 1 (Horner order).
    b_k = zeta(2k) / (2 pi)^(2k) starts at b_1 = 1/24 and follows the
    all-positive recurrence (k + 1/2) b_k = sum_{j=1}^{k-1} b_j b_{k-j}."""
    b = [1.0 / 24.0]
    for k in range(2, n + 1):
        b.append(sum(b[j] * b[k - 2 - j] for j in range(k - 1)) / (k + 0.5))
    return tuple(bk / (k * (2 * k + 1)) for k, bk in enumerate(b, 1))[::-1]


# The series' k-th term is about pi 4^-k / (2 k^2) at |t| = pi: 1e-17 at k = 24.
_CL2_COEFFS = _clausen2_coeffs(24)
# 2 pi = P1 + P2 + P3 with P1 and P2 short enough that k P1 and k P2 are exact for
# |k| < 2^22: up to |t| of about 2.6e7 a reduced angle is off by its own rounding
# and by under 3e-29 k, where one subtraction of float 2 pi is off by 2.4e-16 k.
_TWO_PI_PARTS = (6.28125, 0.001935307179337542, 2.4893488687586454e-13)


def _wrap_angle(t):
    """t - 2 pi k in [-pi, pi], k the nearest integer to t / (2 pi)."""
    k = np.rint(t * (0.5 / math.pi))
    p1, p2, p3 = _TWO_PI_PARTS
    return ((t - k * p1) - k * p2) - k * p3


def _clausen2(t):
    """Clausen function Cl2(t) = -int_0^t log|2 sin(s/2)| ds, elementwise
    for t in [-pi, pi] (reduce other angles with _wrap_angle first): with
    u = |t|, Cl2 = sign(t) u (1 - ln u + u^2 P(u^2)) and P(v) = sum_k a_k v^(k-1),
    the Bernoulli series (Lewin, Polylogarithms and Associated Functions, 1981)."""
    u = np.abs(t)
    v = u * u
    p = v * _CL2_COEFFS[0]
    for a in _CL2_COEFFS[1:-1]:
        p += a
        p *= v
    p += _CL2_COEFFS[-1]
    p *= v
    p += 1.0
    p -= np.log(np.where(u > 0.0, u, 1.0))
    return np.copysign(u * p, t)


def _esd_from_gain(g, a1: float, rho0: float):
    """Vector form of the single-stream ISI rate; g is rho0-free squared gain.
    Where rho0 g passes the float range the rate is inf: x is inf/inf there,
    and fmax keeps its NaN out of the bounded second term."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.asarray(g, dtype=float) * rho0
        x = 2.0 * a1 * s / (1.0 + s)
    return np.log2(1.0 + s) + np.log2(1.0 + np.sqrt(np.fmax(1.0 - x * x, 0.0))) - 1.0


def i_esd(alpha_sd, a1, rho0):
    """Single transmitter with adjacent-symbol correlation a1, |a1| < 1/2,
    elementwise over broadcast arrays.

    Frequency-averaging log2(1 + rho0 g (1 + 2 a1 cos w)) gives the closed
    form log2(1 + rho0 g) + log2(1 + sqrt(1 - x^2)) - 1 with
    x = 2 a1 rho0 g / (1 + rho0 g).
    """
    a1 = np.asarray(a1, dtype=float)
    if not np.all(np.abs(a1) < 0.5):
        raise ConfigError(f"|a1| must be < 1/2, got max |a1| = {np.max(np.abs(a1))}")
    return _esd_from_gain(np.abs(alpha_sd) ** 2, a1, rho0)


def i_esd_bounds(alpha_sd, rho0):
    """Envelope of i_esd over all admissible a1: (log2(1+g) - 1, log2(1+g)]."""
    top = np.log1p(rho0 * np.abs(alpha_sd) ** 2) / _LN2
    return top - 1.0, top


@lru_cache(maxsize=128)
def _det_taps(corr: CorrelationSet):
    """(t, p), the snr-free constants of the pair determinant, read-only and
    computed once per pulse pair: the cosine coefficients 0 .. 2 span of
    t11 (the taps r(0) .. r(span), then zeros) and of t11^2 - |t12|^2
    (r * r - g * g over the taps r(-span) .. r(span))."""
    s = corr.span
    r = np.array([corr.r(m) for m in range(-s, s + 1)])
    t = np.pad(r[s:], (0, s))
    p = (np.convolve(r, r) - np.correlate(corr.g_taps, corr.g_taps, "full"))[2 * s:]
    t.flags.writeable = False
    p.flags.writeable = False
    return t, p


def _det_coeffs(g1, g2, corr: CorrelationSet, rho0: float):
    """Cosine coefficients c_0 .. c_2span of det(I + rho0 diag(g1, g2) T(w)),
    one row per pair of squared-gain arrays g1, g2."""
    t, p = _det_taps(corr)
    c = (rho0 * (g1 + g2))[:, None] * t + (rho0 * rho0 * g1 * g2)[:, None] * p
    c[:, 0] += 1.0
    return c


def _emaca_batch(g1, g2, corr: CorrelationSet, rho0: float):
    """Frequency-averaged two-stream rate for arrays of squared gains.

    det(I + rho0 diag(g1, g2) T(w)) = 1 + a t11 + b (t11^2 - |t12|^2), with
    a = rho0 (g1 + g2) and b = rho0^2 g1 g2, is a cosine series
    c_0 + 2 sum_k c_k cos(kw) of degree d <= 2*span: a polynomial q in x = cos w
    with q >= 1 on [-1, 1].  By Jensen's formula its mean log is exactly
    log|c_d| + sum_j Re arccosh(x_j) over the roots x_j of q, found as the
    eigenvalues of the Chebyshev colleague matrix; the principal arccosh is
    the log of the larger-modulus branch of x_j +- sqrt(x_j^2 - 1).  A zero
    gain or a zero top tap lowers d, so rows are grouped by degree.  A
    non-finite coefficient (rho0^2 g1 g2 overflowing) raises NumericError.
    """
    g1 = np.atleast_1d(np.asarray(g1, dtype=float))
    g2 = np.atleast_1d(np.asarray(g2, dtype=float))
    s = corr.span
    with np.errstate(over="ignore", invalid="ignore"):
        c = _det_coeffs(g1, g2, corr, rho0)
    if not np.all(np.isfinite(c)):
        raise NumericError(f"pair-rate coefficients are not finite (rho0={rho0!r})")
    deg = np.max(np.where(c != 0.0, np.arange(2 * s + 1), 0), axis=1)
    out = np.log(np.abs(np.take_along_axis(c, deg[:, None], axis=1)[:, 0]))
    for d in np.unique(deg[deg > 0]):
        rows = deg == d
        m = np.tile(0.5 * (np.eye(d, k=1) + np.eye(d, k=-1)), (np.count_nonzero(rows), 1, 1))
        m[:, 1:2, 0] = 1.0  # basis (T_0/2, T_1, ..., T_{d-1}): x T_1 = 1 (T_0/2) + T_2/2
        m[:, -1, :] -= c[rows, :d] / (2.0 * c[rows, d:d + 1])
        out[rows] += np.arccosh(np.linalg.eigvals(m).astype(complex)).real.sum(axis=1)
    return out / _LN2


def i_af_pair(g1: float, g2: float, rho0: float) -> float:
    """Coherent-sum rate of one forwarded path pair: log2(1 + rho0 (g1 + g2))."""
    return math.log1p(rho0 * (g1 + g2)) / _LN2
