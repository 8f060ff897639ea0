"""Command line front end.

Every subcommand reads an optional INI config file (section named after the
subcommand), lets explicit flags override it, echoes the fully resolved
configuration as commented key=value lines at the top of its CSV output, and
prints nothing nondeterministic.  dB-to-linear conversion happens here and
nowhere deeper.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import tradeoff as _tradeoff
from .channel import NetworkConfig, POWER_NORM, sample_fading
from .errors import ConfigError, NumericError
from .mutualinfo import DelayConfig, SchemeId, _emaca_batch, i_af_pair
from .outage import (ConditionalCase, analytic_outage_curve, mc_outage, slope_fit,
                     write_csv, write_outage_csv)
from .toeplitz import build_taps, convergence_study
from .tradeoff import band, crossings
from .waveform import certify_pd, correlations, load_waveform, rectangular, srrc


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"snr of {db!r} dB is past the float range") from None


_MAX_GRID_POINTS = 10 ** 5  # most points of an snr or r grid (the largest in use has 26)


def _grid_span(lo, hi, step, what: str):
    """(hi - lo)/step of a grid from lo to hi by step > 0, checked before the
    grid is built: ConfigError when it is infinite or the grid would pass
    _MAX_GRID_POINTS points."""
    span = (hi - lo) / step
    if not span < _MAX_GRID_POINTS:
        raise ConfigError(f"{what} makes a grid of more than {_MAX_GRID_POINTS} points")
    return span


def _parse_grid_db(text: str) -> list[float]:
    """Parse "LO:HI:STEP" (inclusive) or a single dB value."""
    try:
        nums = [float(p) for p in str(text).split(":")]
    except ValueError:
        nums = []
    if len(nums) not in (1, 3) or not all(map(math.isfinite, nums)):
        raise ConfigError(f"snr grid must be 'LO:HI:STEP' or a single dB value, got {text!r}")
    if len(nums) == 1:
        return nums
    lo, hi, step = nums
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad snr grid {text!r}: need step > 0 and hi >= lo")
    n = int(math.floor(_grid_span(lo, hi, step, f"snr grid {text!r}") + 1e-9)) + 1
    return [lo + i * step for i in range(n)]


def _as_int(vals: dict, key: str) -> int:
    try:
        return int(vals[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {vals[key]!r}")


def _as_float(vals: dict, key: str) -> float:
    try:
        v = float(vals[key])
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be a finite number, got {vals[key]!r}")
    return v


def _as_seed(vals: dict) -> int:
    seed = _as_int(vals, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _as_choice(vals: dict, key: str, choices):
    """vals[key] as a member of the string enum `choices`."""
    try:
        return choices(vals[key])
    except ValueError:
        names = ", ".join(c.value for c in choices)
        raise ConfigError(f"{key} must be one of {names}, got {vals[key]!r}")


def _as_bool(vals: dict, key: str) -> bool:
    v = str(vals[key]).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {vals[key]!r}")


def _as_fraction(vals: dict, key: str) -> Fraction:
    try:
        return Fraction(str(vals[key]))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{key} must be a rational like 3/4, got {vals[key]!r}")


_DEFAULTS: dict[str, dict[str, str]] = {
    "tradeoff": {
        "k": "2",
        "schemes": "stc,tda,rtda,ltda,astc,naf,ddf,maf",
        "delta1": "3/4",
        "r_step": "1/50",
        "cross": "auto",
        "out": "",
    },
    "simulate": {
        "scheme": "STC_SYNC",
        "mode": "mc",
        "r": "0.25",
        "snr_db": "0:15:5",
        "trials": "100000",
        "seed": "1",
        "workers": "1",
        "cond": "overall",
        "force_set": "false",
        "sigma2_sd": "1", "sigma2_sr1": "1", "sigma2_sr2": "1",
        "sigma2_r1d": "1", "sigma2_r2d": "1",
        "pulse": "rect", "rolloff": "0.5", "span": "1", "duty": "1.0",
        "samples_per_symbol": "256", "waveform_file": "", "tau": "0.5",
        "t0bw": "2.0",
        "fit_window_db": "",
        "out": "",
    },
    "waveform": {
        "pulse": "srrc", "rolloff": "0.5", "span": "2", "duty": "1.0",
        "samples_per_symbol": "256", "waveform_file": "", "tau": "0.3",
        "pd_tol": "1e-6",
        "out": "",
    },
    "toeplitz": {
        "pulse": "srrc", "rolloff": "0.5", "span": "2", "duty": "1.0",
        "samples_per_symbol": "256", "waveform_file": "", "tau": "0.3",
        "n_list": "1,4,16,64,256",
        "snr_db": "10",
        "seed": "1",
        "rel_tol": "0.05",
        "out": "",
    },
    "compare-capacity": {
        "pulse": "srrc", "rolloff": "0.5", "span": "1", "duty": "1.0",
        "samples_per_symbol": "256", "waveform_file": "", "tau": "0.5",
        "snr_db": "0:30:10",
        "draws": "1000",
        "seed": "1",
        "out": "",
    },
}


def _resolve(cmd: str, ns: argparse.Namespace) -> dict[str, str]:
    """Defaults, then the config file, then flags.  Every command calls it
    first, so an `out` path in a missing directory fails before any work."""
    vals = dict(_DEFAULTS[cmd])
    cfg_path = getattr(ns, "config", None)
    if cfg_path:
        p = Path(cfg_path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        cp = configparser.ConfigParser()
        try:
            cp.read_string(p.read_text())
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {p}: {exc}")
        if cp.has_section(cmd):
            for k, v in cp.items(cmd):
                k = k.replace("-", "_")
                if k not in vals:
                    raise ConfigError(f"unknown key {k!r} in config section [{cmd}]")
                vals[k] = v
    for k in vals:
        cv = getattr(ns, k, None)
        if cv is not None:
            vals[k] = str(cv)
    if vals["out"] and not Path(vals["out"]).parent.is_dir():
        raise ConfigError(f"cannot write out={vals['out']!r}: no such directory")
    return vals


def _write_out(vals: dict, write, *args) -> None:
    """Call write(dest, *args) with dest the `out` path, or stdout when empty.

    A path that cannot be written (missing directory, no permission) is a
    configuration error.
    """
    if not vals["out"]:
        write(sys.stdout, *args)
        return
    try:
        write(vals["out"], *args)
    except OSError as exc:
        raise ConfigError(f"cannot write out={vals['out']!r}: {exc.strerror or exc}")


def _write(cmd: str, vals: dict, columns, rows, version: int = 1) -> None:
    """A command's CSV: `command`, then the resolved configuration, then rows."""
    header = {"command": cmd, **{k: vals[k] for k in sorted(vals)}}
    _write_out(vals, write_csv, f"{cmd}-v{version}", header, columns, rows)


def _build_pulse(vals: dict):
    pulse = vals["pulse"].strip().lower()
    spp = _as_int(vals, "samples_per_symbol")
    span = _as_int(vals, "span")
    if pulse == "rect":
        return rectangular(span=span, samples_per_symbol=spp,
                           duty=_as_float(vals, "duty"))
    if pulse == "srrc":
        return srrc(_as_float(vals, "rolloff"), span=span, samples_per_symbol=spp)
    if pulse == "file":
        if not vals["waveform_file"]:
            raise ConfigError("pulse=file needs waveform_file=PATH")
        return load_waveform(vals["waveform_file"])
    raise ConfigError(f"unknown pulse {vals['pulse']!r}; choose rect, srrc or file")


def _network(vals: dict) -> NetworkConfig:
    return NetworkConfig(
        sigma2_sd=_as_float(vals, "sigma2_sd"),
        sigma2_sr1=_as_float(vals, "sigma2_sr1"),
        sigma2_sr2=_as_float(vals, "sigma2_sr2"),
        sigma2_r1d=_as_float(vals, "sigma2_r1d"),
        sigma2_r2d=_as_float(vals, "sigma2_r2d"),
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tradeoff(ns: argparse.Namespace) -> int:
    vals = _resolve("tradeoff", ns)
    k = _as_int(vals, "k")
    delta1 = _as_fraction(vals, "delta1")
    step = _as_fraction(vals, "r_step")
    if step <= 0:
        raise ConfigError("r_step must be positive")
    schemes = [s.strip() for s in vals["schemes"].split(",") if s.strip()]
    for s in schemes:
        if s not in _tradeoff.SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}")

    rows = []
    for s in schemes:
        try:
            low, high = band(s, k, delta1)
        except ConfigError as exc:
            if k < 1 or k == 2:  # a bad k or delta1, not a k the scheme lacks
                raise
            raise ConfigError(f"scheme {s} has no k={k} curve ({exc}); narrow --schemes, "
                              f"whose default list needs k=2") from None
        lo, hi = low.domain
        n = int(_grid_span(lo, hi, step, f"r_step {vals['r_step']}")) + 1
        grid = {lo + step * i for i in range(n)}
        grid |= set(low.breakpoints) | set(high.breakpoints)
        for r in sorted(g for g in grid if lo <= g <= hi):
            if low.open_right and r >= hi:
                continue
            rows.append([s, k, str(r), str(low.d(r)), str(high.d(r))])

    cross = vals["cross"].strip()
    pairs: list[tuple[str, str]] = []
    if cross == "auto":
        pts = [s for s in schemes if s != "rtda"]
        pairs = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
    elif cross:
        for item in cross.split(","):
            a, _, b = item.partition(":")
            if not b:
                raise ConfigError(f"cross pairs look like a:b, got {item!r}")
            pairs.append((a.strip(), b.strip()))
    reports = [crossings(a, b, k) for a, b in pairs]  # a bad pair fails before any output

    _write("tradeoff", vals, ("scheme", "k", "r", "d_low", "d_high"), rows)
    for rep in reports:
        a, b = rep.scheme_a, rep.scheme_b
        for span_lo, span_hi in rep.coincident:
            print(f"coincident {a} {b}: r in [{span_lo}, {span_hi}]")
        for p in rep.points:
            print(f"crossing {a} {b}: r={p.r} d={p.d} exact={p.exact}")
    return 0


def _cmd_simulate(ns: argparse.Namespace) -> int:
    vals = _resolve("simulate", ns)
    scheme = _as_choice(vals, "scheme", SchemeId)
    cond = _as_choice(vals, "cond", ConditionalCase)
    mode = vals["mode"].strip().lower()
    r = _as_float(vals, "r")
    grid_db = _parse_grid_db(vals["snr_db"])
    snr = [db_to_linear(d) for d in grid_db]
    cfg = _network(vals)
    force = _as_bool(vals, "force_set")

    corr = None
    delays = None
    if scheme in (SchemeId.TDA_LINMOD, SchemeId.ASTC, SchemeId.MIX_AF):
        corr = correlations(_build_pulse(vals), _as_float(vals, "tau"))
    if scheme in (SchemeId.TDA_INDEP, SchemeId.TDA_REPETITION):
        delays = DelayConfig.from_t0bw(_as_float(vals, "t0bw"))

    if mode == "mc":
        curve_ = mc_outage(scheme, r, snr, _as_int(vals, "trials"),
                           _as_seed(vals), cond, cfg=cfg, corr=corr,
                           delays=delays, force_set=force,
                           workers=_as_int(vals, "workers"))
    elif mode == "analytic":
        curve_ = analytic_outage_curve(scheme, r, snr, cond, cfg=cfg, delays=delays,
                                       conditioned=force)
    else:
        raise ConfigError(f"mode must be mc or analytic, got {mode!r}")

    meta = {k: vals[k] for k in sorted(vals)}
    meta["command"] = "simulate"
    _write_out(vals, write_outage_csv, [curve_], meta)

    if vals["fit_window_db"]:
        pts = vals["fit_window_db"].split(":")
        if len(pts) != 2:
            raise ConfigError("fit_window_db looks like LO:HI")
        window = tuple(_as_float({"fit_window_db": p}, "fit_window_db") for p in pts)
        fit = slope_fit(curve_, window)
        print(f"fit scheme={curve_.scheme} cond={curve_.cond.value} r={curve_.r:g} "
              f"slope={fit.slope:.4f} stderr={fit.stderr:.4f} n_used={fit.n_used} "
              f"window_db={window[0]:g}:{window[1]:g}")
    return 0


def _cmd_waveform(ns: argparse.Namespace) -> int:
    vals = _resolve("waveform", ns)
    w = _build_pulse(vals)
    tau = _as_float(vals, "tau")
    corr = correlations(w, tau)
    eig = certify_pd(corr, pd_tol=_as_float(vals, "pd_tol"))
    rows = [
        ["label", w.label],
        ["span", w.span],
        ["tau", repr(tau)],
        ["energy", repr(w.energy)],
        ["a1", repr(corr.a1)],
        ["c0", repr(corr.c0)],
        ["c1", repr(corr.c1)],
        ["c2", repr(corr.c2)],
        ["f1", repr(corr.f1)],
    ]
    if corr.span == 1:
        rows.append(["cs_sum", repr(abs(corr.rho12) + abs(corr.rho21))])
    rows += [
        ["lambda_min", repr(eig.lambda_min)],
        ["lambda_max", repr(eig.lambda_max)],
        ["omega_at_min", repr(eig.omega_at_min)],
        ["pd", int(eig.pd)],
        ["trace_dev", repr(eig.trace_dev)],
    ]
    _write("waveform", vals, ("metric", "value"), rows, version=2)
    return 0


def _cmd_toeplitz(ns: argparse.Namespace) -> int:
    vals = _resolve("toeplitz", ns)
    w = _build_pulse(vals)
    corr = correlations(w, _as_float(vals, "tau"))
    grid_db = _parse_grid_db(vals["snr_db"])
    if len(grid_db) != 1:
        raise ConfigError("toeplitz takes a single snr_db value")
    rho0 = POWER_NORM * db_to_linear(grid_db[0])
    try:
        ns_list = tuple(int(x) for x in vals["n_list"].split(","))
    except ValueError:
        raise ConfigError(f"n_list must be comma-separated ints, got {vals['n_list']!r}")
    rng = np.random.default_rng(_as_seed(vals))
    f = sample_fading(NetworkConfig(), rng)
    taps = build_taps(corr, f.r1d, f.r2d)
    study = convergence_study(taps, ns_list, rho0, rel_tol=_as_float(vals, "rel_tol"))
    rows = [[n, repr(v), repr(study.limit), repr(a), repr(e)]
            for n, v, a, e in zip(study.ns, study.mi, study.abs_err, study.rel_err)]
    _write("toeplitz", vals, ("n", "mi", "limit", "abs_err", "rel_err"), rows)
    return 0


def _cmd_compare_capacity(ns: argparse.Namespace) -> int:
    vals = _resolve("compare-capacity", ns)
    w = _build_pulse(vals)
    corr = correlations(w, _as_float(vals, "tau"))
    grid_db = _parse_grid_db(vals["snr_db"])
    draws = _as_int(vals, "draws")
    if draws < 1:
        raise ConfigError("draws must be >= 1")
    rng = np.random.default_rng(_as_seed(vals))
    z = rng.standard_normal((draws, 4)) * math.sqrt(0.5)
    g1 = z[:, 0] ** 2 + z[:, 1] ** 2
    g2 = z[:, 2] ** 2 + z[:, 3] ** 2
    rows = []
    for db in grid_db:
        rho0 = POWER_NORM * db_to_linear(db)
        isi = _emaca_batch(g1, g2, corr, rho0)
        ref = np.array([i_af_pair(a, b, rho0) for a, b in zip(g1, g2)])
        margin = isi - ref
        wins = int(np.count_nonzero(margin > 0.0))
        rows.append([repr(float(db)), draws, wins, repr(wins / draws),
                     repr(float(margin.min())), repr(float(margin.mean()))])
    _write("compare-capacity", vals, ("snr_db", "draws", "wins", "win_rate",
                                      "min_margin_bits", "mean_margin_bits"), rows)
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


_HELP_NOTES = {
    # argparse reads a value that starts with '-' and is not a plain number as an option
    "snr_db": "LO:HI:STEP or one value, in dB; a grid from a negative dB needs the "
              "= form, --snr-db=-20:40:10; ",
    "k": "relay count; the default --schemes list needs k=2 (rtda and ltda are known "
         "for k=2 only, maf for k=1 and 2); ",
}


def _add_common(p: argparse.ArgumentParser, cmd: str) -> None:
    p.add_argument("--config", help="INI file; section [%s] applies" % cmd)
    for key in _DEFAULTS[cmd]:
        flag = "--" + key.replace("_", "-")
        note = _HELP_NOTES.get(key, "")
        p.add_argument(flag, dest=key, default=None,
                       help=f"{note}default: {_DEFAULTS[cmd][key]!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relaylab",
        description="Two-relay cooperative diversity lab: tradeoff curves, "
                    "outage simulation, waveform certification.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    handlers = {
        "tradeoff": _cmd_tradeoff,
        "simulate": _cmd_simulate,
        "waveform": _cmd_waveform,
        "toeplitz": _cmd_toeplitz,
        "compare-capacity": _cmd_compare_capacity,
    }
    helps = {
        "tradeoff": "emit diversity-multiplexing curves and crossings",
        "simulate": "Monte Carlo or analytic outage curves",
        "waveform": "correlation taps and spectral certification of a pulse",
        "toeplitz": "finite-block rates against the spectral limit",
        "compare-capacity": "ISI-aware rate vs coherent-sum reference",
    }
    for cmd, fn in handlers.items():
        p = sub.add_parser(cmd, help=helps[cmd])
        _add_common(p, cmd)
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
