#!/usr/bin/env python3
"""relaylab benchmark: one workload per process, checked outputs, metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and from nowhere else.  The workload repeats its
commands (``relaylab.cli.main`` in-process, ``--workers 1``) until S seconds
have passed, then the output gate runs.  With ``--trace 0`` the last line
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` plain
and traced repetitions alternate, the layer probes run, and the last line
reports the per-layer metrics.  The lines above it echo the environment,
every check and every metric with its unit and sample count.
"""

import os

# One BLAS thread: the body is one process and the determinism check adds a
# second, which keeps the load within two cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import checks
import spans
import workloads as wl
from timing import Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPS = 2          # untraced repetitions per run, whatever --seconds says
MIN_TRACE_CYCLES = 2  # pairs of plain and traced repetitions in a traced run
SETUP_SAMPLES = 5     # this process plus fresh child processes


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


@dataclass
class Setup:
    cli: object
    pulses: dict
    corr: dict
    certs: dict
    seconds: float
    warmup_rc: object


def call(cli, argv, tracer=None):
    """One ``cli.main`` call with stdout captured: (exit code, seconds, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                rc = tracer.call("cli.main", "cli", cli.main, list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - t0, buf.getvalue()


def do_setup(workload: str, seed: int) -> Setup:
    """Import relaylab, build both pulse pairs and certificates, warm up once."""
    if not (SRC / "relaylab" / "__init__.py").is_file():
        raise BenchError(f"no relaylab source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import relaylab.cli as cli
    from relaylab.waveform import certify_pd, correlations, rectangular, srrc
    pulses = {"srrc2": srrc(0.5, span=2), "rect1": rectangular(span=1)}
    corr = {"srrc2": correlations(pulses["srrc2"], 0.3),
            "rect1": correlations(pulses["rect1"], 0.5)}
    certs = {k: certify_pd(c) for k, c in corr.items()}
    rc, _, _ = call(cli, wl.warmup(workload, seed))
    seconds = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"relaylab was imported from {cli.__file__}, not {SRC}")
    return Setup(cli, pulses, corr, certs, seconds, rc)


def setup_in_child(workload: str, seed: int) -> float:
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class Body:
    """Timings and outputs of the repeated workload body."""

    times: dict = field(default_factory=dict)     # command -> raw seconds per untraced rep
    scaled: dict = field(default_factory=dict)    # command -> reference seconds, same reps
    outputs: dict = field(default_factory=dict)   # command -> distinct stdout texts
    # Repetition walls are timed around the whole command loop, harness included,
    # net of the calibrations between commands.
    rep_wall: list = field(default_factory=list)       # raw seconds per untraced rep
    rep_scaled: list = field(default_factory=list)     # reference seconds per untraced rep
    traced_wall: list = field(default_factory=list)    # raw seconds per traced rep
    traced_scaled: list = field(default_factory=list)  # reference seconds per traced rep
    traced_self: list = field(default_factory=list)    # per traced rep: layer -> self s
    traced_total: list = field(default_factory=list)   # per traced rep: span -> inclusive s
    calls: int = 0
    failed_calls: int = 0


def run_body(ctx: Setup, cmds, seconds: float, traced: bool, cal: Calibration) -> Body:
    """Repeat the commands until `seconds` have passed and the minimum is met.

    The calibration runs before the first command and after every command.
    A traced run alternates plain repetitions (the untraced figures) with
    traced ones, so both kinds see the same machine.
    """
    body = Body({c.name: [] for c in cmds}, {c.name: [] for c in cmds},
                {c.name: set() for c in cmds})
    need = 2 * MIN_TRACE_CYCLES if traced else MIN_REPS
    start = time.perf_counter()
    i = 0
    while i < need or time.perf_counter() - start < seconds:
        tracer = spans.Tracer() if traced and i % 2 else None
        originals = spans.install(ctx.cli, tracer) if tracer else {}
        wall = scaled = 0.0
        try:
            before = cal.measure()
            for c in cmds:
                t0 = time.perf_counter()
                rc, dt, out = call(ctx.cli, c.argv, tracer)
                body.calls += 1
                body.failed_calls += rc != 0
                body.outputs[c.name].add(out)
                seg = time.perf_counter() - t0
                after = cal.measure()
                wall += seg
                scaled += cal.scale(seg, before, after)
                if tracer is None:
                    body.times[c.name].append(dt)
                    body.scaled[c.name].append(cal.scale(dt, before, after))
                before = after
        finally:
            spans.uninstall(ctx.cli, originals)
        if tracer is None:
            body.rep_wall.append(wall)
            body.rep_scaled.append(scaled)
        else:
            body.traced_wall.append(wall)
            body.traced_scaled.append(scaled)
            body.traced_self.append(tracer.self_s)
            body.traced_total.append(tracer.total_s)
        i += 1
    return body


def run_checks(ctx: Setup, workload: str, seed: int, cmds, body: Body):
    """The output gate: every command's output, reruns, workers 1 vs 2."""
    results = [checks.check_certificates(ctx.certs),
               ("setup: warm-up call", ctx.warmup_rc == 0, f"exit code {ctx.warmup_rc}")]
    for c in cmds:
        texts = body.outputs[c.name]
        results.append((f"{c.name}: identical across repetitions", len(texts) == 1,
                        f"{len(texts)} distinct outputs"))
        for text in texts:
            try:
                results.extend(checks.output_checks(c, text))
            except (KeyError, IndexError, ValueError) as exc:
                results.append((f"{c.name}: output parses", False, repr(exc)))
    argv = wl.determinism_command(workload, seed)
    if argv is not None:
        rc1, _, out1 = call(ctx.cli, argv)
        argv2 = list(argv)
        argv2[argv2.index("--workers") + 1] = "2"
        rc2, _, out2 = call(ctx.cli, argv2)
        rows1 = checks.parse_csv(out1)[1]
        rows2 = checks.parse_csv(out2)[1]
        results.append(("determinism: workers 1 vs 2, three blocks",
                        rc1 == rc2 == 0 and rows1 == rows2 and len(rows1) == 2,
                        f"exit codes {rc1}/{rc2}, {len(rows1)} rows"))
    return results


# ---------------------------------------------------------------------------
# metrics


def both_trial_snr(cmd) -> float:
    """Exact expected number of both-relays trial*snr points of one MC curve."""
    from relaylab.channel import D_BOTH, NetworkConfig, RatePoint, decoding_set_probs
    if cmd.kind == "mc_d2":
        return float(cmd.trials * len(wl.MC_SNR_DB))
    cfg = NetworkConfig()
    return sum(cmd.trials * decoding_set_probs(cfg, RatePoint(10.0 ** (d / 10.0), wl.R))[D_BOTH]
               for d in wl.MC_SNR_DB)


def time_to_ci(cmd, text, seconds: float) -> float:
    """Seconds to reach a Wilson half-width of 10% at the deepest uncensored point."""
    rows = [r for r in checks.parse_csv(text)[1] if r["censored"] == "0"]
    deep = rows[-1]
    p = float(deep["outage"])
    half = 0.5 * (float(deep["ci_high"]) - float(deep["ci_low"]))
    return seconds * (half / (0.1 * p)) ** 2


def workload_figures(cmds, body: Body) -> list:
    """Workload-scoped end-to-end figures: (name, value, unit, note)."""
    med = {c.name: median(body.scaled[c.name]) for c in cmds}
    reps = len(body.rep_wall)
    figs = []
    for kind, name in (("mc", "mc_rate_mtps"), ("mc_d2", "mc_d2_rate_mtps")):
        sel = [c for c in cmds if c.kind == kind]
        if sel:
            work = sum(c.trials * len(wl.MC_SNR_DB) for c in sel)
            figs.append((name, work / sum(med[c.name] for c in sel) / 1e6, "Mtrial*snr/s",
                         f"{work} trial*snr over {len(sel)} curves, median of {reps} reps"))
    overall = [c for c in cmds if c.kind == "mc"]
    if overall:
        t = sum(time_to_ci(c, next(iter(body.outputs[c.name])), med[c.name]) for c in overall)
        figs.append(("time_to_ci_s", t, "s", f"summed over {len(overall)} overall curves"))
    sel = [c for c in cmds if c.kind == "analytic"]
    if sel:
        figs.append(("slope_table_s", sum(med[c.name] for c in sel), "s",
                     f"{len(sel)} oracle curves with fits, median of {reps} reps"))
    for c in cmds:
        if c.kind == "toeplitz":
            figs.append(("toeplitz_ladder_s", med[c.name], "s",
                         f"n={wl.TOEPLITZ_NS}, median of {reps} reps"))
    return figs


def layer_metrics(ctx: Setup, cmds, body: Body, seed: int, cal: Calibration) -> dict:
    """Per-layer metrics of a traced run: spans of the body plus the probes."""
    out = spans.probe_layers(ctx, seed, cal)
    for layer in ("cli", "outage", "waveform"):
        out[f"{layer}.self_s"] = median(s.get(layer, 0.0) for s in body.traced_self)
    # Each traced repetition against the plain one just before it, in
    # reference seconds: the tracing cost, and the self times net of it over
    # the untraced wall (what the spans miss is the harness around cli.main).
    pairs = list(zip(body.rep_scaled, body.traced_scaled, body.traced_wall,
                     body.traced_self))
    out["trace.overhead_s"] = median(t - p for p, t, _, _ in pairs)
    out["trace.self_sum_share"] = median(
        (sum(s.values()) * t / raw - (t - p)) / p for p, t, raw, s in pairs)
    # Each curve's floor and kernel shares come from its scheme's probes, whose
    # forced and overall curves ran in the same rounds; the workload's shares
    # weight them by the curves' times in the body.
    mc = [c for c in cmds if c.scheme]
    trial_snr = sum(c.trials * len(wl.MC_SNR_DB) for c in mc)
    mc_s = floor = kernel = 0.0
    for c in mc:
        t = median(body.scaled[c.name])
        d0 = out[f"outage.mc_floor_ns.{c.scheme}"]
        both_ns = out[f"mutualinfo.both_kernel_ns.{c.scheme}"]
        whole = out[f"outage.mc_overall_ns.{c.scheme}"] if c.kind == "mc" else d0 + both_ns
        mc_s += t
        floor += t * d0 / whole
        kernel += t * both_ns * both_trial_snr(c) / (c.trials * len(wl.MC_SNR_DB)) / whole
    out["outage.trial_snr"] = trial_snr
    out["channel.both_branch_share"] = (
        sum(both_trial_snr(c) for c in mc) / trial_snr if mc else 0.0)
    out["outage.mc_floor_share"] = floor / mc_s if mc else 0.0
    out["mutualinfo.both_kernel_share"] = kernel / mc_s if mc else 0.0
    return out


def environment(seed: int) -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    rev = "none (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} git={rev} seed={seed}")


def emit(spec_list, values: dict) -> dict:
    missing = [m["name"] for m in spec_list if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_list}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="measure one set-up in this process and print it")
    args = ap.parse_args(argv)
    if args.seed < 0:
        raise BenchError("--seed must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    ctx = do_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": ctx.seconds}))
        return 0
    setup_samples = [ctx.seconds] + [setup_in_child(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES - 1)]

    cmds = wl.commands(args.workload, args.seed)
    traced = bool(args.trace)
    cal = Calibration()
    body = run_body(ctx, cmds, args.seconds, traced, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = run_checks(ctx, args.workload, args.seed, cmds, body)

    print(f"relaylab benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + environment(args.seed))
    for name, ok, detail in results:
        print(f"check {'PASS' if ok else 'FAIL'} {name} ({detail})")
    failed = body.failed_calls + sum(not ok for _, ok, _ in results)
    attempted = body.calls + len(results)
    reps = len(body.rep_wall)
    print(f"metric failed_frac = {failed / attempted!r} "
          f"({failed} failed of {attempted} calls and checks)")

    e2e = {
        "wall_s": sum(median(body.scaled[c.name]) for c in cmds),
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "wall_s": f"reference seconds: sum over {len(cmds)} commands of the median of "
                  f"{reps} reps; raw wall {sum(median(body.times[c.name]) for c in cmds)!r} s, "
                  f"calibration median {median(cal.samples)!r} s of {len(cal.samples)}",
        "setup_s": f"median of {len(setup_samples)} set-ups, {len(setup_samples) - 1} "
                   "in fresh processes",
        "peak_rss_mb": "max resident set after the timed body",
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"metric {name} = {value!r} {units[name]} ({notes[name]})")
    for name, value, unit, note in workload_figures(cmds, body):
        print(f"metric {name} = {value!r} {unit} ({note})")
    for c in cmds:
        ts = body.times[c.name]
        print(f"command {c.name}: median {median(body.scaled[c.name])!r} reference s; raw "
              f"median {median(ts)!r} s, min {min(ts)!r} s, max {max(ts)!r} s, n={len(ts)}")

    if traced:
        layers = layer_metrics(ctx, cmds, body, args.seed, cal)
        n_tr = len(body.traced_wall)
        layer_names = sorted({k for s in body.traced_self for k in s})
        for layer in layer_names:
            print(f"self {layer} = {median(s.get(layer, 0.0) for s in body.traced_self)!r} s "
                  f"(median of {n_tr} traced reps)")
        for span in sorted({k for t in body.traced_total for k in t}):
            print(f"span {span} = {median(t.get(span, 0.0) for t in body.traced_total)!r} s "
                  f"inclusive (median of {n_tr} traced reps)")
        print(f"traced wall {median(body.traced_wall)!r} s, untraced wall "
              f"{median(body.rep_wall)!r} s")
        for name in sorted(layers):
            print(f"layer {name} = {layers[name]!r} {units.get(name, '')}")
        metrics = emit(spec["per_layer"], layers)
    else:
        metrics = emit(spec["end_to_end"], e2e)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
