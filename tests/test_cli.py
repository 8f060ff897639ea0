import argparse
import contextlib
import csv
import hashlib
import io
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relaylab
from relaylab.cli import _DEFAULTS, _MAX_GRID_POINTS, _parse_grid_db, main
from relaylab.errors import ConfigError
from relaylab.waveform import save_waveform, srrc


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


def body_lines(text):
    skip = ("#", "crossing ", "coincident ", "fit ")
    return [ln for ln in text.splitlines()
            if ln and not any(ln.startswith(s) for s in skip)]


def parse_rows(text):
    rows = body_lines(text)
    rdr = csv.reader(io.StringIO("\n".join(rows)))
    header = next(rdr)
    return header, list(rdr)


# ---------------------------------------------------------------------------
# tradeoff


def test_tradeoff_exact_rows_and_crossings(capsys):
    rc, out, _ = run(capsys, "tradeoff", "--k", "2", "--r-step", "1/20")
    assert rc == 0
    assert out.startswith("# schema=tradeoff-v1\n")
    header, rows = parse_rows(out)
    assert header == ["scheme", "k", "r", "d_low", "d_high"]
    table = {(r[0], r[2]): (r[3], r[4]) for r in rows}
    assert table[("stc", "0")] == ("3", "3")
    assert table[("maf", "1/6")] == ("8/3", "8/3")
    assert table[("ddf", "1/4")] == ("9/4", "9/4")
    assert table[("naf", "1/4")] == ("7/4", "7/4")
    # the two headline equalities, exact
    assert "crossing ddf maf: r=1/5 d=12/5 exact=True" in out
    assert "crossing naf maf: r=1/3 d=4/3 exact=True" in out


# sha256 of every line of `tradeoff --k 2` but the `#` header: the CSV body,
# then the coincident and crossing lines; recorded before tradeoff.band
# took over rtda's band and crossings' admit lost its redundant checks
GOLDEN_TRADEOFF_K2 = "5dcc8f7e35d8f829a1d7c931de3753a0cba66625a2379505c010bdad7b098711"


def test_tradeoff_k2_matches_pinned_hash(capsys):
    rc, out, _ = run(capsys, "tradeoff", "--k", "2")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "scheme,k,r,d_low,d_high"
    assert "crossing ddf maf: r=1/5 d=12/5 exact=True" in lines
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_TRADEOFF_K2


def test_tradeoff_k_other_than_2_needs_narrowed_schemes(capsys):
    # the default --schemes list holds rtda and ltda, known for k=2 only
    rc, out, err = run(capsys, "tradeoff", "--k", "1")
    assert (rc, out) == (2, "")
    assert err.startswith("config error: scheme rtda has no k=1 curve")
    assert "narrow --schemes" in err
    rc, _, err = run(capsys, "tradeoff", "--k", "3", "--schemes", "stc,maf")
    assert rc == 2
    assert "scheme maf has no k=3 curve" in err
    rc, out, _ = run(capsys, "tradeoff", "--k", "3", "--schemes", "stc,naf,ddf")
    assert rc == 0
    _, rows = parse_rows(out)
    assert {r[0] for r in rows} == {"stc", "naf", "ddf"}
    assert all(r[1] == "3" for r in rows)
    with pytest.raises(SystemExit):
        main(["tradeoff", "--help"])
    assert "the default --schemes list needs k=2" in " ".join(capsys.readouterr().out.split())


def test_tradeoff_rtda_band_rows(capsys):
    rc, out, _ = run(capsys, "tradeoff", "--schemes", "rtda", "--delta1", "2/3",
                     "--cross", "")
    assert rc == 0
    _, rows = parse_rows(out)
    table = {r[2]: (r[3], r[4]) for r in rows if r[0] == "rtda"}
    assert table["1/10"] == ("21/10", "12/5")


def test_tradeoff_rejects_bad_scheme(capsys):
    rc, _, err = run(capsys, "tradeoff", "--schemes", "bogus")
    assert rc == 2
    assert "config error" in err


def test_entry_exits_quietly_when_stdout_closes_early():
    # `relaylab tradeoff --r-step 1/5000 | head -5`: the reader closes the pipe
    # with most of the output unwritten, which the entry point meets as
    # BrokenPipeError; it exits 1 with nothing on stderr
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relaylab.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", "import relaylab.cli as c; c.entry()",
                             "tradeoff", "--k", "2", "--r-step", "1/5000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = [proc.stdout.readline() for _ in range(5)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head[0] == b"# schema=tradeoff-v1\n"
    assert "Traceback" not in err
    assert err == ""


@pytest.mark.parametrize("pair", ["stc", "stc:zzz", "stc:rtda"])
def test_tradeoff_bad_cross_pair_writes_nothing(capsys, tmp_path, pair):
    rc, out, err = run(capsys, "tradeoff", "--cross", pair)
    assert (rc, out) == (2, "")
    assert err.startswith("config error:")
    dest = tmp_path / "t.csv"
    rc, out, _ = run(capsys, "tradeoff", "--cross", pair, "--out", str(dest))
    assert (rc, out) == (2, "")
    assert not dest.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_mc_deterministic_body(tmp_path, capsys):
    args = ("simulate", "--scheme", "STC_SYNC", "--r", "0.25", "--trials",
            "20000", "--seed", "5", "--snr-db", "0:10:5")
    rc, out1, _ = run(capsys, *args, "--workers", "1")
    rc2, out2, _ = run(capsys, *args, "--workers", "2")
    assert rc == rc2 == 0
    assert body_lines(out1) == body_lines(out2)
    header, rows = parse_rows(out1)
    assert header[:5] == ["scheme", "r", "cond", "snr_db", "outage"]
    assert [r[3] for r in rows] == ["0.0", "5.0", "10.0"]


# sha256 of the outage-v1 body (column row plus data rows, joined by "\n") of
# `simulate --trials 75536 --snr-db 0:30:10` (two full Monte Carlo blocks and
# a partial one, seed 1, r 0.25), recorded when the engine first drew all
# five squared gains as exponentials and the relays' phase difference as one
# uniform; a change to the draws, the decoding sets or any MI kernel's float
# operations moves them
GOLDEN_MC_BODIES = {
    "STC_SYNC": (("--scheme", "STC_SYNC"),
                 "4e71c56e4a1d3548b5e7789d4839964941afcc01b2ce11dc9c9665b29e52c04f"),
    "STC_SYNC-d2": (("--scheme", "STC_SYNC", "--cond", "d2", "--force-set", "true"),
                    "bc0a62e6b4a5df365ccf47908dc901afc6a3720ebdc853bb20aabbf519bb81d5"),
    "TDA_LINMOD-rect1": (("--scheme", "TDA_LINMOD", "--pulse", "rect", "--span", "1",
                          "--tau", "0.5"),
                         "0b543c27ff730258b6a4240e10b785a08747143e48f35b4d6171c48ed2a82184"),
    "ASTC-srrc2": (("--scheme", "ASTC", "--pulse", "srrc", "--span", "2", "--tau", "0.3"),
                   "56bc4feccf04a02263a66a264fece83b1880717947b13719f8a6a9e9e324d9ac"),
    "MIX_AF-rect1": (("--scheme", "MIX_AF", "--pulse", "rect", "--span", "1", "--tau", "0.5"),
                     "7034cbc3ee34c0abe1410550640416106b97e8db1608c1d37e651ad9915143be"),
    "TDA_INDEP-t0bw2.5": (("--scheme", "TDA_INDEP", "--t0bw", "2.5"),
                          "3a523d0541d6711a28ad7cbd6926500187e0c09dd5622bf0034fbfb8600255a4"),
    "TDA_INDEP-t0bw0": (("--scheme", "TDA_INDEP", "--t0bw", "0"),
                        "7df4928aacc742028352a36110663d99e90004de234e3e9a82974afc7bd2ae53"),
    "TDA_REPETITION-t0bw2.5": (("--scheme", "TDA_REPETITION", "--t0bw", "2.5"),
                               "6d5625d82755755c8477e5a3c8cc8ad744589364ae0761ac76cf72c87ddea037"),
}

# the same bodies on the earlier exponential-and-normal sampler
# (conftest.exp_normal_draw_gains), recorded before the engine drew the relay
# pair as two exponentials and a phase and before STC_SYNC and TDA_LINMOD
# decided in the gain domain: the engine downstream of the draws still
# reproduces them bit for bit
EXP_NORMAL_SAMPLER_MC_BODIES = {
    "STC_SYNC": "7b934769bcc0acb5e88faf5b3fb40bf609f6838535b46d220edf1eaa2751af49",
    "STC_SYNC-d2": "5b05a2e92f178d8f8548823c749627e721154a4f30476e5d314e52604382f5fe",
    "TDA_LINMOD-rect1": "4a2f27e8d5c0a613ab25bde12c77d14d22863715ef1b536dc4f47b69156c8a43",
    "ASTC-srrc2": "e690edace4ca8cf67230e3682687d07905ec5379b7d43eb746d6113f98249aaf",
    "MIX_AF-rect1": "2c8207d018fb4038ed6402e1bdd0bb83b971a6af52688df3da81e4b95bd9622e",
    "TDA_INDEP-t0bw2.5": "407f603554b4ec593bb1a472e9ce70dc702d8a3c710fcc41e825b0c5803bf8a1",
    "TDA_INDEP-t0bw0": "26afe53c68e6ca09dfd667d09836c331e8460b4b3f376ae125abe458cee407cd",
    "TDA_REPETITION-t0bw2.5": "dc373146482282ed96e1366a821f2d19853e3cdd8c5e7aec26db502ed46334db",
}

# and on the first, all-normal sampler (conftest.normal_draw_gains), recorded
# before the engine read one link record per block
NORMAL_SAMPLER_MC_BODIES = {
    "STC_SYNC": "bb3b92ad17dbd8ec3599b8f5665d0de0f1779cb52f5bf1ca3003a9e7926e189f",
    "STC_SYNC-d2": "8ec15bf3f9a10c2251d7591ab9c515d6127e5fad0ad64d3e151e962dda1f0018",
    "TDA_LINMOD-rect1": "e09f78fb472cd17fa3e484306a496dbcf44aa718da15affb695449741e6a097f",
    "ASTC-srrc2": "9b07946f275b2bc54b5c9086d88293a65597e5cdf9bb6ebcf5f531699dfb9e57",
    "MIX_AF-rect1": "c73ef6d25ec867a21e3a13ac8a6520cbd44fc2d4abc81672d4951f4b74b7f13a",
    "TDA_INDEP-t0bw2.5": "5d5cd84a98b238b040385f1ad6432e025a86cb9228798727a642ccd8f3adde40",
    "TDA_INDEP-t0bw0": "e8bee20da43334039b035bc583b3d09ecc850dd087c6af6878b846baf84903f0",
    "TDA_REPETITION-t0bw2.5": "9872d35a4c54678698f5579b4fa5b20b8fa170ce1285f4b3160f3399a7751cf9",
}


def mc_body_digest(capsys, args):
    rc, out, _ = run(capsys, "simulate", "--trials", str(2 * 32768 + 10 ** 4),
                     "--snr-db", "0:30:10", *args)
    assert rc == 0
    body = body_lines(out)
    assert len(body) == 1 + 4
    return hashlib.sha256("\n".join(body).encode()).hexdigest()


@pytest.mark.parametrize("args, digest", GOLDEN_MC_BODIES.values(), ids=GOLDEN_MC_BODIES.keys())
def test_simulate_mc_bodies_match_pinned_hashes(capsys, args, digest):
    assert mc_body_digest(capsys, args) == digest


@pytest.mark.parametrize("case", NORMAL_SAMPLER_MC_BODIES)
def test_simulate_mc_bodies_on_the_normal_sampler(capsys, normal_sampler, case):
    assert mc_body_digest(capsys, GOLDEN_MC_BODIES[case][0]) == NORMAL_SAMPLER_MC_BODIES[case]


@pytest.mark.parametrize("case", EXP_NORMAL_SAMPLER_MC_BODIES)
def test_simulate_mc_bodies_on_the_exp_normal_sampler(capsys, exp_normal_sampler, case):
    assert mc_body_digest(capsys, GOLDEN_MC_BODIES[case][0]) == EXP_NORMAL_SAMPLER_MC_BODIES[case]


def test_simulate_where_the_direct_cut_passes_the_float_range(capsys):
    # TDA_INDEP's 1/t0bw margin takes the direct-gain cut's 2^(2R + 2m) past
    # the float range here: the cut keeps every row, rho0 g_sd overflows on
    # some of them without a RuntimeWarning, and the body is the one recorded
    # before the engine had the cut
    rc, out, _ = run(capsys, "simulate", "--scheme", "TDA_INDEP", "--t0bw", "1e-6",
                     "--r", "0.4999", "--sigma2-sd", "1e6", "--snr-db", "3020",
                     "--trials", "10000", "--workers", "1")
    assert rc == 0
    assert body_lines(out)[1:] == ["TDA_INDEP,0.4999,overall,3020.0,0.7283,"
                                   "0.7194947767758773,0.7369298831267743,10000,0"]


# (scheme, snr dB, forced d2, body row) at the edge of the float range:
# r 0.4999, sigma2_sd 1e6, 10^4 trials, SRRC span 2 at tau 0.3 for the ISI
# schemes and t0 bw 1e-6 for TDA_INDEP.  Each row is the one recorded before
# ASTC and MIX_AF had a direct-gain cut, but for their forced d2 runs at
# 3020 dB, which then exited 3: rho0 g_sd overflowed on some rows, whose NaN
# ISI rate sent them to the pair kernel, where rho0^2 g1 g2 overflows.
# Those rows lie above the cut and never reach the kernel now, and the lower
# bound clears every row left.
FLOAT_EDGE_RUNS = [
    ("ASTC", 3000, False, "0.7364,0.7276749367012164,0.7449435021992957,10000,0"),
    ("ASTC", 3000, True, "0.0,0.0,0.0003,10000,1"),
    ("ASTC", 3020, False, "0.7363,0.7275739243958989,0.7448445913071086,10000,0"),
    ("ASTC", 3020, True, "0.0,0.0,0.0003,10000,1"),
    ("MIX_AF", 3000, False, "0.7284,0.7195957439392596,0.7370288391608967,10000,0"),
    ("MIX_AF", 3000, True, "0.0,0.0,0.0003,10000,1"),
    ("MIX_AF", 3020, False, "0.7283,0.7194947767758773,0.7369298831267743,10000,0"),
    ("MIX_AF", 3020, True, "0.0,0.0,0.0003,10000,1"),
    ("TDA_INDEP", 3020, True, "0.0,0.0,0.0003,10000,1"),
]


@pytest.mark.parametrize("scheme, db, forced, row", FLOAT_EDGE_RUNS,
                         ids=[f"{s}-{db}{'-d2' if f else ''}" for s, db, f, _ in FLOAT_EDGE_RUNS])
def test_simulate_at_the_float_edge_exits_as_pinned(capsys, scheme, db, forced, row):
    # rho0 g_sd passes the float range on some rows: no RuntimeWarning, exit
    # 0 and the pinned body
    args = (("--t0bw", "1e-6") if scheme == "TDA_INDEP" else
            ("--pulse", "srrc", "--span", "2", "--tau", "0.3"))
    if forced:
        args += ("--cond", "d2", "--force-set", "true")
    rc, out, _ = run(capsys, "simulate", "--scheme", scheme, *args, "--r", "0.4999",
                     "--sigma2-sd", "1e6", "--snr-db", str(db), "--trials", "10000",
                     "--workers", "1")
    cond = "d2" if forced else "overall"
    assert (rc, body_lines(out)[1:]) == (0, [f"{scheme},0.4999,{cond},{db}.0,{row}"])


# sha256 of the outage-v1 body of `simulate --mode analytic --r 0.25
# --snr-db 40:80:5`: the four oracle curves of the benchmark's deep-analytic
# workload and one forced single-relay curve, recorded before the oracles
# composed their cases from Pr[out | D]; a change to an oracle's float
# operations or to the order of its sum over decoding sets moves them
GOLDEN_ANALYTIC_BODIES = {
    "STC_SYNC": (("--scheme", "STC_SYNC"),
                 "0fab7eb393934c57ee4b977dcc46e05bbc0fd0f16d4d240204b9a63ab1278422"),
    "ASTC-srrc2-d2": (("--scheme", "ASTC", "--pulse", "srrc", "--span", "2", "--tau", "0.3",
                       "--cond", "d2"),
                      "f8684413aa4dee4377ab273809c5883c337e719980c8c8289f0ac787b1444ed8"),
    # re-pinned when every t0bw took one rule over the level's whole-period
    # mean: two values moved (40 and 55 dB), by 2.7e-16 relative at most
    "TDA_REPETITION-d2-t0bw2.5": (
        ("--scheme", "TDA_REPETITION", "--cond", "d2", "--t0bw", "2.5"),
        "68a51cd78c1901d6529679d9246c7d186f2725cadbb73f195b386a54d628c054"),
    # re-pinned then too, as the final sums run per line: five values moved
    # (40, 50, 60, 70 and 80 dB), by 2.7e-16 relative at most
    "TDA_REPETITION-d2-t0bw2": (
        ("--scheme", "TDA_REPETITION", "--cond", "d2", "--t0bw", "2"),
        "02ed54d9bc2f48dad2f099767b341030dabae99e6d14517f721cd965e24549a2"),
    "STC_SYNC-d1-forced": (("--scheme", "STC_SYNC", "--cond", "d1", "--force-set", "true"),
                           "a690508c227f457e586d1ef12219a2bb9fc7cd5955569071818ef2df3a113020"),
}


@pytest.mark.parametrize("args, digest", GOLDEN_ANALYTIC_BODIES.values(),
                         ids=GOLDEN_ANALYTIC_BODIES.keys())
def test_simulate_analytic_bodies_match_pinned_hashes(capsys, args, digest):
    rc, out, _ = run(capsys, "simulate", "--mode", "analytic", "--r", "0.25",
                     "--snr-db", "40:80:5", *args)
    assert rc == 0
    body = body_lines(out)
    assert len(body) == 1 + 9
    assert hashlib.sha256("\n".join(body).encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", ["mc", "analytic"])
def test_force_set_overall_is_config_error(capsys, mode):
    # a forced decoding set needs a specific case in both modes
    rc, out, err = run(capsys, "simulate", "--mode", mode, "--force-set", "true",
                       "--trials", "10000", "--snr-db", "10")
    assert (rc, out) == (2, "")
    assert err.startswith("config error:")
    assert "force_set requires a specific decoding-set case" in err


def test_simulate_analytic_to_file_with_fit(tmp_path, capsys):
    dest = tmp_path / "stc.csv"
    rc, out, _ = run(capsys, "simulate", "--scheme", "STC_SYNC", "--mode",
                     "analytic", "--r", "0.1", "--snr-db", "40:80:5",
                     "--fit-window-db", "40:80", "--out", str(dest))
    assert rc == 0
    assert "fit scheme=STC_SYNC" in out  # fit goes to stdout
    text = dest.read_text()
    assert "fit scheme" not in text  # ... not into the artifact
    _, rows = parse_rows(text)
    assert len(rows) == 9
    vals = [float(r[4]) for r in rows]
    assert vals == sorted(vals, reverse=True)
    assert "slope=2.38" in out


def test_negative_snr_grid_needs_the_equals_form(capsys):
    # argparse reads "-20:40:10" after a space as an option, not as a value
    rc, out, _ = run(capsys, "simulate", "--mode", "analytic", "--r", "0.1",
                     "--snr-db=-20:40:10")
    assert rc == 0
    assert len(body_lines(out)) == 1 + 7
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relaylab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "relaylab.cli", "simulate", "--mode", "analytic",
                           "--r", "0.1", "--snr-db", "-20:40:10"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "--snr-db: expected one argument" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ("--r", "0.49", "--snr-db", "3000"),
    ("--sigma2-sr1", "0.8", "--sigma2-sr2", "1.3", "--sigma2-r1d", "0.6", "--sigma2-r2d", "2.0",
     "--r", "0.1", "--snr-db", "3000", "--t0bw", "2.5"),
    ("--t0bw", "2.5", "--r", "0.49", "--snr-db", "3000"),
    ("--t0bw", "1.0000001", "--r", "0.49", "--snr-db", "2000"),
    ("--t0bw", "2.5", "--r", "0.25", "--snr-db=-100"),
    ("--t0bw", "2.5", "--r", "0.25", "--sigma2-sd", "1e-6", "--snr-db=-40"),
    ("--t0bw", "2.5", "--r", "0.25", "--snr-db=-150"),
], ids=["whole-period", "fractional", "fractional-r0.49", "near-whole-2000dB",
        "fractional-minus100dB", "fractional-weak-direct", "fractional-minus150dB"])
def test_rtda2_extreme_snr_prints_no_warning(args):
    # At 2000-3000 dB (2T)^2, T^2 and T^(1/delta1) pass the float range and
    # T / rho0 is down to 1e-240.  At -100 dB, and at -40 dB with a weak
    # direct link, ln T is near 5e-11, and at -150 dB near 5e-16: there
    # every level, the upper limits' included, takes the series of its
    # window mean.  Each runs without a warning.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relaylab.__file__)))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "relaylab.cli", "simulate",
                           "--mode", "analytic", "--scheme", "TDA_REPETITION", "--cond", "d2",
                           *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(body_lines(proc.stdout)) == 1 + 1


@pytest.mark.parametrize("scheme", ["TDA_INDEP", "TDA_REPETITION"])
def test_delay_window_mc_at_3000_db_prints_no_warning(scheme):
    # At 3000 dB rho0 g passes 1e154, where (A - B)(A + B) would overflow
    # while each factor is finite; the window root takes them apart
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relaylab.__file__)))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "relaylab.cli", "simulate",
                           "--scheme", scheme, "--t0bw", "2.5", "--trials", "10000",
                           "--snr-db", "3000", "--workers", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(body_lines(proc.stdout)) == 1 + 1


@pytest.mark.parametrize("args", [
    ("--mode", "analytic", "--scheme", "TDA_REPETITION", "--cond", "d2"),
    ("--mode", "analytic", "--scheme", "STC_SYNC"),
    ("--mode", "analytic", "--scheme", "ASTC", "--cond", "d2"),
    ("--mode", "mc", "--scheme", "STC_SYNC", "--trials", "10000"),
], ids=lambda a: " ".join(a[1:4:2]))
def test_rate_target_past_the_float_range_is_config_error(args):
    # snr * sigma2_sd = 1e308 * 1e6 is inf, and so would be the rate target:
    # every mode refuses it before it runs
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relaylab.__file__)))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "relaylab.cli", "simulate", *args,
                           "--r", "0.1", "--sigma2-sd", "1e6", "--snr-db", "3080"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("config error: snr * sigma2_sd")
    assert "Traceback" not in proc.stderr


def test_delay_runs_load_no_scipy_special():
    # The window means take real Clausen functions, not scipy.special.spence,
    # and only the Toeplitz ladder reads scipy.linalg: in a fresh interpreter
    # a Monte Carlo TDA_INDEP curve, a fractional-t0bw rtda2 point, tradeoff
    # and waveform leave scipy.special and scipy.linalg unloaded, and toeplitz
    # then loads scipy.linalg and runs
    code = ("import contextlib, io, sys\n"
            "from relaylab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rcs = (main(['simulate', '--scheme', 'TDA_INDEP', '--t0bw', '2.5',\n"
            "                 '--trials', '10000', '--snr-db', '0:20:10']),\n"
            "           main(['simulate', '--mode', 'analytic', '--scheme', 'TDA_REPETITION',\n"
            "                 '--cond', 'd2', '--t0bw', '2.5', '--snr-db', '40']),\n"
            "           main(['tradeoff', '--k', '2']), main(['waveform']))\n"
            "    loaded = ['scipy.special' in sys.modules, 'scipy.linalg' in sys.modules]\n"
            "    rcs += (main(['toeplitz']),)\n"
            "print(rcs, *loaded, 'scipy.linalg' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relaylab.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["(0,", "0,", "0,", "0,", "0)", "False", "False", "True"]


def test_tradeoff_figure_script_rows(run_script):
    out, err = run_script("tradeoff_figure.py", "--points", "3")
    assert out.startswith("# schema=tradeoff_figure-v1\n")
    header, rows = parse_rows(out)
    assert header == ["scheme", "r", "d_low", "d_high"]
    assert [r[0] for r in rows] == [s for s in ("stc", "tda", "rtda", "ltda", "astc", "naf",
                                                "ddf", "maf") for _ in range(3)]
    assert "# crossing maf/ddf: r=1/5 d=12/5 exact=True" in err


def test_toeplitz_convergence_script_rows(run_script):
    out, err = run_script("toeplitz_convergence.py", "--seeds", "2", "--n-list", "4,16")
    assert out.startswith("# schema=toeplitz_convergence-v1\n")
    header, rows = parse_rows(out)
    assert header == ["seed", "n", "mi", "limit", "rel_err"]
    assert [r[:2] for r in rows] == [["0", "4"], ["0", "16"], ["1", "4"], ["1", "16"]]
    assert err.startswith("# worst final rel err over 2 seeds:")


def test_simulate_analytic_requires_known_oracle(capsys):
    rc, _, err = run(capsys, "simulate", "--scheme", "TDA_LINMOD", "--mode",
                     "analytic", "--r", "0.1", "--snr-db", "0:20:5")
    assert rc == 2
    rc, _, err = run(capsys, "simulate", "--scheme", "ASTC", "--mode",
                     "analytic", "--cond", "d1", "--r", "0.1",
                     "--snr-db", "0:20:5")
    assert rc == 2
    assert "d2" in err


def test_simulate_fit_refusal_is_numeric_failure(capsys):
    rc, _, err = run(capsys, "simulate", "--scheme", "STC_SYNC", "--mode",
                     "analytic", "--r", "0.1", "--snr-db", "40:50:5",
                     "--fit-window-db", "40:50")
    assert rc == 3
    assert "numeric failure" in err


@pytest.mark.parametrize("args", [
    ("toeplitz", "--snr-db", "3000", "--n-list", "1,2"),
    ("compare-capacity", "--snr-db", "3000", "--draws", "4"),
], ids=lambda a: " ".join(a))
def test_pair_rate_overflow_is_numeric_failure(capsys, args):
    # rho0^2 g1 g2 passes 1e308 in the pair rate's cosine coefficients
    rc, _, err = run(capsys, *args)
    assert rc == 3
    assert "numeric failure" in err


def test_simulate_rejects_out_of_range_rate(capsys):
    rc, _, err = run(capsys, "simulate", "--scheme", "STC_SYNC", "--r", "0.8",
                     "--trials", "10000", "--snr-db", "0:10:5")
    assert rc == 2


# ---------------------------------------------------------------------------
# waveform and toeplitz


def test_waveform_metrics_rect_half_delay(capsys):
    rc, out, _ = run(capsys, "waveform", "--pulse", "rect", "--span", "1",
                     "--tau", "0.5")
    assert rc == 0
    _, rows = parse_rows(out)
    m = dict(rows)
    assert m["pd"] == "0"
    assert float(m["a1"]) == pytest.approx(0.0, abs=1e-12)
    assert float(m["c0"]) == pytest.approx(0.5, abs=1e-12)
    assert float(m["cs_sum"]) == pytest.approx(1.0, abs=1e-12)
    assert abs(float(m["omega_at_min"])) < 0.01
    assert float(m["lambda_max"]) <= 6.0 + 1e-9


def test_waveform_from_file(tmp_path, capsys):
    p = tmp_path / "pulse.txt"
    save_waveform(srrc(0.5, 1, 64), p)
    rc, out, _ = run(capsys, "waveform", "--pulse", "file", "--waveform-file",
                     str(p), "--tau", "0.5")
    assert rc == 0
    assert out.startswith("# schema=waveform-v2\n")
    m = dict(parse_rows(out)[1])
    assert list(m) == ["label", "span", "tau", "energy", "a1", "c0", "c1", "c2", "f1",
                       "cs_sum", "lambda_min", "lambda_max", "omega_at_min", "pd", "trace_dev"]
    assert m["pd"] == "1"
    assert float(m["lambda_min"]) > 0.05
    # a header grid below the minimum is a config error, checked before the
    # energy divides by it (0 used to raise ZeroDivisionError, -64 "zero energy")
    text = p.read_text()
    for spp in ("0", "-64"):
        p.write_text(text.replace("# samples_per_symbol=64\n", f"# samples_per_symbol={spp}\n"))
        rc, _, err = run(capsys, "waveform", "--pulse", "file", "--waveform-file",
                         str(p), "--tau", "0.5")
        assert rc == 2, spp
        assert "samples_per_symbol must be an integer >= 64" in err, spp


def test_toeplitz_convergence_rows(capsys):
    rc, out, _ = run(capsys, "toeplitz", "--pulse", "srrc", "--span", "2",
                     "--tau", "0.3", "--n-list", "4,16,64", "--seed", "1",
                     "--snr-db", "10", "--samples-per-symbol", "64")
    assert rc == 0
    _, rows = parse_rows(out)
    assert [r[0] for r in rows] == ["4", "16", "64"]
    errs = [float(r[4]) for r in rows]
    assert errs[-1] < 0.05
    assert errs[0] >= errs[-1]


def test_toeplitz_reaches_large_blocks(capsys):
    # the banded factor makes n = 10^5 a fraction of a second
    rc, out, _ = run(capsys, "toeplitz", "--n-list", "64,1024,100000",
                     "--samples-per-symbol", "64")
    assert rc == 0
    _, rows = parse_rows(out)
    assert [r[0] for r in rows] == ["64", "1024", "100000"]
    assert float(rows[-1][4]) < 1e-5


def test_toeplitz_unreachable_tolerance(capsys):
    rc, _, err = run(capsys, "toeplitz", "--pulse", "srrc", "--span", "2",
                     "--tau", "0.3", "--n-list", "2,4", "--rel-tol", "1e-9",
                     "--samples-per-symbol", "64")
    assert rc == 3
    assert "numeric failure" in err
    assert "(rel_tol 1e-09)" in err  # the stated tolerance, not a rounded percentage


def test_compare_capacity_all_wins(capsys):
    rc, out, _ = run(capsys, "compare-capacity", "--draws", "200", "--seed", "2",
                     "--snr-db", "0:30:10", "--samples-per-symbol", "64")
    assert rc == 0
    _, rows = parse_rows(out)
    assert len(rows) == 4
    for row in rows:
        assert row[1] == row[2] == "200"  # draws == wins
        assert float(row[3]) == 1.0
        assert float(row[4]) > 0.0


# ---------------------------------------------------------------------------
# config file resolution


def test_config_file_and_flag_precedence(tmp_path, capsys):
    ini = tmp_path / "lab.ini"
    ini.write_text("[simulate]\nscheme = STC_SYNC\nr = 0.25\ntrials = 20000\n"
                   "seed = 5\nsnr-db = 0:10:5\n")
    rc, out, _ = run(capsys, "simulate", "--config", str(ini))
    assert rc == 0
    assert "# r=0.25" in out
    # flags override the file
    rc, out2, _ = run(capsys, "simulate", "--config", str(ini), "--r", "0.3")
    assert rc == 0
    assert "# r=0.3" in out2


def test_config_unknown_key(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[simulate]\nbogus_knob = 1\n")
    rc, _, err = run(capsys, "simulate", "--config", str(ini))
    assert rc == 2
    assert "bogus_knob" in err


def test_toeplitz_takes_no_node_count(tmp_path, capsys):
    # the spectral limit is exact, so quad_points is no longer a toeplitz key
    ini = tmp_path / "old.ini"
    ini.write_text("[toeplitz]\nquad_points = 2048\n")
    rc, _, err = run(capsys, "toeplitz", "--config", str(ini))
    assert rc == 2
    assert "quad_points" in err


def test_waveform_takes_no_node_count(tmp_path, capsys):
    # the eigenvalue extremes are exact, so omega_points is no longer a waveform key
    with pytest.raises(SystemExit) as exc:
        main(["waveform", "--omega-points", "4096"])
    assert exc.value.code == 2
    ini = tmp_path / "old.ini"
    ini.write_text("[waveform]\nomega_points = 4096\n")
    rc, _, err = run(capsys, "waveform", "--config", str(ini))
    assert rc == 2
    assert "omega_points" in err


def test_config_missing_file(capsys):
    rc, _, err = run(capsys, "simulate", "--config", "/does/not/exist.ini")
    assert rc == 2


def test_grid_cap_is_exact():
    assert len(_parse_grid_db(f"0:{_MAX_GRID_POINTS - 1}:1")) == _MAX_GRID_POINTS
    with pytest.raises(ConfigError, match="more than"):
        _parse_grid_db(f"0:{_MAX_GRID_POINTS}:1")


def test_grid_parse_single_point(capsys):
    rc, out, _ = run(capsys, "simulate", "--scheme", "STC_SYNC", "--mode",
                     "analytic", "--r", "0.1", "--snr-db", "10")
    assert rc == 0
    _, rows = parse_rows(out)
    assert len(rows) == 1 and rows[0][3] == "10.0"


# ---------------------------------------------------------------------------
# the front door: one parser per process


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    # main parses with the parser built at import: two calls construct no
    # ArgumentParser, subparsers included, and never call build_parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr("relaylab.cli.build_parser", refuse)
    for _ in range(2):
        rc, out, _ = run(capsys, "tradeoff", "--k", "2", "--schemes", "stc,maf")
        assert rc == 0 and "crossing stc maf" in out
    assert built == []


# sha256 of each `--help` text at COLUMNS=80, recorded on Python 3.11 when
# each subcommand still built its own parser on every main call
HELP_DIGESTS = {
    "": "16a203f1651fa2de88a8e51f17cd6fe755915947b1ea337ff99d1dff43b603d7",
    "tradeoff": "db451a5460b94c8e5631cd799b1d81e7cd66c53b410c0939153c209a4799ffd3",
    "simulate": "f5c9329fea49d31793f352ca8680d2e25d11784771e17f6c8b3f179b7d8acec0",
    "waveform": "f1292114570203142b66a0d14acc5cd0e7816b1a2f8e04cd381664ecc4d297e8",
    "toeplitz": "2ca2f5babea79a2be1a525f50865a92e829bfaf9499bf1077bb3e4d7e47b19fa",
    "compare-capacity": "4b1114da3d4cad3bc8a78870c9ea1198d0f9080df0f1363f6fc342a46df3d251",
}


@pytest.mark.parametrize("cmd", HELP_DIGESTS, ids=lambda c: c or "relaylab")
def test_help_matches_pinned_hash(capsys, monkeypatch, cmd):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"] if cmd else ["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[cmd]


def _exit_code(argv):
    """main(argv)'s return value, or the code of the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_one_process_prints_what_each_command_prints_alone(capsys, monkeypatch):
    # One parser serves a run of commands, a parse error and a --help exit
    # among them, and leaves no trace from one to the next: each prints
    # what a fresh process running it alone prints
    argvs = (["tradeoff", "--k", "2"],
             ["simulate", "--mode", "analytic", "--r", "0.1", "--snr-db", "40:60:10"],
             ["simulate", "--bogus", "1"],
             ["simulate", "--help"],
             ["simulate", "--trials", "10000", "--snr-db", "0"])
    monkeypatch.setenv("COLUMNS", "80")
    together = []
    for argv in argvs:
        rc = _exit_code(argv)
        out = capsys.readouterr()
        together.append((rc, out.out, out.err))
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(relaylab.__file__)))
    alone = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "relaylab.cli", *argv],
                              capture_output=True, text=True, env=env)
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [t[0] for t in together] == [0, 0, 2, 0, 0]
    assert together == alone


# ---------------------------------------------------------------------------
# bad input: exit 2 (config) or 3 (numeric), never a traceback


@pytest.mark.parametrize("args", [
    ("simulate", "--scheme", "BOGUS"),
    ("simulate", "--cond", "d5"),
    ("simulate", "--trials", "10000", "--snr-db", "0", "--fit-window-db", "a:b"),
    ("simulate", "--trials", "10000", "--snr-db", "0", "--seed", "-1"),
    ("toeplitz", "--seed", "-1", "--n-list", "1"),
    ("compare-capacity", "--seed", "-1", "--draws", "1"),
    ("waveform", "--pulse", "srrc", "--span", "-1"),
    ("toeplitz", "--pulse", "srrc", "--span", "-1"),
    ("compare-capacity", "--pulse", "srrc", "--span", "-1"),
    ("toeplitz", "--snr-db", "nan"),
    ("toeplitz", "--snr-db", "1e6"),
    ("toeplitz", "--n-list", "64,131073"),
    ("waveform", "--samples-per-symbol", "64", "--out", "missing/x.csv"),
    ("simulate", "--trials", "10000", "--snr-db", "0", "--out", "missing/x.csv"),
    # a tolerance that would switch a check off or flip its verdict
    ("waveform", "--pulse", "rect", "--span", "1", "--tau", "0.5", "--pd-tol", "-1"),
    ("waveform", "--pd-tol", "nan"),
    ("toeplitz", "--rel-tol", "nan", "--n-list", "1,2"),
    # a delay past the exact range of the window-angle reduction
    ("simulate", "--scheme", "TDA_INDEP", "--trials", "10000", "--snr-db", "0",
     "--t0bw", "1e308"),
    ("simulate", "--scheme", "TDA_INDEP", "--trials", "10000", "--snr-db", "0",
     "--t0bw", "1e300"),
    # a grid counted before it is built: an infinite span, 10^18 points, 5x10^11 Fractions
    ("simulate", "--snr-db", "0:1e300:1e-300"),
    ("simulate", "--snr-db", "0:1e9:1e-9"),
    ("tradeoff", "--r-step", "1/1000000000000"),
    # a pulse grid or a draw count counted before it is allocated
    ("waveform", "--samples-per-symbol", "1000000000000000"),
    ("waveform", "--span", "1000000000000000", "--samples-per-symbol", "64"),
    ("compare-capacity", "--draws", "1000000000000000"),
    # a reversed fit window
    ("simulate", "--snr-db", "40:80:5", "--mode", "analytic", "--fit-window-db", "80:40"),
], ids=lambda a: " ".join(a))
def test_bad_input_is_config_error(capsys, monkeypatch, tmp_path, args):
    monkeypatch.chdir(tmp_path)  # so the --out directory "missing" does not exist
    rc, _, err = run(capsys, *args)
    assert rc == 2
    assert err.startswith("config error:")


def test_huge_trial_count_fails_at_once(capsys):
    # the count is checked before the engine lists its blocks
    start = time.perf_counter()
    rc, _, err = run(capsys, "simulate", "--trials", "1000000000000000")
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "trials must lie in [10^4, 2^34]" in err


def test_missing_out_directory_fails_before_the_run(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("mc_outage ran before the --out directory was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("relaylab.cli.mc_outage", refuse)
    rc, _, err = run(capsys, "simulate", "--trials", "10000", "--snr-db", "0",
                     "--out", "missing/x.csv")
    assert rc == 2
    assert "missing/x.csv" in err


@pytest.mark.parametrize("args", [
    ("--trials", "10000", "--fit-window-db", "40"),
    ("--snr-db", "40:80:5", "--mode", "analytic", "--fit-window-db", "80:40"),
    ("--trials", "10000", "--fit-window-db", "0:inf"),
], ids=lambda a: " ".join(a))
def test_bad_fit_window_fails_before_the_run(capsys, monkeypatch, args):
    def refuse(*args, **kwargs):
        raise AssertionError("the curve ran before the fit window was checked")

    monkeypatch.setattr("relaylab.cli.mc_outage", refuse)
    monkeypatch.setattr("relaylab.cli.analytic_outage_curve", refuse)
    rc, out, err = run(capsys, "simulate", *args)
    assert rc == 2 and out == ""
    assert err.startswith("config error:") and "fit_window_db" in err


# One cheap base call per command; of the two simulate bases, MIX_AF reads
# the pulse keys and TDA_INDEP the delay key.
FUZZ_BASES = (
    ("tradeoff", ("--schemes", "stc,maf,ddf")),
    ("simulate", ("--scheme", "MIX_AF", "--trials", "10000", "--snr-db", "0",
                  "--samples-per-symbol", "64")),
    ("simulate", ("--scheme", "TDA_INDEP", "--trials", "10000", "--snr-db", "0")),
    ("waveform", ("--samples-per-symbol", "64")),
    ("toeplitz", ("--n-list", "1,2", "--samples-per-symbol", "64")),
    ("compare-capacity", ("--draws", "4", "--snr-db", "0", "--samples-per-symbol", "64")),
)
# Malformed tokens only, and no integer above 1, so no fuzzed trial count,
# worker count, block length or grid can start a long run or a process.
MALFORMED = ("", "a", "a:b", ":", "1:", "0:0:0", "1:0:1", "-1", "0", "1", "0.5",
             "-0.5", "nan", "inf", "-inf", "1/0", "0/0", ",", "1,", "1,a", "d5")
malformed = st.one_of(st.sampled_from(MALFORMED),
                      st.text(alphabet="-+.:,/eEinfa ", max_size=4))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(base=st.sampled_from(FUZZ_BASES), data=st.data(), token=malformed)
def test_fuzz_malformed_values_exit_cleanly(base, data, token):
    cmd, args = base
    keys = sorted(k for k in _DEFAULTS[cmd] if k not in ("out", "waveform_file"))
    key = data.draw(st.sampled_from(keys))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([cmd, *args, f"--{key.replace('_', '-')}={token}"])
    assert rc in (0, 2, 3), err.getvalue()
