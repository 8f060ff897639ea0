import contextlib
import csv
import io
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relaylab
from relaylab.cli import _DEFAULTS, main
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


@pytest.mark.parametrize("t0bw, db", [("2.5", "3000"), ("1.0000001", "2000")])
def test_rtda2_past_the_float_range_is_numeric_failure(capsys, t0bw, db):
    # T^(1/delta1) of the relay-sum range passes 1e308; main must not raise
    rc, out, err = run(capsys, "simulate", "--mode", "analytic", "--scheme",
                       "TDA_REPETITION", "--cond", "d2", "--t0bw", t0bw, "--r", "0.49",
                       "--snr-db", db)
    assert rc in (2, 3)
    assert err.startswith(("numeric failure:", "config error:"))
    assert "Traceback" not in err


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
    m = dict(parse_rows(out)[1])
    assert m["pd"] == "1"
    assert float(m["certified_min"]) > 0.05


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


def test_config_missing_file(capsys):
    rc, _, err = run(capsys, "simulate", "--config", "/does/not/exist.ini")
    assert rc == 2


def test_grid_parse_single_point(capsys):
    rc, out, _ = run(capsys, "simulate", "--scheme", "STC_SYNC", "--mode",
                     "analytic", "--r", "0.1", "--snr-db", "10")
    assert rc == 0
    _, rows = parse_rows(out)
    assert len(rows) == 1 and rows[0][3] == "10.0"


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
], ids=lambda a: " ".join(a))
def test_bad_input_is_config_error(capsys, monkeypatch, tmp_path, args):
    monkeypatch.chdir(tmp_path)  # so the --out directory "missing" does not exist
    rc, _, err = run(capsys, *args)
    assert rc == 2
    assert err.startswith("config error:")


def test_missing_out_directory_fails_before_the_run(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("mc_outage ran before the --out directory was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("relaylab.cli.mc_outage", refuse)
    rc, _, err = run(capsys, "simulate", "--trials", "10000", "--snr-db", "0",
                     "--out", "missing/x.csv")
    assert rc == 2
    assert "missing/x.csv" in err


# One cheap base call per command; of the two simulate bases, MIX_AF reads
# the pulse keys and TDA_INDEP the delay key.
FUZZ_BASES = (
    ("tradeoff", ("--schemes", "stc,maf,ddf")),
    ("simulate", ("--scheme", "MIX_AF", "--trials", "10000", "--snr-db", "0",
                  "--samples-per-symbol", "64")),
    ("simulate", ("--scheme", "TDA_INDEP", "--trials", "10000", "--snr-db", "0")),
    ("waveform", ("--samples-per-symbol", "64", "--omega-points", "512")),
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
