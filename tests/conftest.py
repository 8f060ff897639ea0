"""Shared fixtures, the earlier Monte Carlo samplers and the acceptance-criteria
summary hook."""

import os
import runpy
import sys

import numpy as np
import pytest

from relaylab import outage
from relaylab.channel import LINKS, NetworkConfig

# Records appended by the acceptance tests: (criterion number, title, ok, detail).
# The terminal summary prints one aggregated pass/fail line per criterion.
_CRITERIA: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def record_criterion():
    def record(num: int, title: str, ok: bool, detail: str = "") -> bool:
        _CRITERIA.append((int(num), title, bool(ok), detail))
        return bool(ok)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    by_num: dict[int, list[tuple[str, bool, str]]] = {}
    for num, title, ok, detail in _CRITERIA:
        by_num.setdefault(num, []).append((title, ok, detail))
    for num in sorted(by_num):
        rows = by_num[num]
        ok_all = all(ok for _, ok, _ in rows)
        title = rows[0][0]
        word = "PASS" if ok_all else "FAIL"
        if len(rows) == 1:
            detail = rows[0][2]
        else:
            n_ok = sum(ok for _, ok, _ in rows)
            bad = "; ".join(d for _, ok, d in rows if not ok and d)
            detail = f"{n_ok}/{len(rows)} sub-checks pass" + (f"; {bad}" if bad else "")
        line = f"criterion {num} [{word}] {title}"
        if detail:
            line += f" :: {detail}"
        terminalreporter.write_line(line)


def normal_draw_gains(cfg, seed, first_trial, count, out=None):
    """The Monte Carlo engine's first sampler, kept as a test oracle: ten
    normals per trial on one Philox stream, viewed as the five complex gains,
    with the squared magnitudes taken where the engine reads them.  In the
    engine's draw interface (e, sigma2, phase) its block e holds the squared
    gains themselves, with sigma2 all ones, and in place of the phase
    uniforms phase() returns the complex relay sum r1d + r2d, of which
    complex_coherent_sum forms the coherent sum.  It ignores the engine's
    out buffers and draws into arrays of its own."""
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=int(first_trial) * 64))
    scales = np.sqrt(0.5 * np.array([getattr(cfg, "sigma2_" + link) for link in LINKS]))
    z = rng.standard_normal((count, 10)).view(np.complex128) * scales
    return np.abs(z) ** 2, np.ones(5), lambda: z[:, 3] + z[:, 4]


def exp_normal_draw_gains(cfg, seed, first_trial, count, out=None):
    """The Monte Carlo engine's second sampler, kept as a test oracle: the
    squared sd, sr1 and sr2 gains as sigma^2 Exp(1) on one Philox stream and
    the relay gains r1d, r2d as complex normals on a second, its counter
    2^128 up; like normal_draw_gains it returns the squared gains with unit
    sigma2 and, from phase(), r1d + r2d, and ignores out."""
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    sigma2 = np.array([getattr(cfg, "sigma2_" + link) for link in LINKS])
    exp, nrm = (np.random.Generator(np.random.Philox(key=key, counter=c + int(first_trial) * 64))
                for c in (0, 2 ** 128))
    g = np.empty((count, 5))
    g[:, :3] = exp.standard_exponential((count, 3))
    g[:, :3] *= sigma2[:3]
    z = nrm.standard_normal((count, 4))
    z *= np.sqrt(0.5 * sigma2[[3, 3, 4, 4]])
    r1d, r2d = z.view(np.complex128).T
    g[:, 3], g[:, 4] = np.abs(r1d) ** 2, np.abs(r2d) ** 2
    return g, np.ones(5), lambda: r1d + r2d


def complex_coherent_sum(g1, g2, z):
    """The older samplers' coherent sum |r1d + r2d|^2, of the complex relay
    sum z = r1d + r2d they return in place of the phase uniform."""
    return np.abs(z) ** 2


@pytest.fixture
def normal_sampler(monkeypatch):
    """Run the Monte Carlo engine on normal_draw_gains."""
    monkeypatch.setattr(outage, "_draw_gains", normal_draw_gains)
    monkeypatch.setattr(outage, "_coherent_sum", complex_coherent_sum)


@pytest.fixture
def exp_normal_sampler(monkeypatch):
    """Run the Monte Carlo engine on exp_normal_draw_gains."""
    monkeypatch.setattr(outage, "_draw_gains", exp_normal_draw_gains)
    monkeypatch.setattr(outage, "_coherent_sum", complex_coherent_sum)


@pytest.fixture(scope="session")
def unit_cfg():
    """All five links at unit average gain."""
    return NetworkConfig(1.0, 1.0, 1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def run_script(capsys, monkeypatch):
    """Run scripts/NAME in-process as __main__ with the given arguments;
    returns its captured (stdout, stderr)."""
    scripts = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")

    def run(name: str, *args: str):
        monkeypatch.setattr(sys, "argv", [name, *args])
        runpy.run_path(os.path.join(scripts, name), run_name="__main__")
        out = capsys.readouterr()
        return out.out, out.err

    return run
