"""Shared fixtures and the acceptance-criteria summary hook."""

import os
import runpy
import sys

import numpy as np
import pytest

from relaylab.channel import NetworkConfig

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
