"""Workload definitions: the relaylab commands each workload runs.

Every command is an argv for ``relaylab.cli.main``.  The workload seed is the
only input that varies between runs: it seeds the Monte Carlo draws and the
fading draw behind the Toeplitz ladder.  Timed Monte Carlo always runs with
``--workers 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

R = 0.25
MC_SNR_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
MC_GRID = ("--r", str(R), "--snr-db", "0:30:5", "--workers", "1")
DEEP_GRID = ("--mode", "analytic", "--r", str(R), "--snr-db", "40:80:5",
             "--fit-window-db", "40:80")
# The positive-definite SRRC pair and the singular rect/half-delay pair.
SRRC2 = ("--pulse", "srrc", "--span", "2", "--tau", "0.3")
RECT1 = ("--pulse", "rect", "--span", "1", "--tau", "0.5")
FORCE_D2 = ("--cond", "d2", "--force-set", "true")

CLOSED_TRIALS = 2 ** 20
QUAD_TRIALS = 2 ** 15
TOEPLITZ_NS = "64,128,256,512,1024"

WORKLOADS = ("mc-closed", "mc-quadrature", "deep-analytic")


@dataclass(frozen=True)
class Command:
    """One CLI call of a workload.

    kind groups commands for the end-to-end figures: ``mc`` (overall Monte
    Carlo curve), ``mc_d2`` (forced both-relays curve), ``analytic`` (oracle
    curve with slope fit), ``toeplitz``, ``waveform`` and ``tradeoff``.
    scheme names the Monte Carlo scheme for ``mc``/``mc_d2`` commands.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    scheme: str = ""
    trials: int = 0


def _mc(name, scheme, kind, trials, seed, *extra) -> Command:
    argv = ("simulate", "--scheme", scheme, "--trials", str(trials),
            "--seed", str(seed)) + MC_GRID + tuple(extra)
    return Command(name, kind, argv, scheme, trials)


def mc_commands(workload: str, seed: int, trials: int | None = None) -> list[Command]:
    """Monte Carlo curves of one workload (empty for deep-analytic)."""
    if workload == "mc-closed":
        n = trials or CLOSED_TRIALS
        return [
            _mc("STC_SYNC.overall", "STC_SYNC", "mc", n, seed),
            _mc("STC_SYNC.d2", "STC_SYNC", "mc_d2", n, seed, *FORCE_D2),
            _mc("TDA_LINMOD.overall", "TDA_LINMOD", "mc", n, seed, *RECT1),
        ]
    if workload == "mc-quadrature":
        n = trials or QUAD_TRIALS
        return [
            _mc("ASTC.overall", "ASTC", "mc", n, seed, *SRRC2),
            _mc("ASTC.d2", "ASTC", "mc_d2", n, seed, *SRRC2, *FORCE_D2),
            _mc("MIX_AF.overall", "MIX_AF", "mc", n, seed, *RECT1),
            _mc("TDA_INDEP.overall", "TDA_INDEP", "mc", n, seed, "--t0bw", "2.5"),
        ]
    return []


def commands(workload: str, seed: int) -> list[Command]:
    """The timed body of one workload."""
    if workload != "deep-analytic":
        return mc_commands(workload, seed)
    sim = ("simulate",) + DEEP_GRID
    return [
        Command("STC_SYNC.overall", "analytic", sim + ("--scheme", "STC_SYNC")),
        Command("ASTC.d2", "analytic", sim + ("--scheme", "ASTC") + SRRC2 + ("--cond", "d2")),
        Command("TDA_REPETITION.d2.t0bw2.5", "analytic",
                sim + ("--scheme", "TDA_REPETITION", "--cond", "d2", "--t0bw", "2.5")),
        Command("TDA_REPETITION.d2.t0bw2", "analytic",
                sim + ("--scheme", "TDA_REPETITION", "--cond", "d2", "--t0bw", "2")),
        Command("toeplitz", "toeplitz",
                ("toeplitz",) + SRRC2 + ("--n-list", TOEPLITZ_NS, "--seed", str(seed))),
        Command("waveform.srrc2", "waveform", ("waveform",) + SRRC2),
        Command("waveform.rect1", "waveform", ("waveform",) + RECT1),
        Command("tradeoff", "tradeoff", ("tradeoff", "--k", "2")),
    ]


def warmup(workload: str, seed: int) -> tuple[str, ...]:
    """One cheap call down the workload's own path, run during set-up."""
    if workload == "mc-closed":
        return ("simulate", "--scheme", "STC_SYNC", "--trials", "10000",
                "--seed", str(seed), "--snr-db", "0", "--workers", "1")
    if workload == "mc-quadrature":
        return ("simulate", "--scheme", "ASTC", "--trials", "10000", "--seed", str(seed),
                "--snr-db", "0", "--workers", "1") + SRRC2
    return ("simulate", "--mode", "analytic", "--scheme", "STC_SYNC", "--snr-db", "40")


def determinism_command(workload: str, seed: int) -> tuple[str, ...] | None:
    """A three-block call of the workload's first scheme, for the workers 1/2 check."""
    mc = mc_commands(workload, seed, trials=3 * 32768)
    if not mc:
        return None
    argv = list(mc[0].argv)
    argv[argv.index("--snr-db") + 1] = "20:30:10"
    return tuple(argv)
