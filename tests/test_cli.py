import json
import os
import random
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from perfbench.tracer import Tracer, patched
from swarmgame import cli
from swarmgame.cli import main
from swarmgame.fluctuation import PathwiseEvents, exit_index_pgf, pathwise_events
from swarmgame.kernels import pois_tail
from swarmgame.model import CostBreakdown, SwarmParams, total_cost
from swarmgame.optimize import optimize
from swarmgame.sim import estimate
from tests.test_fluctuation import dense_chain_events

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "swarm.cfg"
    path.write_text(
        "M = 20\n"
        "drone_value = 1500\n"
        "lambda_a = 1\n"
        "delta0 = 1\n"
        "delta = 1\n"
        "episodes = 5000\n"
    )
    return path


def run(args):
    return main([str(a) for a in args])


def test_analyze_matches_library(config_path, capsys):
    assert run(["analyze", "--config", config_path, "--rho", "0.5"]) == 0
    out = capsys.readouterr().out
    params = SwarmParams(M=20, drone_value=1500, lambda_a=1.0, expected_nu=3.0)
    breakdown = total_cost(params, 0.5)
    assert f"total      = {breakdown.total:.12g}" in out
    assert f"q1         = {breakdown.q1:.12g}" in out


def test_analyze_full_output(config_path, capsys):
    # The fixture prices at nu = 3 where E[nu] = 12: a note on stderr.
    assert run(["analyze", "--config", config_path, "--rho", "0.5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "rho        = 0.5\n"
        "ally_cost  = 13.5\n"
        "p_prior    = 0.99889751187\n"
        "q0         = 0.000292336950647\n"
        "q1         = 3.71874613428e-06\n"
        "total      = 13.6062247386\n"
    )
    assert captured.err == (
        "note: expected_nu = 3 is more than a factor of 2 from the exact "
        "E[nu] = 12 (expected_nu = auto)\n"
    )


NOTE_LAMBDA_H = "note: the closed form ignores lambda_h = 2; simulate draws the honest arrivals\n"
NOTE_NU = (
    "note: expected_nu = 3 is more than a factor of 2 from the exact "
    "E[nu] = 120 (expected_nu = auto)\n"
)


@pytest.mark.parametrize("command", ["analyze", "sweep", "optimize"])
def test_closed_form_notes_go_to_stderr(tmp_path, capsys, command):
    """At M = 120 the closed form prints the same bytes at lambda_h = 0 and
    2, and prices at nu = 3 where E[nu] = 120 unless told otherwise: each
    says so in a note on stderr, after stdout, which is the same with or
    without the note.  An E[nu] within a factor of 2, or auto, and lambda_h
    = 0 print none."""
    base = "M = 120\ndrone_value = 1500\nlambda_a = 1\ndelta0 = 2\ndelta = 0.5\n"

    def cli(text):
        cfg = tmp_path / "notes.cfg"
        cfg.write_text(text)
        assert run([command, "--config", cfg, "--out", tmp_path / "curve.csv"]) == 0
        captured = capsys.readouterr()
        assert "note:" not in captured.out
        csv = tmp_path / "curve.csv"  # analyze writes none
        return captured.out, csv.read_bytes() if csv.exists() else b"", captured.err

    plain = cli(base)
    assert plain[2] == NOTE_NU
    assert cli(base + "lambda_h = 2\n") == (*plain[:2], NOTE_LAMBDA_H + NOTE_NU)
    assert cli(base + "lambda_h = 0\nexpected_nu = 3\n") == plain
    for nu in ("60.5", "239", "auto"):
        assert cli(base + f"expected_nu = {nu}\n")[2] == ""


def test_simulate_notes_a_small_effective_sample(tmp_path, capsys):
    """At the benchmark's long shape (M = 120, lambda_h = 0, rho = 1/2)
    Safety's rate rests on about 3 effective episodes of 65 536, and a note
    on stderr says so; stdout is that of the estimate itself.  The short
    shape (M = 20, lambda_h = 0.5), about 9300 effective episodes, prints
    none."""
    base = "drone_value = 1500\nlambda_a = 1\ndelta0 = 1\ndelta = 1\nseed = 2026\n"

    def cli(text):
        cfg = tmp_path / "shape.cfg"
        cfg.write_text(base + text)
        assert run(["simulate", "--config", cfg, "--rho", "0.5", "--episodes", 65536]) == 0
        return capsys.readouterr()

    long = cli("M = 120\nlambda_h = 0\n")
    assert long.err == (
        "note: Safety's burst_rate rests on an effective sample of 2.93 episodes, "
        "fewer than 100; its se may understate its error\n"
    )
    stats = estimate(SwarmParams(M=120, drone_value=1500.0, lambda_a=1.0, delta0=1.0,
                                 delta=1.0), 65536, seed=2026, rho=0.5)
    assert f"burst_rate      = {stats.burst_safety:.12g} (se " in long.out
    assert cli("M = 20\nlambda_h = 0.5\n").err == ""


def test_simulate_refuses_an_ally_table_past_the_bound(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("M = 10000000000000\ndrone_value = 1\nlambda_a = 2.5e12\n"
                   "delta0 = 1\ndelta = 1\n")
    assert run(["simulate", "--config", cfg, "--rho", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than the 1048576" in captured.err and "lower M, rho or lambda_a" in captured.err


def _seeded_configs():
    # At M = 447, rho = 0.86 the scalar total_cost prints a q1 whose 12th
    # digit differs from the sweep row's.
    yield (
        "M = 447\ndrone_value = 1\nlambda_a = 1.9008263895987287\n"
        "delta0 = 2.3713255986994977\ndelta = 2.1787487402747976\n"
        "expected_nu = 50.03223197063953\n"
    )
    rng = random.Random(8)
    for M, nu in ((1999, 140.5), (640, "auto"), (33, 2.5)):
        la, d0, d, lh = (rng.uniform(0.2, 3.0) for _ in range(4))
        yield (
            f"M = {M}\ndrone_value = 2500\nlambda_a = {la!r}\nlambda_h = {lh!r}\n"
            f"delta0 = {d0!r}\ndelta = {d!r}\nexpected_nu = {nu}\n"
        )


@pytest.mark.parametrize(
    "text", list(_seeded_configs()), ids=lambda text: text.split("\n")[0]
)
def test_analyze_matches_sweep_rows(tmp_path, capsys, text):
    cfg, out = tmp_path / "seeded.cfg", tmp_path / "curve.csv"
    cfg.write_text(text)
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    for row in out.read_text().splitlines()[1:]:
        fields = row.split(",")
        assert run(["analyze", "--config", cfg, "--rho", fields[0]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[1] for line in lines] == fields


def test_sweep_no_threat_csv(config_path, tmp_path, capsys):
    quiet = tmp_path / "quiet.cfg"
    quiet.write_text(config_path.read_text().replace("lambda_a = 1", "lambda_a = 0"))
    out = tmp_path / "curve.csv"
    assert run(["sweep", "--config", quiet, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,ally_cost,p_prior,q0,q1,total"
    assert len(lines) == 102
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] == fields[5]  # total equals ally cost, row by row


def test_sweep_deterministic_bytes(config_path, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sweep", "--config", config_path, "--out", first]) == 0
    assert run(["sweep", "--config", config_path, "--out", second]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_deterministic_output(config_path, capsys):
    assert run(["simulate", "--config", config_path, "--rho", "0.5"]) == 0
    first = capsys.readouterr().out
    assert run(["simulate", "--config", config_path, "--rho", "0.5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "[Regular]" in first and "[Safety]" in first


def test_simulate_seed_changes_output(config_path, capsys):
    assert run(["simulate", "--config", config_path, "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert run(["simulate", "--config", config_path, "--seed", "2"]) == 0
    second = capsys.readouterr().out
    assert first != second


def test_simulate_negative_seed(config_path, capsys):
    # Negative seeds are their own streams, with no float64 key warning.
    outputs = []
    for seed in ("-1", "-2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["simulate", "--config", config_path, "--seed", seed]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] != outputs[1]


def test_simulate_runs_the_simulator_once(config_path, monkeypatch, capsys):
    # One pass of estimate gives both the Regular and the Safety block.
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate", counted)
    assert run(["simulate", "--config", config_path, "--rho", "0.5"]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert "[Regular]" in out and "[Safety]" in out


def test_simulate_leaves_auto_nu_unresolved(tmp_path, capsys):
    # The simulator never reads expected_nu, so with no attacker "auto"
    # does not fail the way analyze does; the output is that of a fixed nu.
    outputs = []
    for nu in ("auto", "3"):
        cfg = tmp_path / f"{nu}.cfg"
        cfg.write_text(
            "M = 20\ndrone_value = 1500\nlambda_a = 0\nlambda_h = 1\n"
            f"delta0 = 1\ndelta = 1\nexpected_nu = {nu}\nepisodes = 50\n"
        )
        assert run(["simulate", "--config", cfg, "--rho", "0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert "censored        = 50" in outputs[0]


def test_simulate_large_swarm_censors_nothing(tmp_path, capsys):
    # E[nu] = 15 002 epochs: every episode exits, and mean_nu is within
    # 3 SE of it.
    cfg = tmp_path / "large.cfg"
    cfg.write_text(
        "M = 30000\ndrone_value = 1500\nlambda_a = 1\ndelta0 = 1\ndelta = 1\n"
        "episodes = 20000\n"
    )
    assert run(["simulate", "--config", cfg, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("censored        = 0\n") == 2
    means = re.findall(r"mean_nu += (\S+) \(se (\S+)\)", out)
    assert len(means) == 2
    for mean, se in means:
        assert abs(float(mean) - 15_002) <= 3 * float(se)


def test_simulate_rate_beyond_simulator_bound_exits_2(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "M = 20\ndrone_value = 1500\nlambda_a = 1e300\ndelta0 = 1\ndelta = 1\n"
    )
    assert run(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "must be at most 1e+15 for the simulator" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_simulate_threshold_beyond_int64_exits_2(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        "M = 20000000000000000000\ndrone_value = 1500\nlambda_a = 1\n"
        "delta0 = 1\ndelta = 1\n"
    )
    assert run(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the majority threshold")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("nu", ["3", "auto"])
def test_swarm_too_large_for_memory_exits_1(tmp_path, capsys, nu):
    # numpy refuses the 364 TiB allocation at once, beyond any address space;
    # past 2**63 bytes the curve refuses it first (numpy's np.arange raises
    # a ValueError there, or returns an empty array at 2**63 entries).
    for M in (10**14, 2**64, 10**20):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(
            f"M = {M}\ndrone_value = 1\nlambda_a = 1\ndelta0 = 1\n"
            f"delta = 1\nexpected_nu = {nu}\n"
        )
        assert run(["analyze", "--config", cfg]) == 1, M
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: "), M
        assert "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "lambda_a, delta0", [("1e13", "1"), ("1e300", "1"), ("1e300", "1e10")]
)
def test_huge_attack_rate_bursts_for_sure(tmp_path, capsys, lambda_a, delta0):
    # A swarm of 20 counts far below the exit mean (inf at delta0 = 1e10),
    # so its Poisson sums need none of the mean's 77 sqrt(mean) counts.
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(
        f"M = 20\ndrone_value = 1500\nlambda_a = {lambda_a}\ndelta0 = {delta0}\n"
        "delta = 1\n"
    )
    assert run(["analyze", "--config", cfg, "--rho", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "p_prior    = 0\nq0         = 1\nq1         = 1\n" in out


def test_optimize_matches_library(config_path, tmp_path, capsys):
    out = tmp_path / "opt.csv"
    assert run(["optimize", "--config", config_path, "--out", out]) == 0
    text = capsys.readouterr().out
    params = SwarmParams(M=20, drone_value=1500, lambda_a=1.0, expected_nu=3.0)
    result = optimize(params, tolerance=1e-5, grid_size=101)
    assert f"rho_star   = {result.rho_star:.12g}" in text
    assert f"cost_star  = {result.cost_star:.12g}" in text
    assert len(out.read_text().splitlines()) == 102


def test_optimize_tiny_tolerance_exits_0(config_path, tmp_path, capsys):
    config_path.write_text(config_path.read_text() + "tolerance = 1e-300\n")
    out = tmp_path / "opt.csv"
    assert run(["optimize", "--config", config_path, "--out", out]) == 0
    text = capsys.readouterr().out
    params = SwarmParams(M=20, drone_value=1500, lambda_a=1.0, expected_nu=3.0)
    result = optimize(params, tolerance=1e-300)
    assert f"rho_star   = {result.rho_star:.12g}" in text


@pytest.mark.parametrize(
    "command, key", [("analyze", "drone_value"), ("optimize", "ally_unit_cost")]
)
def test_overflowing_money_exits_2(tmp_path, capsys, command, key):
    values = dict(M=20, drone_value=1500, lambda_a=1, delta0=1, delta=1)
    values[key] = "1e308"
    cfg = tmp_path / "money.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert run([command, "--config", cfg, "--out", tmp_path / "o.csv"]) == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert "(M/2 - 1) must be finite, got inf" in captured.err
    assert captured.out == ""


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("M = 3\n")
    assert run(["analyze", "--config", bad]) == 2
    assert "error" in capsys.readouterr().err


def test_int_m_beyond_float_range_exits_2(config_path, capsys):
    huge = config_path.read_text().replace("M = 20", "M = 1" + "0" * 400)
    config_path.write_text(huge)
    assert run(["analyze", "--config", config_path]) == 2
    captured = capsys.readouterr()
    assert "error: M must be at most the largest float" in captured.err
    assert captured.out == ""


def test_missing_config_exits_2(tmp_path, capsys):
    assert run(["analyze", "--config", tmp_path / "nope.cfg"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_unwritable_out_exits_2(config_path, tmp_path, capsys, command):
    # The CSV is written before anything is printed, so a failed write
    # leaves stdout empty: no rho_star without its curve.
    (tmp_path / "f.txt").write_text("")
    under_file = tmp_path / "f.txt" / "x.csv"  # ENOTDIR
    for out in (tmp_path / "missing" / "curve.csv", tmp_path, under_file):
        assert run([command, "--config", config_path, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")
        assert str(out) in captured.err
        assert "Traceback" not in captured.err


def _fresh_csv(command, config_path, tmp_path, capsys):
    """The CSV bytes a command writes to a path that does not exist yet."""
    fresh = tmp_path / f"fresh-{command}.csv"
    assert run([command, "--config", config_path, "--out", fresh]) == 0
    capsys.readouterr()
    return fresh.read_bytes()


@pytest.mark.parametrize("command", ["sweep", "optimize"])
@pytest.mark.parametrize("old", [b"x" * 100_000, b"rho\n"], ids=["longer", "shorter"])
def test_out_is_overwritten_in_place(config_path, tmp_path, capsys, command, old):
    """Over an existing file the bytes equal a fresh write's; the inode is
    kept, so a hard link sees the new bytes."""
    want = _fresh_csv(command, config_path, tmp_path, capsys)
    out, link = tmp_path / "curve.csv", tmp_path / "hard.csv"
    out.write_bytes(old)
    os.link(out, link)
    inode = out.stat().st_ino
    assert run([command, "--config", config_path, "--out", out]) == 0
    assert capsys.readouterr().out.endswith(f"wrote 101 grid points to {out}\n")
    assert out.read_bytes() == want
    assert out.stat().st_ino == inode
    assert link.read_bytes() == want


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_out_symlink_writes_through(config_path, tmp_path, capsys, command):
    want = _fresh_csv(command, config_path, tmp_path, capsys)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"x" * 100_000)
    link.symlink_to(target)
    assert run([command, "--config", config_path, "--out", link]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == want


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_out_fifo_receives_exactly_the_csv(config_path, tmp_path, capsys, command):
    """A FIFO cannot be cut to length; the write must not try."""
    want = _fresh_csv(command, config_path, tmp_path, capsys)
    fifo, got = tmp_path / "curve.fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    try:
        assert run([command, "--config", config_path, "--out", fifo]) == 0
    finally:
        if reader.is_alive() and not got:  # unblock the reader if nothing opened the FIFO
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
    assert got == [want]
    assert capsys.readouterr().out.endswith(f"wrote 101 grid points to {fifo}\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_out_dev_stdout_into_a_pipe(config_path, tmp_path, capsys, command):
    want = _fresh_csv(command, config_path, tmp_path, capsys).decode()
    result = subprocess.run(
        [sys.executable, "-m", "swarmgame.cli", command, "--config", str(config_path),
         "--out", "/dev/stdout"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(want)
    assert result.stdout.endswith("wrote 101 grid points to /dev/stdout\n")
    if command == "sweep":
        assert result.stdout == want + "wrote 101 grid points to /dev/stdout\n"


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_out_is_never_opened_with_truncation(
    config_path, tmp_path, capsys, monkeypatch, command
):
    real, opened = os.open, []

    def spy(path, flags, *args, **kwargs):
        opened.append((path, flags))
        return real(path, flags, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", spy)
    out = tmp_path / "curve.csv"
    for _ in range(2):  # once to create the file, once over it
        assert run([command, "--config", config_path, "--out", out]) == 0
    writes = [flags for path, flags in opened if Path(path) == out]
    assert len(writes) == 2
    for flags in writes:
        assert flags & os.O_TRUNC == 0
        assert flags & os.O_CREAT and flags & os.O_WRONLY


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_default_out_is_command_csv_in_cwd(
    config_path, tmp_path, capsys, monkeypatch, command
):
    """Without --out the CSV goes to <command>.csv in the working
    directory; a second run overwrites it in place."""
    want = _fresh_csv(command, config_path, tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    default = tmp_path / f"{command}.csv"
    assert run([command, "--config", config_path]) == 0
    assert capsys.readouterr().out.endswith(f"wrote 101 grid points to {command}.csv\n")
    assert default.read_bytes() == want
    inode = default.stat().st_ino
    assert run([command, "--config", config_path]) == 0
    assert default.read_bytes() == want
    assert default.stat().st_ino == inode


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "optimize"])
def test_closed_stdout_exits_1_without_traceback(config_path, tmp_path, command, buffered):
    """The reader goes away before anything is printed: exit code 1 and a
    quiet stderr, whether print or the flush meets the closed pipe."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "swarmgame.cli", command, "--config", str(config_path),
         "--out", str(tmp_path / "curve.csv")],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert code == 1, err
    assert "Traceback" not in err
    assert "Exception ignored" not in err


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_help_into_closed_stdout_exits_1_quietly(tmp_path, buffered):
    """--help meets the closed pipe in main, not at interpreter exit:
    buffered at the flush, unbuffered at the write, whose error argparse's
    own printing would drop (exit 0)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "swarmgame.cli", "--help"],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert (code, err) == (1, "")


def test_broken_pipe_in_process_is_raised(config_path, monkeypatch):
    """A redirected stdout is not the process's fd 1: main leaves fd 1
    alone and raises, as before."""

    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        run(["analyze", "--config", config_path])


def test_optimize_stdout_then_csv(config_path, tmp_path, capsys):
    out = tmp_path / "opt.csv"
    assert run(["optimize", "--config", config_path, "--out", out]) == 0
    params = SwarmParams(M=20, drone_value=1500, lambda_a=1.0, expected_nu=3.0)
    result = optimize(params)
    assert capsys.readouterr().out == (
        f"rho_star   = {result.rho_star:.12g}\n"
        f"cost_star  = {result.cost_star:.12g}\n"
        f"feasible   = {result.feasible}\n"
        f"n_required = {result.n_required}\n"
        f"wrote 101 grid points to {out}\n"
    )


def test_commands_share_one_parser(config_path, tmp_path, capsys, monkeypatch):
    """One process, several commands: the parser is built once, an
    argparse error leaves it usable, the config is rebuilt only for an
    override, and an override reaches only its own call."""
    real, rebuilt = cli.replace, []

    def spy(config, **overrides):
        rebuilt.append(overrides)
        return real(config, **overrides)

    monkeypatch.setattr(cli, "replace", spy)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    parser = cli._build_parser()
    assert run(["sweep", "--config", config_path, "--out", first]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["analyze"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert run(["analyze", "--config", config_path, "--rho", "0.5"]) == 0
    assert capsys.readouterr().out.startswith("rho        = 0.5\n")
    assert run(["analyze", "--config", config_path]) == 0
    assert capsys.readouterr().out.startswith("rho        = 0\n")
    assert run(["sweep", "--config", config_path, "--out", second]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert cli._build_parser() is parser
    assert rebuilt == [{"rho": 0.5}]


def test_csv_rows_match_per_field_format():
    """One %-format per row prints each field as f"{x:.12g}" did."""
    values = [
        0.0, 1.0, 5e-324, 1.56528318912e-312, 1e-4,  # q1 can be subnormal
        1499999999.87654, 0.1234567890125, 0.9999999999995,  # both round
    ]
    curve = [CostBreakdown(*values[k : k + 6]) for k in range(len(values) - 5)]
    curve.append(CostBreakdown(*values[-6:][::-1]))
    rows = [cli.COLUMNS] + [
        [f"{getattr(point, name):.12g}" for name in cli.COLUMNS] for point in curve
    ]
    assert cli._csv_rows(curve) == "".join(",".join(row) + "\n" for row in rows)


# Runs in a fresh interpreter that refuses every scipy import: numpy is
# the only runtime dependency, so the import, the four CLI commands,
# pathwise_events at lambda_h > 0, the exit-index PGF and a series product
# and division all run without scipy.
FRESH_IMPORT = """\
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"scipy is blocked: {name}", name=name)

sys.meta_path.insert(0, NoScipy())
from dataclasses import astuple
from swarmgame import cli, exit_index_pgf, pathwise_events
from swarmgame.model import SwarmParams
from swarmgame.series import TruncSeries
cfg, out = sys.argv[1:]
codes = [cli.main([c, "--config", cfg, "--out", out])
         for c in ("analyze", "sweep", "optimize")]
codes.append(cli.main(["simulate", "--config", cfg]))
p = SwarmParams(M=20, drone_value=1500.0, lambda_a=1.0, lambda_h=0.5,
                delta0=2.0, delta=0.5)
q = TruncSeries.monomial(1.0, (1, 0, 0), (3, 1, 1))
series = ((1 + q * q) / (1 - q)).coefficients[:, 0, 0].tolist()
results = [astuple(pathwise_events(p, 0.3)), exit_index_pgf(0.5, p), series]
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print(json.dumps([codes, loaded, *results]))
"""


def test_entry_points_run_with_scipy_blocked(tmp_path):
    cfg = tmp_path / "auto.cfg"
    cfg.write_text(
        "M = 1000\ndrone_value = 1500\nlambda_a = 1\ndelta0 = 2\ndelta = 0.5\n"
        "expected_nu = auto\nepisodes = 4096\n"
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", FRESH_IMPORT,
         str(cfg), str(tmp_path / "c.csv")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    codes, loaded, events, pgf, series = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []
    p = SwarmParams(M=20, drone_value=1500.0, lambda_a=1.0, lambda_h=0.5,
                    delta0=2.0, delta=0.5)
    assert events == list(astuple(pathwise_events(p, 0.3)))
    want = dense_chain_events(p, 0.3)
    for field, got in zip(PathwiseEvents.__dataclass_fields__, events):
        assert got == pytest.approx(getattr(want, field), rel=1e-10, abs=1e-13), field
    assert pgf == exit_index_pgf(0.5, p)
    # (1 + q^2) / (1 - q) = 1 + q + 2 q^2 + 2 q^3 + ...
    assert series == pytest.approx([1.0, 1.0, 2.0, 2.0], abs=1e-12)


# Runs in a fresh interpreter: the package, the CLI and the analytic
# commands load neither the simulator, the series algebra nor
# concurrent.futures; simulate loads the simulator on first use.
LEAN_IMPORT = """\
import json, sys
import swarmgame
import swarmgame.cli as cli
LAZY = ("swarmgame.sim", "swarmgame.series", "concurrent.futures")
cfg, out = sys.argv[1:]
codes = [cli.main([c, "--config", cfg, "--out", out])
         for c in ("analyze", "sweep", "optimize")]
analytic = [m for m in LAZY if m in sys.modules]
codes.append(cli.main(["simulate", "--config", cfg]))
print(json.dumps([codes, analytic, [m for m in LAZY if m in sys.modules]]))
"""


def test_analytic_commands_load_no_simulator(tmp_path):
    cfg = tmp_path / "auto.cfg"
    cfg.write_text(
        "M = 1000\ndrone_value = 1500\nlambda_a = 1\ndelta0 = 2\ndelta = 0.5\n"
        "expected_nu = auto\nepisodes = 4096\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", LEAN_IMPORT, str(cfg), str(tmp_path / "c.csv")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    codes, analytic, after_simulate = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert analytic == []
    assert "swarmgame.sim" in after_simulate


def test_tracer_hooks_the_lazily_resolved_estimate(config_path, capsys):
    with patched(Tracer()) as tracer:
        assert run(["simulate", "--config", config_path]) == 0
    assert tracer.counts["sim.episodes"] == 5000
    assert tracer.summary()["sim.estimate.calls"] == 1
    assert cli.estimate is estimate


def test_auto_mode_with_no_attacker_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "auto.cfg"
    cfg.write_text(
        "M = 20\ndrone_value = 1500\nlambda_a = 0\ndelta0 = 1\ndelta = 1\n"
        "expected_nu = auto\n"
    )
    assert run(["analyze", "--config", cfg]) == 1
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rates, code, text",
    [
        # E[nu] is about 1.1e401, past the float range
        (("1e-200",) * 3, 1, "error: auto expected_nu failed: E[nu] overflows"),
        # lambda_a delta0 overflows: the first interval exits, so E[nu] = 1
        (("1e300", "1e10", "1e-300"), 0, "q0         = 1\n"),
    ],
)
def test_auto_mode_at_float_edge_rates(tmp_path, capsys, rates, code, text):
    cfg = tmp_path / "auto.cfg"
    cfg.write_text(
        "M = 20\ndrone_value = 1500\nlambda_a = {}\ndelta0 = {}\ndelta = {}\n"
        "expected_nu = auto\n".format(*rates)
    )
    assert run(["analyze", "--config", cfg]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert text in (captured.err if code else captured.out)


def test_auto_mode_uses_transform(tmp_path, capsys):
    cfg = tmp_path / "auto.cfg"
    cfg.write_text(
        "M = 20\ndrone_value = 1500\nlambda_a = 1\ndelta0 = 1\ndelta = 1\n"
        "expected_nu = auto\n"
    )
    assert run(["analyze", "--config", cfg]) == 0
    out = capsys.readouterr().out
    # E[nu] ~ 12 makes the exit-epoch mean ~12: far riskier than the fixed 3
    line = next(l for l in out.splitlines() if l.startswith("q0"))
    q0 = float(line.split("=")[1])
    assert q0 > 0.5


def test_auto_mode_at_large_swarm(tmp_path, capsys):
    cfg = tmp_path / "auto.cfg"
    cfg.write_text(
        "M = 1000\ndrone_value = 1500\nlambda_a = 1\ndelta0 = 2\ndelta = 0.5\n"
        "expected_nu = auto\n"
    )
    assert run(["analyze", "--config", cfg]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("q0"))
    # exact E[nu] by conditioning on the first interval's geometric count
    thr, q = 501, 2.0 / 3.0
    k = np.arange(thr)
    nu = 1.0 + np.sum((1.0 - q) * q**k * (1.0 + (thr - k) / 0.5))
    assert float(line.split("=")[1]) == pytest.approx(
        pois_tail(thr, 2.0 + (nu - 1.0) * 0.5), abs=1e-12
    )


@pytest.mark.parametrize(
    "key", ["drone_value", "lambda_a", "delta", "expected_nu", "tolerance"]
)
def test_non_finite_config_exits_2(tmp_path, capsys, key):
    values = dict(M=20, drone_value=1500, lambda_a=1, delta0=1, delta=1)
    values[key] = "nan"
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert run(["optimize", "--config", cfg]) == 2
    assert f"key '{key}' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--episodes", "0"], "key 'episodes' must be >= 1, got 0"),
        (["--episodes", "-5"], "key 'episodes' must be >= 1, got -5"),
        (["--rho", "1.5"], "key 'rho' must lie in [0, 1], got 1.5"),
        (["--rho", "nan"], "key 'rho' must lie in [0, 1], got nan"),
        (["--workers", "0"], "--workers must be >= 1, got 0"),
        (["--workers", "-3"], "--workers must be >= 1, got -3"),
    ],
)
def test_invalid_override_exits_2(config_path, capsys, flags, message):
    assert run(["simulate", "--config", config_path, *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
