import json
import os
import random
import subprocess
import sys
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from swarmgame import cli
from swarmgame.cli import main
from swarmgame.fluctuation import PathwiseEvents, pathwise_events
from swarmgame.kernels import pois_tail
from swarmgame.model import SwarmParams, total_cost
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
    assert run(["analyze", "--config", config_path, "--rho", "0.5"]) == 0
    assert capsys.readouterr().out == (
        "rho        = 0.5\n"
        "ally_cost  = 13.5\n"
        "p_prior    = 0.99889751187\n"
        "q0         = 0.000292336950647\n"
        "q1         = 3.71874613428e-06\n"
        "total      = 13.6062247386\n"
    )


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
    for out in (tmp_path / "missing" / "curve.csv", tmp_path):
        assert run([command, "--config", config_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert str(out) in err
        assert "Traceback" not in err


# Runs in a fresh interpreter: the analytic commands must not load
# scipy.signal, and pathwise_events must load it on demand.
FRESH_IMPORT = """\
import json, sys
from dataclasses import astuple
from swarmgame import cli, pathwise_events
from swarmgame.model import SwarmParams
cfg, out = sys.argv[1:]
codes = [cli.main([c, "--config", cfg, "--out", out])
         for c in ("analyze", "sweep", "optimize")]
loaded = "scipy.signal" in sys.modules
p = SwarmParams(M=20, drone_value=1500.0, lambda_a=1.0, lambda_h=0.5,
                delta0=2.0, delta=0.5)
print(json.dumps([codes, loaded, astuple(pathwise_events(p, 0.3))]))
"""


def test_analytic_commands_leave_scipy_signal_unloaded(tmp_path):
    cfg = tmp_path / "auto.cfg"
    cfg.write_text(
        "M = 1000\ndrone_value = 1500\nlambda_a = 1\ndelta0 = 2\ndelta = 0.5\n"
        "expected_nu = auto\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT, str(cfg), str(tmp_path / "c.csv")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    codes, loaded, events = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert not loaded
    p = SwarmParams(M=20, drone_value=1500.0, lambda_a=1.0, lambda_h=0.5,
                    delta0=2.0, delta=0.5)
    assert events == list(astuple(pathwise_events(p, 0.3)))
    want = dense_chain_events(p, 0.3)
    for field, got in zip(PathwiseEvents.__dataclass_fields__, events):
        assert got == pytest.approx(getattr(want, field), rel=1e-10, abs=1e-13), field


def test_auto_mode_with_no_attacker_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "auto.cfg"
    cfg.write_text(
        "M = 20\ndrone_value = 1500\nlambda_a = 0\ndelta0 = 1\ndelta = 1\n"
        "expected_nu = auto\n"
    )
    assert run(["analyze", "--config", cfg]) == 1
    assert "singular" in capsys.readouterr().err


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
