"""The benchmark's three workloads: configs, CLI commands and output checks.

Every workload is a closed loop of one client issuing CLI commands back
to back; a pass is the workload's command list run once.  The seed
varies the money parameters (drone value, ally fee, rho), which leave
the amount of computation unchanged, and is the simulator's seed.

cost-curve  sweep, optimize and analyze at M = 120, 500, 1000 with
            lambda_a = 1, delta0 = delta = 1 and expected_nu at each M's
            exact E[nu]; kernels, model and optimize do the work.  One
            more analyze at M = 2000 probes a known defect: pois_cdf
            underflows there, so q0 reads 1.0 against a true 0.517.
auto-nu     analyze and optimize with expected_nu = auto at M = 20, 40,
            once with delta0 = delta = 1 and once with delta0 = 2,
            delta = 0.5; the series transform does the work.
simulate    simulate (Regular and Safety, rho = 0.5) in a short shape
            (M = 20, lambda_h = 0.5, about 12 epochs) and a long one
            (M = 120, lambda_h = 0, about 62 epochs), each at 1 and
            2 workers; the simulator does the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .oracles import CostOracle, first_step_expected_nu

WORKLOADS = ("cost-curve", "auto-nu", "simulate")

# CSV and printed values carry 12 significant digits.
PROB_ABS = 1e-12
TOTAL_REL = 1e-9
# With expected_nu = auto the transform's E[nu] agrees with the exact
# first-step value to about 3e-11, which moves probabilities by up to
# about 3e-12.
AUTO_PROB_ABS = 1e-10
OPTIMUM_REL = 1e-9
SIM_SE = 4.0

SHORT_EPISODES = 131_072
LONG_EPISODES = 65_536

CSV_COLUMNS = ("rho", "ally_cost", "p_prior", "q0", "q1", "total")


@dataclass
class Command:
    """One CLI invocation and the check of its output.

    ``check(stdout, csv_text, outputs)`` returns error messages; ``outputs``
    holds the stdout of earlier commands of the same pass by label.
    """

    label: str
    kind: str  # analyze | sweep | optimize | simulate
    argv: list[str]
    check: Callable[[str, Optional[str], dict], list[str]]
    csv: Optional[Path] = None
    known_defect: Optional[str] = None
    shape: Optional[str] = None  # simulate: short | long
    workers: int = 1
    episodes: int = 0  # simulate: episodes per strategy


@dataclass
class Workload:
    name: str
    commands: list[Command]
    warmup: list[list[str]]


def _config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _parse_assignments(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _compare(prefix, got, want, abs_tol=0.0, rel_tol=0.0) -> list[str]:
    """Rows where |got - want| exceeds both abs_tol and rel_tol * |want|."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    bad = ~(np.abs(got - want) <= np.maximum(abs_tol, rel_tol * np.abs(want)))
    return [f"{prefix}[{i}]: got {float(got[i])!r}, oracle {float(want[i])!r}"
            for i in np.flatnonzero(bad)]


def _check_rows(prefix, rows: dict, oracle: CostOracle, prob_abs) -> list[str]:
    """Compare printed breakdowns (arrays keyed by CSV column) to the oracle."""
    want = oracle.breakdown(rows["rho"])
    errors = _compare(f"{prefix} ally_cost", rows["ally_cost"], want["ally_cost"],
                      abs_tol=1e-9, rel_tol=TOTAL_REL)
    for key in ("p_prior", "q0", "q1"):
        errors += _compare(f"{prefix} {key}", rows[key], want[key], abs_tol=prob_abs)
    errors += _compare(f"{prefix} total", rows["total"], want["total"],
                       rel_tol=TOTAL_REL)
    return errors


def _check_csv(csv_text, oracle, grid_size, prob_abs) -> list[str]:
    lines = (csv_text or "").splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        return ["csv: missing or wrong header"]
    if len(lines) != grid_size + 1:
        return [f"csv: {len(lines) - 1} rows, expected {grid_size}"]
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    rows = dict(zip(CSV_COLUMNS, table.T))
    errors = _compare("csv rho", rows["rho"], np.arange(grid_size) / (grid_size - 1),
                      abs_tol=1e-12)
    return errors + _check_rows("csv", rows, oracle, prob_abs)


def _analyze_check(oracle, prob_abs):
    def check(stdout, csv_text, outputs):
        try:
            printed = _parse_assignments(stdout)
            rows = {key: float(printed[key]) for key in CSV_COLUMNS}
        except (KeyError, ValueError) as exc:
            return [f"analyze: unreadable output ({exc!r})"]
        return _check_rows("analyze", rows, oracle, prob_abs)

    return check


def _sweep_check(oracle, grid_size, prob_abs):
    def check(stdout, csv_text, outputs):
        return _check_csv(csv_text, oracle, grid_size, prob_abs)

    return check


def _optimize_check(oracle, grid_size, prob_abs):
    grid_min = oracle.grid_min()

    def check(stdout, csv_text, outputs):
        errors = _check_csv(csv_text, oracle, grid_size, prob_abs)
        try:
            printed = _parse_assignments(stdout)
            rho_star = float(printed["rho_star"])
            cost_star = float(printed["cost_star"])
        except (KeyError, ValueError) as exc:
            return errors + [f"optimize: unreadable output ({exc!r})"]
        if cost_star > grid_min * (1.0 + OPTIMUM_REL):
            errors.append(
                f"optimize: cost_star {cost_star!r} above the 1001-point "
                f"oracle minimum {grid_min!r}"
            )
        errors += _compare("optimize cost_star", cost_star,
                           oracle.breakdown(rho_star)["total"], rel_tol=TOTAL_REL)
        return errors

    return check


def _parse_sim_blocks(stdout: str) -> dict[str, dict[str, str]]:
    blocks: dict[str, dict[str, str]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = blocks.setdefault(line[1:-1], {})
        elif current is not None:
            key, sep, value = line.partition("=")
            if sep:
                current[key.strip()] = value.strip()
    return blocks


def _simulate_check(M, lambda_a, delta, lambda_h, episodes, same_as):
    """mean_nu within SIM_SE standard errors of 1 + thr/(lambda_a delta);
    with lambda_h = 0 and nothing censored, Regular bursts every time;
    output byte-identical to the command labelled ``same_as``."""
    exact_nu = 1.0 + (M // 2 + 1) / (lambda_a * delta)

    def check(stdout, csv_text, outputs):
        errors = []
        if same_as is not None and outputs.get(same_as) != stdout:
            errors.append(f"simulate: output differs from {same_as}")
        blocks = _parse_sim_blocks(stdout)
        if set(blocks) != {"Regular", "Safety"}:
            return errors + ["simulate: missing Regular/Safety blocks"]
        for strategy, block in blocks.items():
            try:
                n = int(block["episodes"])
                censored = int(block["censored"])
                mean_nu, _, se = block["mean_nu"].partition(" (se ")
                mean_nu, se = float(mean_nu), float(se.rstrip(")"))
                burst = float(block["burst_rate"].partition(" ")[0])
            except (KeyError, ValueError) as exc:
                errors.append(f"simulate {strategy}: unreadable ({exc!r})")
                continue
            if n != episodes:
                errors.append(f"simulate {strategy}: {n} episodes, ran {episodes}")
            if not abs(mean_nu - exact_nu) <= SIM_SE * se:
                errors.append(
                    f"simulate {strategy}: mean_nu {mean_nu} is more than "
                    f"{SIM_SE} se ({se}) from {exact_nu}"
                )
            if strategy == "Regular" and lambda_h == 0 and censored == 0 and burst != 1:
                errors.append(f"simulate Regular: burst_rate {burst}, expected 1")
        return errors

    return check


def _money(rng: random.Random) -> dict:
    return {
        "drone_value": round(rng.uniform(1000.0, 2000.0), 3),
        "ally_unit_cost": round(rng.uniform(1.0, 5.0), 3),
        "rho": round(rng.uniform(0.1, 0.9), 3),
    }


def _write(work: Path, name: str, values: dict) -> Path:
    path = work / f"{name}.cfg"
    path.write_text(_config_text(values))
    return path


def _cost_commands(work, label, values, kinds, oracle, prob_abs, known_defect=None):
    cfg = _write(work, label, values)
    grid = values["grid_size"]
    commands = []
    for kind in kinds:
        argv = [kind, "--config", str(cfg)]
        csv = None
        if kind == "analyze":
            check = _analyze_check(oracle, prob_abs)
        else:
            csv = work / f"{label}.{kind}.csv"
            argv += ["--out", str(csv)]
            make = _sweep_check if kind == "sweep" else _optimize_check
            check = make(oracle, grid, prob_abs)
        commands.append(Command(f"{kind} {label}", kind, argv, check, csv=csv,
                                known_defect=known_defect))
    return commands


def _cost_curve(seed: int, work: Path) -> Workload:
    money = _money(random.Random(seed))
    commands = []
    for M, kinds, defect in (
        (120, ("sweep", "optimize", "analyze"), None),
        (500, ("sweep", "optimize", "analyze"), None),
        (1000, ("sweep", "optimize", "analyze"), None),
        (2000, ("analyze",), "pois_cdf underflows at M = 2000: q0 reads 1.0"),
    ):
        nu = 1.0 + (M // 2 + 1)  # exact E[nu] at lambda_a = delta0 = delta = 1
        values = dict(M=M, lambda_a=1.0, delta0=1.0, delta=1.0, expected_nu=nu,
                      grid_size=101, tolerance=1e-5, **money)
        oracle = CostOracle(M, money["drone_value"], 1.0, 1.0, 1.0, nu,
                            money["ally_unit_cost"])
        commands += _cost_commands(work, f"M{M}", values, kinds, oracle, PROB_ABS,
                                   defect)
    warm = _write(work, "warm", dict(M=20, lambda_a=1.0, delta0=1.0, delta=1.0,
                                     expected_nu=12.0, **money))
    warmup = [[kind, "--config", str(warm), "--out", str(work / "warm.csv")]
              for kind in ("analyze", "sweep", "optimize")]
    return Workload("cost-curve", commands, warmup)


def _auto_nu(seed: int, work: Path) -> Workload:
    money = _money(random.Random(seed))
    commands = []
    for M in (20, 40):
        for delta0, delta in ((1.0, 1.0), (2.0, 0.5)):
            values = dict(M=M, lambda_a=1.0, delta0=delta0, delta=delta,
                          expected_nu="auto", grid_size=101, tolerance=1e-5, **money)
            nu = first_step_expected_nu(M, 1.0, delta0, delta)
            oracle = CostOracle(M, money["drone_value"], 1.0, delta0, delta, nu,
                                money["ally_unit_cost"])
            label = f"M{M}-d{delta0:g}-{delta:g}"
            commands += _cost_commands(work, label, values, ("analyze", "optimize"),
                                       oracle, AUTO_PROB_ABS)
    warm = _write(work, "warm", dict(M=8, lambda_a=1.0, delta0=1.0, delta=1.0,
                                     expected_nu="auto", **money))
    warmup = [["analyze", "--config", str(warm)]]
    return Workload("auto-nu", commands, warmup)


def _simulate(seed: int, work: Path) -> Workload:
    commands = []
    for shape, M, lambda_h, episodes in (
        ("short", 20, 0.5, SHORT_EPISODES),
        ("long", 120, 0.0, LONG_EPISODES),
    ):
        values = dict(M=M, drone_value=1500.0, lambda_a=1.0, lambda_h=lambda_h,
                      delta0=1.0, delta=1.0, expected_nu=1.0 + (M // 2 + 1),
                      rho=0.5, episodes=episodes, seed=seed)
        cfg = _write(work, shape, values)
        for workers in (1, 2):
            same_as = f"simulate {shape} 1w" if workers > 1 else None
            check = _simulate_check(M, 1.0, 1.0, lambda_h, episodes, same_as)
            argv = ["simulate", "--config", str(cfg), "--workers", str(workers)]
            commands.append(Command(f"simulate {shape} {workers}w", "simulate", argv,
                                    check, shape=shape, workers=workers,
                                    episodes=episodes))
    warm = _write(work, "warm", dict(M=20, drone_value=1500.0, lambda_a=1.0,
                                     delta0=1.0, delta=1.0, episodes=8192, seed=seed))
    warmup = [["simulate", "--config", str(warm), "--workers", str(w)] for w in (1, 2)]
    return Workload("simulate", commands, warmup)


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's configs under ``work`` and return its commands."""
    return {"cost-curve": _cost_curve, "auto-nu": _auto_nu,
            "simulate": _simulate}[name](seed, work)
