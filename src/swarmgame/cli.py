"""Command-line interface: analyze, simulate, sweep, optimize.

All commands read a `key = value` config file; a few flags override
config values.  Curve output is CSV with a fixed schema so runs can be
diffed byte-for-byte and plotted with any external tool.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, RunConfig, parse_config
from .fluctuation import expected_exit_index
from .model import SwarmParams, _CostCurve
# Not called here: the benchmark's tracer patches this name (ROADMAP item 1).
from .model import total_cost  # noqa: F401
from .optimize import optimize as optimize_rho
from .optimize import sweep as sweep_curve
from .sim import CHUNK, REGULAR, SAFETY, SimStats, estimate

# Column order of the CSV rows and of analyze's printout.
COLUMNS = ("rho", "ally_cost", "p_prior", "q0", "q1", "total")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _csv_rows(curve) -> str:
    rows = [COLUMNS] + [[_fmt(getattr(p, name)) for name in COLUMNS] for p in curve]
    return "".join(",".join(row) + "\n" for row in rows)


def _write_csv(path: str, curve) -> int:
    """Write the curve's CSV rows; exit code 2 if the path is unwritable."""
    out = Path(path)
    try:
        out.write_text(_csv_rows(curve))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(curve)} grid points to {out}")
    return 0


def _resolve_params(config: RunConfig) -> SwarmParams:
    """Build SwarmParams, running the exit-index transform in auto mode."""
    if config.expected_nu != "auto":
        return config.to_params()
    nu = expected_exit_index(config.to_params(expected_nu=3.0))
    if not math.isfinite(nu):
        raise RuntimeError(
            "auto expected_nu failed: the exit-index transform is singular "
            "(lambda_a = 0 means the attacker never exits)"
        )
    return config.to_params(expected_nu=nu)


def _print_stats(label: str, stats: SimStats, burst: float, burst_se: float) -> None:
    print(f"[{label}]")
    print(f"  episodes        = {stats.episodes}")
    print(f"  burst_rate      = {_fmt(burst)} (se {_fmt(burst_se)})")
    print(
        f"  prior_safe_rate = {_fmt(stats.prior_safe_rate)}"
        f" (se {_fmt(stats.prior_safe_se)})"
    )
    print(f"  mean_nu         = {_fmt(stats.mean_nu)} (se {_fmt(stats.mean_nu_se)})")
    print(f"  mean_a_exit     = {_fmt(stats.mean_a_exit)}")
    print(f"  censored        = {stats.censored_count}")


def _cmd_analyze(config: RunConfig, args) -> int:
    point = _CostCurve(_resolve_params(config)).breakdowns([config.rho])[0]
    for name in COLUMNS:
        print(f"{name:<10} = {_fmt(getattr(point, name))}")
    return 0


def _cmd_simulate(config: RunConfig, args) -> int:
    # The simulator never reads expected_nu, so "auto" is left unresolved.
    stats = estimate(
        config.to_params(expected_nu=1.0),
        episodes=config.episodes,
        seed=config.seed,
        rho=config.rho,
        workers=args.workers,
    )
    _print_stats(REGULAR, stats, stats.burst_regular, stats.burst_regular_se)
    _print_stats(SAFETY, stats, stats.burst_safety, stats.burst_safety_se)
    return 0


def _cmd_sweep(config: RunConfig, args) -> int:
    params = _resolve_params(config)
    return _write_csv(args.out or "sweep.csv", sweep_curve(params, config.grid_size))


def _cmd_optimize(config: RunConfig, args) -> int:
    params = _resolve_params(config)
    result = optimize_rho(params, tolerance=config.tolerance, grid_size=config.grid_size)
    print(f"rho_star   = {_fmt(result.rho_star)}")
    print(f"cost_star  = {_fmt(result.cost_star)}")
    print(f"feasible   = {result.feasible}")
    print(f"n_required = {result.n_required}")
    return _write_csv(args.out or "optimize.csv", result.curve)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmgame",
        description="Swarm majority-takeover defense: costs, simulation, optimization",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a key = value config")
    parser.add_argument("--rho", type=float, help="override the configured rho")
    parser.add_argument("--episodes", type=int, help="override simulation episodes")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--out", help="output CSV path for sweep/optimize")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=f"worker threads for simulate, one {CHUNK}-episode chunk each at a "
        "time (output is the same for any count); 2 workers on 2 cores "
        "measured 0.73-1.25x the episodes/s of 1 at M = 20 and 120",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in ("rho", "episodes", "seed")
        if getattr(args, key) is not None
    }
    try:
        # Overrides rebuild the config, so they pass the same checks as keys.
        config = replace(parse_config(Path(args.config).read_text()), **overrides)
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](config, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
