"""Command-line interface: analyze, simulate, sweep, optimize.

All commands read a `key = value` config file; a few flags override
config values.  Curve output is CSV with a fixed schema so runs can be
diffed byte-for-byte and plotted with any external tool.

Only ``simulate`` runs the simulator: ``cli.estimate`` loads ``swarmgame.sim``
on first access (a PEP 562 module ``__getattr__``).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .config import ConfigError, RunConfig, parse_config
from .fluctuation import expected_exit_index
from .model import CostBreakdown, SwarmParams, _CostCurve
# Not called here: the benchmark's tracer patches this name (ROADMAP item 1).
from .model import total_cost  # noqa: F401
from .optimize import optimize as optimize_rho
from .optimize import sweep as sweep_curve

if TYPE_CHECKING:
    from .sim import SimStats

# The CSV's rows and analyze's printout are CostBreakdown tuples, in their
# field order.  A row is one %-format; "%.12g" formats a float as
# f"{x:.12g}" does.
COLUMNS = CostBreakdown._fields
_ROW = ",".join(["%.12g"] * len(COLUMNS)) + "\n"


def __getattr__(name: str):
    if name == "estimate":
        from .sim import estimate

        return estimate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _csv_rows(curve) -> str:
    return ",".join(COLUMNS) + "\n" + "".join([_ROW % row for row in curve])


def _write_csv(path: str, curve, summary: str = "") -> int:
    """Write the curve's CSV rows over the target in place, then cut a regular
    file to length (ext4 starts writeback at close of a file opened O_TRUNC);
    print summary and where they went; exit code 2, with nothing printed to
    stdout, if the path is unwritable."""
    out = Path(path)
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w") as f:
            f.write(_csv_rows(curve))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                f.truncate()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"{summary}wrote {len(curve)} grid points to {out}")
    return 0


def _notes(params: SwarmParams) -> None:
    """Say on stderr where the closed form prices another process than the
    config states: it ignores lambda_h, and a numeric expected_nu may lie
    more than a factor of 2 from the exact E[nu]."""
    if params.lambda_h > 0:
        print(f"note: the closed form ignores lambda_h = {_fmt(params.lambda_h)}; "
              "simulate draws the honest arrivals", file=sys.stderr)
    nu = params.expected_nu
    exact = math.inf if nu is None else expected_exit_index(params)
    if math.isfinite(exact) and not exact / 2 <= nu <= 2 * exact:
        print(f"note: expected_nu = {_fmt(nu)} is more than a factor of 2 from "
              f"the exact E[nu] = {_fmt(exact)} (expected_nu = auto)", file=sys.stderr)


def _resolve_params(params: SwarmParams) -> SwarmParams:
    """The exit-index transform sets an unset expected_nu."""
    if params.expected_nu is not None:
        return params
    if params.lambda_a == 0.0:
        raise RuntimeError(
            "auto expected_nu failed: the exit-index transform is singular "
            "(lambda_a = 0 means the attacker never exits)"
        )
    nu = expected_exit_index(params)
    if not math.isfinite(nu):
        raise RuntimeError("auto expected_nu failed: E[nu] overflows a float")
    return replace(params, expected_nu=nu)


# Fewer effective episodes are noted with Safety's rate.  At the benchmark's
# long shape (65 536 episodes) Safety rests on 1.21 effective episodes at
# seed 2026, a median of 2.7 over seeds 0-99, and lay within 3 se of the
# exact value for 42 of those 100 seeds.
_FEW_EPISODES = 100


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


def _cmd_analyze(config: RunConfig, params: SwarmParams, args) -> int:
    point = _CostCurve(_resolve_params(params)).breakdowns([config.rho])[0]
    for name, value in zip(COLUMNS, point):
        print(f"{name:<10} = {_fmt(value)}")
    return 0


def _cmd_simulate(config: RunConfig, params: SwarmParams, args) -> int:
    from .sim import REGULAR, SAFETY

    # Looked up at call time, so a value set on cli.estimate (a patch) runs.
    estimate = sys.modules[__name__].estimate
    # The simulator never reads expected_nu, so "auto" is left unresolved.
    try:
        stats = estimate(params, episodes=config.episodes,
                         seed=config.seed, rho=config.rho, workers=args.workers)
    except ValueError as exc:  # the simulator's bounds, checked before any chunk
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_stats(REGULAR, stats, stats.burst_regular, stats.burst_regular_se)
    _print_stats(SAFETY, stats, stats.burst_safety, stats.burst_safety_se)
    if 0 < stats.burst_safety_ess < _FEW_EPISODES:
        print(f"note: Safety's burst_rate rests on an effective sample of "
              f"{stats.burst_safety_ess:.3g} episodes, fewer than {_FEW_EPISODES}; "
              "its se may understate its error", file=sys.stderr)
    return 0


def _cmd_sweep(config: RunConfig, params: SwarmParams, args) -> int:
    params = _resolve_params(params)
    return _write_csv(args.out or "sweep.csv", sweep_curve(params, config.grid_size))


def _cmd_optimize(config: RunConfig, params: SwarmParams, args) -> int:
    params = _resolve_params(params)
    result = optimize_rho(params, tolerance=config.tolerance, grid_size=config.grid_size)
    summary = (f"rho_star   = {_fmt(result.rho_star)}\n"
               f"cost_star  = {_fmt(result.cost_star)}\n"
               f"feasible   = {result.feasible}\nn_required = {result.n_required}\n")
    return _write_csv(args.out or "optimize.csv", result.curve, summary)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
}


class _Parser(argparse.ArgumentParser):
    """argparse prints --help through ``_print_message``, which drops write
    errors: written directly, a closed stdout reaches ``main``."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


@functools.cache  # one parser per process, built on the first call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        help="kept for compatibility and checked (>= 1): simulate runs its "
        "chunks in one thread, as 2 threads never ran 1.5 times as fast as 1 "
        "(output is the same for any count)",
    )
    return parser


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in ("rho", "episodes", "seed")
        if getattr(args, key) is not None
    }
    try:
        config = parse_config(Path(args.config).read_text())
        if overrides:  # rebuilt, so overrides pass the same checks as keys
            config = replace(config, **overrides)
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    params = config.to_params()
    try:
        code = _COMMANDS[args.command](config, params, args)
    except (RuntimeError, MemoryError) as exc:
        cause = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {cause}{exc}", file=sys.stderr)
        return 1
    if code == 0 and args.command != "simulate":  # the closed form's commands
        _notes(params)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            return _run(argv)
        finally:  # argparse's --help exits through here too
            sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        if sys.stdout is not sys.__stdout__:  # redirected in process
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit
        return 1


if __name__ == "__main__":
    sys.exit(main())
