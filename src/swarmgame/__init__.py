"""Swarm majority-takeover defense model.

Analytic burst probabilities and defense costs, an exact exit-index
transform built on the absorbing chain of the attacker's observed count,
a Monte Carlo simulator of the attacker-vs-swarm observation process,
and a cost-minimizing ally-reservation optimizer.

The simulator's names load ``swarmgame.sim`` on first use (a PEP 562
module ``__getattr__``): the analytic commands never run it, so
importing the package does not load it.
"""

from .config import ConfigError, RunConfig, parse_config
from .fluctuation import (
    PathwiseEvents,
    TransformPoint,
    exit_index_pgf,
    expected_exit_index,
    interval_transform,
    pathwise_events,
    phi,
)
from .kernels import binom_pmf, pois_cdf, pois_pmf, pois_tail
from .model import (
    AllyRequirement,
    CostBreakdown,
    CostMatrix,
    StrategyChoice,
    SwarmParams,
    ally_cost,
    burst_prob_regular,
    burst_prob_safety,
    choose_strategy,
    exit_mean_count,
    majority_threshold,
    min_allies,
    prior_safe_prob,
    total_cost,
)
from .optimize import OptimalRho, optimize, sweep

__version__ = "0.1.0"

__all__ = [
    "AllyRequirement",
    "ConfigError",
    "CostBreakdown",
    "CostMatrix",
    "OptimalRho",
    "PathwiseEvents",
    "REGULAR",
    "RunConfig",
    "SAFETY",
    "SimStats",
    "StrategyChoice",
    "SwarmParams",
    "TransformPoint",
    "ally_cost",
    "binom_pmf",
    "burst_prob_regular",
    "burst_prob_safety",
    "choose_strategy",
    "estimate",
    "exit_index_pgf",
    "exit_mean_count",
    "expected_exit_index",
    "interval_transform",
    "majority_threshold",
    "min_allies",
    "optimize",
    "parse_config",
    "pathwise_events",
    "phi",
    "pois_cdf",
    "pois_pmf",
    "pois_tail",
    "prior_safe_prob",
    "sweep",
    "total_cost",
]

_SIM_NAMES = frozenset(("REGULAR", "SAFETY", "SimStats", "estimate"))


def __getattr__(name: str):
    if name in _SIM_NAMES:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
