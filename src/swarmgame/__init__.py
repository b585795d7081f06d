"""Swarm majority-takeover defense model.

Analytic burst probabilities and defense costs, an exact exit-index
transform built on the absorbing chain of the attacker's observed count,
a Monte Carlo simulator of the attacker-vs-swarm observation process,
and a cost-minimizing ally-reservation optimizer.
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
    sigma_transform,
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
from .sim import REGULAR, SAFETY, EpisodeOutcome, SimStats, estimate, simulate_episode

__version__ = "0.1.0"

__all__ = [
    "AllyRequirement",
    "ConfigError",
    "CostBreakdown",
    "CostMatrix",
    "EpisodeOutcome",
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
    "sigma_transform",
    "simulate_episode",
    "sweep",
    "total_cost",
]
