"""Monte Carlo simulator of the attacker-vs-swarm observation process.

Observation epochs are exponentially spaced; attacker and honest node
counts accumulate as Poisson processes between epochs.  An episode ends
when the attacker first holds a strict majority (the exit index nu) or
when the epoch horizon is reached.

One kernel, ``_chunk``, runs the epoch loop for a chunk of episodes
driven by its own counter-based random stream keyed on (seed, chunk
index), and returns per-episode arrays.  ``estimate`` reduces chunks to
integer sums, ``sample_exit_indices`` keeps their exit indices, and
``simulate_episode`` is chunk 0 at size 1.  So results are bitwise
reproducible, independent of how chunks are scheduled across workers,
and ``simulate_episode(seed)`` is the single episode
``estimate(episodes=1, seed=seed)`` aggregates.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import SwarmParams, majority_threshold

__all__ = [
    "REGULAR",
    "SAFETY",
    "EpisodeOutcome",
    "SimStats",
    "simulate_episode",
    "estimate",
    "sample_exit_indices",
]

REGULAR = "Regular"
SAFETY = "Safety"

DEFAULT_HORIZON = 10_000
CHUNK = 4096


def _plan(strategy: str, rho: float, episodes: int) -> tuple[str, list[int]]:
    """Validate inputs; return the strategy name and the chunk sizes.

    The chunk layout depends only on the episode count.
    """
    name = strategy.capitalize()
    if name not in (REGULAR, SAFETY):
        raise ValueError(f"unknown strategy {strategy!r}; expected Regular or Safety")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    return name, [min(CHUNK, episodes - start) for start in range(0, episodes, CHUNK)]


@dataclass(frozen=True)
class EpisodeOutcome:
    """One simulated game.

    nu/mu are None when the corresponding threshold was not reached by
    the time the episode ended (exit or horizon).
    """

    nu: Optional[int]
    mu: Optional[int]
    a_prior: int
    a_exit: int
    allies: int
    burst: bool
    censored: bool


@dataclass(frozen=True)
class SimStats:
    """Aggregated estimators over independent episodes.

    Rates are over all episodes (censored episodes count as no burst);
    mean_nu and mean_a_exit are over non-censored episodes only.
    """

    episodes: int
    burst_rate: float
    burst_se: float
    prior_safe_rate: float
    prior_safe_se: float
    mean_nu: float
    mean_nu_se: float
    mean_a_exit: float
    censored_count: int


def _streams(seed: int, chunk: int):
    """Process and ally generators for one chunk, keyed on (seed, chunk)."""
    base = seed % (1 << 64)
    process = np.random.Generator(np.random.Philox(key=[base, 2 * chunk]))
    allies = np.random.Generator(np.random.Philox(key=[base, 2 * chunk + 1]))
    return process, allies


def _chunk(
    params: SwarmParams,
    strategy: str,
    rho: float,
    seed: int,
    index: int,
    size: int,
    horizon: int,
) -> tuple[np.ndarray, ...]:
    """Simulate chunk ``index`` of ``size`` episodes: the one epoch loop.

    Returns per-episode arrays in EpisodeOutcome field order: nu, mu,
    a_prior, a_exit, allies, burst, censored, with 0 in nu/mu for a
    threshold not reached.  mu is tracked only while the episode is
    active, as the honest count at its exit epoch decides the burst.
    """
    rng, ally_rng = _streams(seed, index)
    threshold = majority_threshold(params.M)

    attacker = np.zeros(size, dtype=np.int64)
    honest = np.zeros(size, dtype=np.int64)
    nu = np.zeros(size, dtype=np.int64)
    mu = np.zeros(size, dtype=np.int64)
    a_prior = np.zeros(size, dtype=np.int64)
    active = np.ones(size, dtype=bool)

    k = 0
    while active.any() and k < horizon:
        k += 1
        mean = params.delta0 if k == 1 else params.delta
        dt = rng.exponential(mean, size=size)
        x = rng.poisson(params.lambda_a * dt)
        z = rng.poisson(params.lambda_h * dt)
        honest += z
        mu[active & (mu == 0) & (honest >= threshold)] = k
        np.copyto(a_prior, attacker, where=active)
        np.add(attacker, x, out=attacker, where=active)
        crossing = active & (attacker >= threshold)
        nu[crossing] = k
        active &= ~crossing

    censored = active
    a_prior[censored] = attacker[censored]
    if strategy == SAFETY:
        allies = ally_rng.binomial(params.candidates, rho, size=size)
    else:
        allies = np.zeros(size, dtype=np.int64)
    # mu never exceeds nu once set, so nu < mu reduces to mu unset.
    burst = ~censored & (attacker - allies >= threshold) & (mu == 0)
    return nu, mu, a_prior, attacker, allies, burst, censored


def simulate_episode(
    params: SwarmParams,
    strategy: str,
    seed: int,
    rho: float = 0.0,
    horizon: int = DEFAULT_HORIZON,
) -> EpisodeOutcome:
    """Simulate one game, deterministically in the seed: chunk 0 at size 1."""
    strategy, _ = _plan(strategy, rho, 1)
    arrays = _chunk(params, strategy, rho, seed, 0, 1, horizon)
    nu, mu, *rest = (a[0].item() for a in arrays)
    return EpisodeOutcome(nu or None, mu or None, *rest)


def sample_exit_indices(
    params: SwarmParams,
    episodes: int,
    seed: int,
    horizon: int = DEFAULT_HORIZON,
) -> tuple[np.ndarray, int]:
    """Exit indices of non-censored episodes, plus the censored count.

    Runs the chunks of ``estimate`` with the Regular strategy, so
    episode i here is episode i there.
    """
    strategy, sizes = _plan(REGULAR, 0.0, episodes)
    collected = []
    censored_total = 0
    for index, size in enumerate(sizes):
        nu, *_, censored = _chunk(params, strategy, 0.0, seed, index, size, horizon)
        censored_total += int(censored.sum())
        collected.append(nu[~censored])
    return np.concatenate(collected), censored_total


def estimate(
    params: SwarmParams,
    strategy: str,
    episodes: int,
    seed: int,
    rho: float = 0.0,
    horizon: int = DEFAULT_HORIZON,
    workers: int = 1,
) -> SimStats:
    """Aggregate independent episodes into SimStats.

    Each chunk is reduced to integer sums as soon as it is simulated,
    and the sums are folded in chunk order, so the outcome is identical
    for any worker count.
    """
    strategy, sizes = _plan(strategy, rho, episodes)
    half = params.M / 2

    def run(index: int) -> tuple[int, ...]:
        nu, _, a_prior, a_exit, _, burst, censored = _chunk(
            params, strategy, rho, seed, index, sizes[index], horizon
        )
        done = ~censored
        return (
            int(burst.sum()),
            int((a_prior < half).sum()),
            int(nu[done].sum()),
            int((nu[done] ** 2).sum()),
            int(a_exit[done].sum()),
            int(censored.sum()),
            int(done.sum()),
        )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run, range(len(sizes))))
    burst, safe, nu_sum, nu_sq, exit_sum, censored, done = map(sum, zip(*results))

    n = episodes
    burst_rate = burst / n
    safe_rate = safe / n
    if done > 0:
        mean_nu = nu_sum / done
        var_nu = max(nu_sq / done - mean_nu**2, 0.0)
        mean_nu_se = math.sqrt(var_nu / done)
        mean_a_exit = exit_sum / done
    else:
        mean_nu = math.nan
        mean_nu_se = 0.0
        mean_a_exit = math.nan
    return SimStats(
        episodes=n,
        burst_rate=burst_rate,
        burst_se=math.sqrt(burst_rate * (1.0 - burst_rate) / n),
        prior_safe_rate=safe_rate,
        prior_safe_se=math.sqrt(safe_rate * (1.0 - safe_rate) / n),
        mean_nu=mean_nu,
        mean_nu_se=mean_nu_se,
        mean_a_exit=mean_a_exit,
        censored_count=censored,
    )
