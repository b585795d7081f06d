"""Monte Carlo simulator of the attacker-vs-swarm observation process.

Observation epochs are exponentially spaced; attacker and honest node
counts accumulate as Poisson processes between epochs.  An episode ends
when the attacker first holds a strict majority (the exit index nu) or
when the epoch horizon is reached.  Each epoch's counts are drawn from
their exact joint law, with no interval length: the epoch total is
geometric and splits binomially between attacker and honest (Poisson
thinning).  Only episodes still live draw; finished ones leave the loop.

One kernel, ``_chunk``, runs the epoch loop for a chunk of episodes
driven by its own counter-based random streams keyed on (seed, chunk
index), and returns per-episode arrays, both strategies' bursts among
them: Regular is Safety with no allies, facing the same attack, so one
pass serves both.  ``estimate`` reduces chunks to integer sums,
``sample_exit_indices`` keeps their exit indices, and
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
# Largest mean count per epoch: an exponential draw times it must stay
# far inside int64 when cast to a count.
MAX_EPOCH_MEAN = 1e15


def _plan(params: SwarmParams, rho: float, episodes: int) -> list[int]:
    """Validate inputs before any chunk runs; return the chunks' sizes."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    epoch_mean = (params.lambda_a + params.lambda_h) * max(params.delta0, params.delta)
    if epoch_mean > MAX_EPOCH_MEAN:
        raise ValueError(
            "(lambda_a + lambda_h) * max(delta0, delta) must be at most "
            f"{MAX_EPOCH_MEAN:g} for the simulator, got {epoch_mean:g}"
        )
    return [min(CHUNK, episodes - start) for start in range(0, episodes, CHUNK)]


@dataclass(frozen=True)
class EpisodeOutcome:
    """One simulated game.

    nu/mu are None when the corresponding threshold was not reached by
    the time the episode ended (exit or horizon).  burst_safety is
    burst_regular (the attacker exits first) net of the allies.
    """

    nu: Optional[int]
    mu: Optional[int]
    a_prior: int
    a_exit: int
    allies: int
    burst_regular: bool
    burst_safety: bool
    censored: bool


@dataclass(frozen=True)
class SimStats:
    """Aggregated estimators over independent episodes.

    Rates are over all episodes (censored episodes count as no burst);
    mean_nu and mean_a_exit are over non-censored episodes only.
    """

    episodes: int
    burst_regular: float
    burst_regular_se: float
    burst_safety: float
    burst_safety_se: float
    prior_safe_rate: float
    prior_safe_se: float
    mean_nu: float
    mean_nu_se: float
    mean_a_exit: float
    censored_count: int


def _streams(seed: int, chunk: int):
    """Process and ally generators for one chunk, keyed on (seed, chunk).

    The key is built as uint64, so every seed modulo 2**64 is its own
    stream; a plain int list would turn keys >= 2**63 into float64.
    """
    base = seed % (1 << 64)
    process = np.random.Generator(
        np.random.Philox(key=np.array([base, 2 * chunk], dtype=np.uint64))
    )
    allies = np.random.Generator(
        np.random.Philox(key=np.array([base, 2 * chunk + 1], dtype=np.uint64))
    )
    return process, allies


def _chunk(
    params: SwarmParams,
    rho: float,
    seed: int,
    index: int,
    size: int,
    horizon: int,
) -> tuple[np.ndarray, ...]:
    """Simulate chunk ``index`` of ``size`` episodes: the one epoch loop.

    Returns per-episode arrays in EpisodeOutcome field order: nu, mu,
    a_prior, a_exit, allies, burst_regular, burst_safety, censored, with
    0 in nu/mu for a threshold not reached.

    Only live episodes draw.  ``live`` indexes the chunk rows still below
    the attacker threshold; their attacker count, honest count and mu are
    kept compacted beside it.  Each epoch draws the total count y of the
    epoch from its exact law P{y = k} = (1 - r) r^k, r = m / (1 + m),
    m = (lambda_a + lambda_h) d, d = delta0 at epoch 1 and delta after: a
    Poisson count over an exponential interval of mean d is geometric.  It
    is drawn by inversion, y = floor(E / log(1 + 1/m)) with E ~ Exp(1),
    so P{y >= k} = r^k.  The attacker share is x ~ Binomial(y, lambda_a /
    (lambda_a + lambda_h)) and the honest share y - x: each point of the
    merged Poisson process is the attacker's with that probability,
    independently of the interval (thinning), so the split holds given y.
    A row that crosses writes its outcome and leaves ``live``; rows still
    live at the horizon are censored, with a_prior = a_exit = their count.
    mu is tracked only while the episode is live, as the honest count at
    its exit epoch decides the burst.  The allies have their own stream,
    so rho changes nothing else, and at rho = 0 Safety is Regular.
    """
    rng, ally_rng = _streams(seed, index)
    threshold = majority_threshold(params.M)
    rate = params.lambda_a + params.lambda_h
    share = params.lambda_a / rate if rate > 0 else 0.0

    nu = np.zeros(size, dtype=np.int64)
    mu = np.zeros(size, dtype=np.int64)
    a_prior = np.zeros(size, dtype=np.int64)
    a_exit = np.zeros(size, dtype=np.int64)
    # Rows of the live episodes, and their attacker, honest and mu values.
    live = np.arange(size)
    attacker = np.zeros(size, dtype=np.int64)
    honest = np.zeros(size, dtype=np.int64)
    live_mu = np.zeros(size, dtype=np.int64)

    k = 0
    while live.size and k < horizon:
        k += 1
        m = rate * (params.delta0 if k == 1 else params.delta)
        scale = math.log1p(1.0 / m) if m > 0 else math.inf
        y = (rng.standard_exponential(live.size) / scale).astype(np.int64)
        if params.lambda_h > 0:
            x = rng.binomial(y, share)
            honest += y - x
            live_mu[(live_mu == 0) & (honest >= threshold)] = k
        else:
            x = y
        attacker += x
        crossing = attacker >= threshold
        if crossing.any():
            rows = live[crossing]
            nu[rows] = k
            mu[rows] = live_mu[crossing]
            a_exit[rows] = attacker[crossing]
            a_prior[rows] = a_exit[rows] - x[crossing]
            stay = ~crossing
            live, attacker, honest, live_mu = (
                live[stay], attacker[stay], honest[stay], live_mu[stay]
            )

    censored = np.zeros(size, dtype=bool)
    censored[live] = True
    mu[live] = live_mu
    a_prior[live] = a_exit[live] = attacker
    allies = ally_rng.binomial(params.candidates, rho, size=size)
    # mu never exceeds nu once set, so nu < mu reduces to mu unset.
    regular = ~censored & (mu == 0)
    safety = regular & (a_exit - allies >= threshold)
    return nu, mu, a_prior, a_exit, allies, regular, safety, censored


def simulate_episode(
    params: SwarmParams,
    seed: int,
    rho: float = 0.0,
    horizon: int = DEFAULT_HORIZON,
) -> EpisodeOutcome:
    """Simulate one game, deterministically in the seed: chunk 0 at size 1."""
    _plan(params, rho, 1)
    arrays = _chunk(params, rho, seed, 0, 1, horizon)
    nu, mu, *rest = (a[0].item() for a in arrays)
    return EpisodeOutcome(nu or None, mu or None, *rest)


def sample_exit_indices(
    params: SwarmParams,
    episodes: int,
    seed: int,
    horizon: int = DEFAULT_HORIZON,
) -> tuple[np.ndarray, int]:
    """Exit indices of non-censored episodes, plus the censored count.

    Runs the chunks of ``estimate``, so episode i here is episode i there.
    """
    sizes = _plan(params, 0.0, episodes)
    collected = []
    censored_total = 0
    for index, size in enumerate(sizes):
        nu, *_, censored = _chunk(params, 0.0, seed, index, size, horizon)
        censored_total += int(censored.sum())
        collected.append(nu[~censored])
    return np.concatenate(collected), censored_total


def estimate(
    params: SwarmParams,
    episodes: int,
    seed: int,
    rho: float = 0.0,
    horizon: int = DEFAULT_HORIZON,
    workers: int = 1,
) -> SimStats:
    """Aggregate independent episodes into SimStats, both strategies at once.

    Each chunk is reduced to integer sums as soon as it is simulated,
    and the sums are folded in chunk order, so the outcome is identical
    for any worker count.
    """
    sizes = _plan(params, rho, episodes)
    half = params.M / 2

    def run(index: int) -> tuple[int, ...]:
        nu, _, a_prior, a_exit, _, regular, safety, censored = _chunk(
            params, rho, seed, index, sizes[index], horizon
        )
        done = ~censored
        return (
            int(regular.sum()),
            int(safety.sum()),
            int((a_prior < half).sum()),
            int(nu[done].sum()),
            int((nu[done] ** 2).sum()),
            int(a_exit[done].sum()),
            int(censored.sum()),
            int(done.sum()),
        )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run, range(len(sizes))))
    sums = map(sum, zip(*results))
    regular, safety, safe, nu_sum, nu_sq, a_sum, censored, done = sums

    def rate(count: int) -> tuple[float, float]:
        """A share of the episodes and its binomial standard error."""
        share = count / episodes
        return share, math.sqrt(share * (1.0 - share) / episodes)

    if done > 0:
        mean_nu = nu_sum / done
        var_nu = max(nu_sq / done - mean_nu**2, 0.0)
        mean_nu_se = math.sqrt(var_nu / done)
        mean_a_exit = a_sum / done
    else:
        mean_nu = math.nan
        mean_nu_se = 0.0
        mean_a_exit = math.nan
    return SimStats(
        episodes,
        *rate(regular),
        *rate(safety),
        *rate(safe),
        mean_nu=mean_nu,
        mean_nu_se=mean_nu_se,
        mean_a_exit=mean_a_exit,
        censored_count=censored,
    )
