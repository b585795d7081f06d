"""Monte Carlo simulator of the attacker-vs-swarm observation process.

Observation epochs are exponentially spaced; attacker and honest node
counts accumulate as Poisson processes between epochs.  An episode ends
when the attacker first holds a strict majority, at the exit index nu,
which nothing caps.

No epoch is stepped.  Epoch 1's captures are drawn from their exact law;
after it, epoch ends and captures are independent Poisson processes, and
the honest arrivals race the exit epoch's end once, in real time, so each
outcome is drawn from a few laws of arrival times (gamma) and of counts
(Poisson and geometric).  A chunk costs four numpy draws, seven at
lambda_h > 0, whatever the exit index; ``_chunk`` states the laws.  Only
a crossing at or past ``MAX_EXIT_TIME``, which keeps every count inside
int64, censors an episode.

No ally is drawn either: the allies are independent of the path, so each
episode's Safety value is the burst's probability given its path, whose
mean is Safety's probability and whose variance is never larger than the
indicator's (conditional Monte Carlo: Asmussen and Glynn, "Stochastic
Simulation", 2007, V.4).  A run whose exit counts can reach an allies'
cdf too wide to table (``kernels.binom_cdfs``) is refused before any chunk.
The prior epoch's safety is estimated the same way: given the count F of
epoch ends before the exit, P{a_prior < M/2} has a closed form, so
neither the last end's place nor the captures before it is drawn.

One kernel, ``_chunk``, draws a chunk of episodes from its own random
stream, SFC64 seeded by the chunk's child of the seed's SeedSequence
(``_streams``), both strategies' bursts among them: Regular is Safety
with no allies, facing the same attack.  ``_chunks`` runs a run's
chunks in order, in the caller's thread: ``estimate`` reduces each to
sums (``_chunk_sums``), ``sample_exit_indices`` keeps the exit indices,
and ``simulate_episode(seed)`` is chunk 0 at size 1, the episode
``estimate(episodes=1, seed=seed)`` averages.  ``estimate`` takes a
worker count but starts no thread, so one seed gives the same bytes at
any count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import binom_cdfs, check_binom_cdfs
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

CHUNK = 4096
# Largest mean capture count per epoch, lambda_a max(delta0, delta):
# epoch 1's captures and the exit epoch's overshoot, about an exponential
# draw times it, stay far inside int64.  No honest count is drawn.
MAX_EPOCH_MEAN = 1e15
# Latest crossing time after epoch 1, in units of delta, at which an
# episode exits; a later crossing censors it.  The counts drawn up to
# this time are Poisson with means below it, far under numpy's limit of
# about 9.2e18, so nu stays near 2**50 at most and a CHUNK of them sums
# to about 2**62, inside int64.
MAX_EXIT_TIME = 2.0**50
# Largest majority threshold: counts near it, plus an overshoot, stay
# inside int64.
MAX_THRESHOLD = 2**62


def _plan(params: SwarmParams, rho: float, episodes: int) -> int:
    """Validate inputs before any chunk runs; return the number of chunks."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    epoch_mean = params.lambda_a * max(params.delta0, params.delta)
    if epoch_mean > MAX_EPOCH_MEAN:
        raise ValueError(
            "lambda_a * max(delta0, delta) must be at most "
            f"{MAX_EPOCH_MEAN:g} for the simulator, got {epoch_mean:g}"
        )
    threshold = majority_threshold(params.M)
    if threshold > MAX_THRESHOLD:
        raise ValueError(
            f"the majority threshold M // 2 + 1 must be at most {MAX_THRESHOLD} "
            f"for the simulator, got {threshold}"
        )
    # a_exit - thr is at most the overshoot, or epoch 1's captures less thr.
    largest = max(_geometric_bound(params.lambda_a * params.delta0) - threshold,
                  _geometric_bound(params.lambda_a * params.delta))
    try:
        check_binom_cdfs(params.candidates, rho, largest)
    except ValueError as exc:
        raise ValueError(f"the exit counts can reach Safety's allies: {exc}; "
                         "lower M, rho or lambda_a") from None
    return -(-episodes // CHUNK)


def _chunks(draw, params: SwarmParams, rho: float, episodes: int, seed: int):
    """draw(params, rho, seed, index, size) for each chunk of the run, in
    chunk order, in the caller's thread; the run is validated (``_plan``)
    before any chunk is drawn."""
    chunks = _plan(params, rho, episodes)
    return (draw(params, rho, seed, index, min(CHUNK, episodes - index * CHUNK))
            for index in range(chunks))


@dataclass(frozen=True)
class EpisodeOutcome:
    """One simulated game: the values ``estimate`` averages over episodes.

    nu and a_exit are None for a censored episode.  burst_safety is the
    probability, given the path, that burst_regular (the attacker exits
    first) survives the allies B ~ Binomial(M/2 - 1, rho): P{B <= a_exit -
    thr} if it bursts, else 0.  prior_safe is likewise the probability,
    given the path, that the epoch before the exit was safe, a_prior < M/2
    (``_chunk``).
    """

    nu: Optional[int]
    a_exit: Optional[int]
    burst_regular: bool
    burst_safety: float
    prior_safe: float
    censored: bool


@dataclass(frozen=True)
class SimStats:
    """The means of ``EpisodeOutcome``'s values over independent episodes.

    The rates are over all episodes (a censored one counts as no burst);
    mean_nu and mean_a_exit are over the episodes not censored.  Each
    standard error is sqrt(m2) / n, m2 the values' squared deviations about
    their mean over n episodes.  burst_safety_ess is the Safety values'
    effective sample size (sum w)^2 / sum w^2 (Kish; the burst count where
    every w is 0 or 1): where it is small, the SE may understate the error.
    At odd M every prior-safe value is 1, so prior_safe_rate is 1 with SE 0.
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
    burst_safety_ess: float


def _streams(seed: int, chunk: int) -> np.random.Generator:
    """The generator of one chunk: SFC64 seeded by child ``chunk`` of
    ``SeedSequence(seed mod 2**64)``, the one ``spawn`` gives that index.

    The spawn key is hashed after the seed's words, padded to the pool size,
    so distinct (seed mod 2**64, chunk) pairs name distinct streams.  An
    entropy tuple ``(seed, chunk)`` would not: (2**32 + 5, 0) and (5, 1)
    both pad to the words 5, 1, 0, 0.
    """
    sequence = np.random.SeedSequence(seed % (1 << 64), spawn_key=(chunk,))
    return np.random.Generator(np.random.SFC64(sequence))


def _geometric(rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
    """Counts with P{y >= k} = r^k, r = mean / (1 + mean), by inversion.

    floor(E / log(1 + 1/mean)) with E ~ Exp(1); all 0 at mean 0.
    """
    scale = math.log1p(1.0 / mean) if mean > 0 else math.inf
    return (rng.standard_exponential(size) / scale).astype(np.int64)


def _geometric_bound(mean: float) -> int:
    """A bound on every count ``_geometric`` draws at the mean: numpy's
    standard_exponential is below 44.5, its ziggurat's tail r - log1p(-U)
    with r < 7.7 at U = 1 - 2^-53."""
    return int(45.0 / math.log1p(1.0 / mean)) if mean > 0 else 0


def _chunk(
    params: SwarmParams, rho: float, seed: int, index: int, size: int
) -> tuple[np.ndarray, ...]:
    """Draw chunk ``index`` of ``size`` episodes from their path laws.

    Returns per-episode arrays in EpisodeOutcome field order: nu, a_exit,
    burst_regular, burst_safety, prior_safe, censored, with 0 in nu and A1
    alone in a_exit for a censored episode.

    Epoch 1's end, at an exponential time of mean delta0, and the captures
    form one Poisson stream of rate lambda_a + 1 / delta0 whose points are
    captures with probability r = m / (1 + m), m = lambda_a delta0: A1,
    the captures before the end, is geometric, P{A1 >= k} = r^k, drawn by
    inversion.  If A1 >= thr the episode exits there: nu = 1, a_exit = A1.
    After epoch 1, time runs in units of delta, so epoch ends and captures
    are independent Poisson processes of rates 1 and a = lambda_a delta,
    and the laws below follow with s = thr - A1:

    - the s-th capture at X ~ Gamma(s) / a; the episode exits iff X <
      MAX_EXIT_TIME, else it is censored;
    - exit: the ends before X, a rate-1 Poisson process independent of
      X, number F ~ Poisson(X); nu = F + 2;
    - after X, captures and ends form one Poisson stream of rate 1 + a
      whose points are captures with probability a / (1 + a), apart from
      their times: the exit epoch holds O captures after X, P{O >= j} =
      (a / (1 + a))^j, so a_exit = thr + O, and ends at X + D, D ~
      Gamma(O + 1) / (1 + a).

    Every Poisson mean is below MAX_EXIT_TIME, so a = 0 or a tiny a delta
    (X = inf) simply censors, with no epoch stepped.

    The honest arrivals, a rate-lambda_h Poisson process independent of
    these, race once in real time: the honest side first holds thr at R ~
    Gamma(thr) / lambda_h, epoch 1 ends at its stream's (A1 + 1)-th point,
    T1 ~ Gamma(A1 + 1) / (lambda_a + 1 / delta0) given A1, and the exit
    epoch at T1, or after epoch 1 at T1 + delta (X + D).  Regular bursts
    iff the attacker exits first: the episode exits and R follows its exit
    epoch's end.  At lambda_h = 0, T1, D and R are not drawn.  Safety
    bursts iff Regular does and a_exit - thr covers the allies,
    Binomial(M/2 - 1, rho) in number: its value, averaged over them, is
    1{Regular} P{allies <= a_exit - thr}, 0 or 1 at rho = 0.

    The prior epoch is safe iff the attacker's count there, a_prior, is
    below M/2.  At odd M that always holds, as a_prior < thr = (M + 1) /
    2; at even M it fails iff a_prior = thr - 1, that is, iff all s - 1
    earlier captures precede the last of the F ends, or for a censored
    episode MAX_EXIT_TIME.  Given a Poisson process's k-th point, its
    first k - 1 points are uniform before it, so given F and X the
    captures are uniform on [0, X] and the last end sits at X B, B ~
    Beta(F, 1): the prior epoch is unsafe with probability E[B^(s - 1)] =
    F / (F + s - 1) (at F = 0, B = 0: 1 iff s = 1), or (MAX_EXIT_TIME /
    X)^(s - 1), and 0 for an epoch-1 exit.  The prior-safe value is 1
    less that: its mean is P{prior safe}, and its variance is never larger
    than the indicator's.
    """
    rng = _streams(seed, index)
    threshold = majority_threshold(params.M)
    a = params.lambda_a * params.delta

    # A1, X and O: epoch 1's captures, the s-th after it, the overshoot.
    a1 = _geometric(rng, params.lambda_a * params.delta0, size)
    exited = a1 >= threshold
    s = np.maximum(threshold - a1, 1)
    with np.errstate(over="ignore"):  # X = inf (never) at a = 0 or past the float range
        cross = rng.standard_gamma(s) / a if a > 0 else np.full(size, np.inf)
    done = ~exited & (cross < MAX_EXIT_TIME)
    censored = ~(exited | done)
    over = _geometric(rng, a, size)

    # F, the ends before X.
    ends = rng.poisson(np.where(done, cross, 0.0))
    nu = np.where(exited, 1, np.where(done, ends + 2, 0))
    a_exit = np.where(done, threshold + over, a1)
    regular = ~censored
    if params.lambda_h > 0:
        # T1, D and R: the honest majority R must follow the exit epoch's end.
        first = params.delta0 / (1.0 + params.lambda_a * params.delta0)
        with np.errstate(over="ignore"):
            end = rng.standard_gamma(a1 + 1) * first
            later = params.delta * (cross + rng.standard_gamma(over + 1) / (1.0 + a))
            end += np.where(exited, 0.0, later)
            regular &= rng.standard_gamma(threshold, size) / params.lambda_h > end
    safety = regular * binom_cdfs(a_exit - threshold, params.candidates, rho)
    # P{a_prior < M/2 | path}: 1 at odd M, else 1 - P{all s - 1 before X B}.
    if params.M % 2:
        safe = np.ones(size)
    else:
        k = s - 1
        safe = np.where(done, k / np.maximum(ends + k, 1), 1.0)
        safe[censored] = 1.0 - np.power(MAX_EXIT_TIME / cross[censored], k[censored])
    return nu, a_exit, regular, safety, safe, censored


def simulate_episode(
    params: SwarmParams, seed: int, rho: float = 0.0
) -> EpisodeOutcome:
    """Simulate one game, deterministically in the seed: chunk 0 at size 1."""
    values = [a[0].item() for a in next(_chunks(_chunk, params, rho, 1, seed))]
    if values[-1]:  # censored: no exit index or exit count
        values[:2] = None, None
    return EpisodeOutcome(*values)


def sample_exit_indices(
    params: SwarmParams, episodes: int, seed: int
) -> tuple[np.ndarray, int]:
    """Exit indices of non-censored episodes, plus the censored count.

    Draws the chunks of ``estimate``, so episode i here is episode i there.
    """
    collected = []
    censored_total = 0
    for nu, *_, censored in _chunks(_chunk, params, 0.0, episodes, seed):
        censored_total += int(censored.sum())
        collected.append(nu[~censored])
    return np.concatenate(collected), censored_total


def _moments(values: np.ndarray) -> tuple:
    """(count, sum, squared deviations about the mean) of ``values``; the sum
    is an exact int for integer values.  The deviations are taken about the
    values' own mean: E[v^2] - mean^2 would cancel where their spread is
    small beside it, as for nu at large M or prior-safe values near 1."""
    total = values.sum().item()
    deviation = values - (total / values.size if values.size else 0.0)
    return values.size, total, float((deviation**2).sum())


def _chunk_sums(params: SwarmParams, rho: float, seed: int, index: int, size: int) -> tuple:
    """Reduce chunk ``index``'s draws to ``estimate``'s sums: the count of
    censored episodes and a_exit's exact sum over the others, then the
    ``_moments`` of Regular (as 0.0 or 1.0), Safety and prior-safe over all
    episodes, and of nu over the episodes not censored."""
    nu, a_exit, regular, safety, safe, censored = _chunk(params, rho, seed, index, size)
    done = ~censored
    exits = a_exit[done]
    # A CHUNK of exit counts near a threshold of 2**62 sums to about
    # 2**74, so their high and low 32-bit words are summed apart.
    exit_sum = (int((exits >> 32).sum()) << 32) + int((exits & 0xFFFFFFFF).sum())
    return (int(censored.sum()), exit_sum, _moments(regular.astype(float)),
            _moments(safety), _moments(safe), _moments(nu[done]))


def _pooled(a: tuple, b: tuple) -> tuple:
    """Pool two (count, sum, squared deviations about the mean) parts: add
    the deviations and delta^2 n_a n_b / (n_a + n_b), delta the difference
    of the means (Chan, Golub and LeVeque, "Algorithms for computing the
    sample variance", 1983)."""
    (count, total, m2), (part_count, part_sum, part_m2) = a, b
    if count and part_count:
        delta = part_sum / part_count - total / count
        m2 += delta * delta * count * part_count / (count + part_count)
    return count + part_count, total + part_sum, m2 + part_m2


def estimate(
    params: SwarmParams,
    episodes: int,
    seed: int,
    rho: float = 0.0,
    workers: int = 1,
) -> SimStats:
    """Average independent episodes' values into SimStats, both strategies
    at once.

    Each chunk's draws are reduced to sums as they are drawn
    (``_chunk_sums``), and the sums are folded in chunk order, every mean's
    by ``_pooled``, all in the caller's thread, so the outcome is the same
    at any worker count by construction.  ``workers`` is validated and kept
    for compatibility, but starts no thread: when the caller's thread and a
    helper thread shared the chunks, 2 workers ran at 0.97-1.43 times 1
    worker's rate, never the 1.5 that would pay for the second CPU (medians
    in process, on the benchmark's two shapes at 2^17 and 2^20 episodes,
    2-vCPU VM).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    censored, a_sum, moments = 0, 0, [(0, 0, 0.0)] * 4
    for part_censored, part_a_sum, *parts in _chunks(_chunk_sums, params, rho, episodes, seed):
        censored += part_censored
        a_sum += part_a_sum
        moments = [_pooled(a, b) for a, b in zip(moments, parts)]
    regular, safety, safe, nu = moments

    def mean(part: tuple) -> tuple[float, float]:
        """The mean of a (count, sum, squared deviations) part, and its SE."""
        count, total, m2 = part
        return (total / count, math.sqrt(m2 / count / count)) if count else (math.nan, 0.0)

    mean_nu, mean_nu_se = mean(nu)
    _, weight, weight_m2 = safety
    return SimStats(
        episodes,
        *mean(regular),
        *mean(safety),
        *mean(safe),
        mean_nu=mean_nu,
        mean_nu_se=mean_nu_se,
        mean_a_exit=a_sum / nu[0] if nu[0] else math.nan,
        censored_count=censored,
        # (sum w)^2 / sum w^2, with sum w^2 = m2 + (sum w)^2 / E.
        burst_safety_ess=weight * weight / (weight_m2 + weight * weight / episodes)
        if weight else 0.0,
    )
