"""Monte Carlo simulator of the attacker-vs-swarm observation process.

Observation epochs are exponentially spaced; attacker and honest node
counts accumulate as Poisson processes between epochs.  An episode ends
when the attacker first holds a strict majority, at the exit index nu,
which nothing caps.

No epoch is stepped.  Epoch 1's counts are drawn from their exact law;
after it, epoch ends, captures and honest arrivals are independent
Poisson processes, so each outcome is drawn from a few laws of their
arrival times (gamma) and of the counts around them (Poisson, or
binomial, as a Poisson process's points given their count on an
interval are uniform there).  A chunk costs at most ten numpy draws
whatever the exit index; ``_chunk`` states the laws.  Only a crossing at
or past ``MAX_EXIT_TIME``, which keeps every count inside int64, censors
an episode.

No ally is drawn either: the allies are independent of the path, so each
episode's Safety value is the burst's probability given its path, whose
mean is Safety's probability and whose variance is never larger than the
indicator's (conditional Monte Carlo: Asmussen and Glynn, "Stochastic
Simulation", 2007, V.4).  A run whose exit counts can reach an allies'
cdf too wide to table (``kernels.binom_cdfs``) is refused before any chunk.

One kernel, ``_chunk``, draws a chunk of episodes from its own
counter-based random stream keyed on (seed, chunk index), both
strategies' bursts among them: Regular is Safety with no allies, facing
the same attack.  ``estimate`` reduces each chunk to sums
(``_chunk_sums``) and ``sample_exit_indices`` keeps the exit indices,
both skipping mu's split, and ``simulate_episode(seed)`` is chunk 0 at
size 1, the episode ``estimate(episodes=1, seed=seed)`` aggregates.  So
results are bitwise reproducible for any worker count.
"""

from __future__ import annotations

import math
import os
import queue
import threading
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
# Largest mean count per epoch: epoch 1's count and the exit epoch's
# overshoot, about an exponential draw times it, must stay far inside
# int64.
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
    epoch_mean = (params.lambda_a + params.lambda_h) * max(params.delta0, params.delta)
    if epoch_mean > MAX_EPOCH_MEAN:
        raise ValueError(
            "(lambda_a + lambda_h) * max(delta0, delta) must be at most "
            f"{MAX_EPOCH_MEAN:g} for the simulator, got {epoch_mean:g}"
        )
    threshold = majority_threshold(params.M)
    if threshold > MAX_THRESHOLD:
        raise ValueError(
            f"the majority threshold M // 2 + 1 must be at most {MAX_THRESHOLD} "
            f"for the simulator, got {threshold}"
        )
    # a_exit - thr is at most the overshoot, or epoch 1's total less thr.
    largest = max(_geometric_bound((params.lambda_a + params.lambda_h) * params.delta0)
                  - threshold, _geometric_bound(params.lambda_a * params.delta))
    try:
        check_binom_cdfs(params.candidates, rho, largest)
    except ValueError as exc:
        raise ValueError(f"the exit counts can reach Safety's allies: {exc}; "
                         "lower M, rho or lambda_a") from None
    return -(-episodes // CHUNK)


@dataclass(frozen=True)
class EpisodeOutcome:
    """One simulated game.

    nu/mu are None when the corresponding threshold was not reached by
    the time the episode ended: its exit, or for a censored episode
    ``MAX_EXIT_TIME``, at which its counts are taken.  burst_safety is the
    probability, given the path, that burst_regular (the attacker exits
    first) survives the allies B ~ Binomial(M/2 - 1, rho): P{B <= a_exit -
    thr} if it bursts, else 0.
    """

    nu: Optional[int]
    mu: Optional[int]
    a_prior: int
    a_exit: int
    burst_regular: bool
    burst_safety: float
    censored: bool


@dataclass(frozen=True)
class SimStats:
    """Aggregated estimators over independent episodes.

    Rates are over all episodes (censored episodes count as no burst);
    mean_nu and mean_a_exit are over non-censored episodes only.  Safety
    is the mean of the episodes' burst probabilities given their paths
    (``EpisodeOutcome.burst_safety``), with their standard error and
    effective sample size (sum w)^2 / sum w^2 (Kish; the burst count where
    every w is 0 or 1): where it is small, the SE may understate the error.
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


# Each thread's generator, re-keyed for every chunk.
_local = threading.local()


def _streams(seed: int, chunk: int) -> np.random.Generator:
    """The generator of one chunk, keyed on (seed, chunk).

    A Philox stream is fixed by its key and counter alone, so this thread's
    generator is re-keyed in place: counter 0, key (seed modulo 2**64,
    2 chunk), and an empty buffer, the state a new ``Philox(key=...)``
    starts in.  It is valid until this thread's next call.  The odd keys
    are left unused, so no draw moved when the allies' stream went.
    """
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed % (1 << 64), 2 * chunk)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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


def _arrival(rng: np.random.Generator, count: np.ndarray, rate: float) -> np.ndarray:
    """Time of the count-th point of a rate-``rate`` Poisson process.

    A Gamma(count) draw over the rate; inf (never) at rate 0, and where
    the time overflows the float range, as it may at tiny rates.
    """
    if rate == 0:
        return np.full(count.shape, np.inf)
    with np.errstate(over="ignore"):
        return rng.standard_gamma(count) / rate


def _chunk(
    params: SwarmParams,
    rho: float,
    seed: int,
    index: int,
    size: int,
    split: bool = True,
) -> tuple[np.ndarray, ...]:
    """Draw chunk ``index`` of ``size`` episodes from their path laws.

    Returns per-episode arrays in EpisodeOutcome field order: nu, mu,
    a_prior, a_exit, burst_regular, burst_safety, censored, with 0 in
    nu/mu for a threshold not reached; mu is None unless ``split``.

    Epoch 1 is drawn as a count: its total y is geometric, P{y >= k} =
    r^k with r = m / (1 + m), m = (lambda_a + lambda_h) delta0, by
    inversion, and splits as A1 ~ Binomial(y, lambda_a / (lambda_a +
    lambda_h)) and H1 = y - A1 (thinning).  If A1 >= thr the episode exits
    there: nu = 1, a_prior = 0, a_exit = A1, mu = 1 iff H1 >= thr.
    After epoch 1, time runs in units of delta, so epoch ends, captures
    and honest arrivals are independent Poisson processes of rates 1, a
    = lambda_a delta and h = lambda_h delta, and the laws below follow
    with s = thr - A1, t = thr - H1:

    - the s-th capture at X ~ Gamma(s) / a and the t-th honest arrival
      at Y ~ Gamma(t) / h; the episode exits iff X < MAX_EXIT_TIME, else
      it is censored and its counts are those at MAX_EXIT_TIME;
    - exit: the ends before X, a rate-1 Poisson process independent of
      X, number F ~ Poisson(X); nu = F + 2;
    - the last of those F ends, uniform on [0, X], sits at X B with B ~
      Beta(F, 1), and of the s - 1 earlier captures, uniform on [0, X],
      Binomial(s - 1, B) precede it: a_prior = A1 + that count;
    - after X, captures and ends form one Poisson stream of rate 1 + a
      whose points are captures with probability a / (1 + a), apart from
      their times: the exit epoch holds O captures after X, P{O >= j} =
      (a / (1 + a))^j, so a_exit = thr + O, and ends at X + D, D ~
      Gamma(O + 1) / (1 + a);
    - censored: of the s - 1 captures before X, uniform on [0, X],
      Binomial(s - 1, MAX_EXIT_TIME / X) precede MAX_EXIT_TIME: a_prior
      = a_exit = A1 + that;
    - mu: the honest side reaches thr by the exit epoch's end X + D
      (censored: by MAX_EXIT_TIME) iff Y precedes it.  Then mu - 2
      counts the ends before Y: Binomial(F - 1, Y / (X B)) if Y < X B,
      as the F - 1 ends before X B are uniform on it, else F (Y falls in
      the exit epoch); censored, Poisson(Y).  mu = 1 if H1 >= thr.

    Given a Poisson process's count on an interval, its points are
    uniform there, and given its k-th point, its first k - 1 points are
    uniform before it: that is why the splits above are binomial, and
    why the processes' order within an epoch need not be drawn.  Every
    Poisson mean is below MAX_EXIT_TIME, so a = 0 or a tiny a delta (X =
    inf) simply censors, with no epoch stepped.

    Regular bursts iff the attacker exits first, nu < mu.  mu never
    exceeds nu once set, so that is mu unset: not censored, no settled
    race, H1 < thr.  So the bursts need no mu, and mu's split, the
    stream's last draw, is skipped unless ``split``, which moves no other
    draw.  Safety bursts iff Regular does and a_exit - thr covers the
    allies, Binomial(M/2 - 1, rho) in number: its value, averaged over
    them, is 1{Regular} P{allies <= a_exit - thr}, 0 or 1 at rho = 0.
    """
    rng = _streams(seed, index)
    threshold = majority_threshold(params.M)
    rate = params.lambda_a + params.lambda_h
    share = params.lambda_a / rate if rate > 0 else 0.0
    a = params.lambda_a * params.delta

    # Epoch 1: a geometric total split by thinning.
    y = _geometric(rng, rate * params.delta0, size)
    a1 = rng.binomial(y, share) if params.lambda_h > 0 else y
    h1 = y - a1
    exited = a1 >= threshold
    alive = ~exited

    # X and Y: the s-th capture, the t-th honest arrival.
    s = np.maximum(threshold - a1, 1)
    cross = _arrival(rng, s, a)
    race = _arrival(rng, np.maximum(threshold - h1, 1), params.lambda_h * params.delta)
    done = alive & (cross < MAX_EXIT_TIME)
    censored = alive ^ done

    # O, and the honest race, settled by the exit epoch's end or the bound.
    over = _geometric(rng, a, size)
    if params.lambda_h > 0:
        end = cross + rng.standard_gamma(over + 1) / (1.0 + a)
    else:
        end = cross  # race is inf: never settled
    settled = alive & (race < np.where(done, end, MAX_EXIT_TIME))

    # F, the ends before X; censored, the ends before a settled Y.
    counts = rng.poisson(np.where(done, cross, np.where(settled, race, 0.0)))
    ends = np.where(done, counts, 0)
    # B, the last of the F ends as a share of X (0 if none).
    frac = rng.random(size) ** (1.0 / np.maximum(ends, 1))
    frac[ends == 0] = 0.0
    # The captures before X B, or censored, before the bound (s = 1 if exited).
    before = rng.binomial(
        s - 1,
        np.where(done, frac, MAX_EXIT_TIME / np.maximum(cross, MAX_EXIT_TIME)),
    )

    nu = np.where(exited, 1, np.where(done, ends + 2, 0))
    prior = a1 + before
    a_exit = np.where(done, threshold + over, prior)
    a_prior = np.where(exited, 0, prior)
    regular = ~(censored | settled) & (h1 < threshold)
    safety = regular * binom_cdfs(a_exit - threshold, params.candidates, rho)
    if not split:
        return nu, None, a_prior, a_exit, regular, safety, censored
    # The ends before Y when it precedes X B: uniform on [0, X B], drawn only
    # there, as numpy draws nothing at n = 0 or p = 0.  Elsewhere the counts
    # already are the ends before a settled Y.
    last = np.where(done, cross, 0.0) * frac
    inside = done & settled & (race < last)
    counts[inside] = rng.binomial(counts[inside] - 1, race[inside] / last[inside])
    mu = np.where(settled, counts + 2, 0)
    mu[h1 >= threshold] = 1
    return nu, mu, a_prior, a_exit, regular, safety, censored


def simulate_episode(
    params: SwarmParams, seed: int, rho: float = 0.0
) -> EpisodeOutcome:
    """Simulate one game, deterministically in the seed: chunk 0 at size 1."""
    _plan(params, rho, 1)
    arrays = _chunk(params, rho, seed, 0, 1)
    nu, mu, *rest = (a[0].item() for a in arrays)
    return EpisodeOutcome(nu or None, mu or None, *rest)


def sample_exit_indices(
    params: SwarmParams, episodes: int, seed: int
) -> tuple[np.ndarray, int]:
    """Exit indices of non-censored episodes, plus the censored count.

    Draws the chunks of ``estimate``, so episode i here is episode i there.
    """
    collected = []
    censored_total = 0
    for index in range(_plan(params, 0.0, episodes)):
        size = min(CHUNK, episodes - index * CHUNK)
        nu, *_, censored = _chunk(params, 0.0, seed, index, size, split=False)
        censored_total += int(censored.sum())
        collected.append(nu[~censored])
    return np.concatenate(collected), censored_total


def _chunk_sums(
    params: SwarmParams, rho: float, seed: int, index: int, size: int
) -> tuple[list, tuple[int, int, float]]:
    """Reduce chunk ``index``'s draws to ``estimate``'s sums: the count of
    Regular bursts, the sums of the Safety values and of their squares, the
    counts of a_prior < M/2 and of censored episodes, and a_exit's sum,
    then (count, sum, squared deviations about the mean) of nu, both over
    the episodes not censored.

    The counts and a_exit's sum are exact integers.  nu's squared
    deviations are taken about the chunk's own mean: E[nu^2] - mean^2 would
    cancel where nu's spread is small beside its mean, as at large M.
    """
    nu, _, a_prior, a_exit, regular, safety, censored = _chunk(
        params, rho, seed, index, size, split=False
    )
    counts = [int(np.count_nonzero(c)) for c in (regular, a_prior < params.M / 2, censored)]
    sums = [counts[0], float(safety.sum()), float((safety * safety).sum()), *counts[1:]]
    kept = ~censored if counts[-1] else slice(None)
    nu, exits = nu[kept], a_exit[kept]
    total = int(nu.sum())
    # A CHUNK of exit counts near a threshold of 2**62 sums to about
    # 2**74, so their high and low 32-bit words are summed apart.
    exit_sum = (int((exits >> 32).sum()) << 32) + int((exits & 0xFFFFFFFF).sum())
    deviation = nu - (total / nu.size if nu.size else 0.0)
    return sums + [exit_sum], (nu.size, total, float((deviation**2).sum()))


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


def _in_order(fn, count: int, threads: int):
    """Yield fn(0), ..., fn(count - 1) in order, computed by ``threads``
    workers: the caller's thread computes the calls ``index % threads == 0``
    as it reaches them, and each of ``threads - 1`` helper threads its own
    residue, ahead of the caller by at most two results not yet folded.

    A helper's result is folded when the caller asks for the next one, which
    frees the helper's slot; a helper's exception is raised at its call's
    turn.  The caller waits only for the result it is due to yield, which
    its helper computes at once or has already computed, so it never waits
    on the bound.  On every exit the helpers are stopped and joined.
    """
    stop = threading.Event()
    helpers = []

    def helper(worker: int, slots: threading.Semaphore, results: queue.SimpleQueue):
        for index in range(worker, count, threads):
            slots.acquire()
            if stop.is_set():
                return
            try:
                results.put((fn(index), None))
            except BaseException as error:  # raised again by the caller
                results.put((None, error))
                return

    try:
        for worker in range(1, threads):
            slots, results = threading.Semaphore(2), queue.SimpleQueue()
            # A daemon: a generator left suspended must not block exit.
            thread = threading.Thread(target=helper, args=(worker, slots, results),
                                      daemon=True)
            thread.start()
            helpers.append((thread, slots, results))
        for index in range(count):
            worker = index % threads
            if worker == 0:
                yield fn(index)
                continue
            _, slots, results = helpers[worker - 1]
            result, error = results.get()
            if error is not None:
                raise error
            yield result
            slots.release()
    finally:
        stop.set()
        for thread, slots, _ in helpers:
            slots.release()  # wakes a helper waiting for a slot
            thread.join()


def estimate(
    params: SwarmParams,
    episodes: int,
    seed: int,
    rho: float = 0.0,
    workers: int = 1,
) -> SimStats:
    """Aggregate independent episodes into SimStats, both strategies at once.

    Each chunk's draws are reduced to sums as they are drawn
    (``_chunk_sums``), and the sums are folded in chunk order, so the
    outcome is identical for any worker count; ``_pooled`` pools nu's
    squared deviations.  Safety's standard error, sqrt(s (sum w^2 / sum w -
    s) / E) for values w of mean s over E episodes, is the rates' binomial
    one bit for bit where every w is 0 or 1.  No more threads run than
    there are chunks or CPUs this process may run on: one is the caller's
    own, which also computes its share of the chunks when more run
    (``_in_order``).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunks = _plan(params, rho, episodes)

    def run(index: int) -> tuple[list, tuple[int, int, float]]:
        size = min(CHUNK, episodes - index * CHUNK)
        return _chunk_sums(params, rho, seed, index, size)

    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    sums, pooled = [0] * 6, (0, 0, 0.0)
    for part_sums, part in _in_order(run, chunks, min(workers, chunks, cpus)):
        sums = [a + b for a, b in zip(sums, part_sums)]
        pooled = _pooled(pooled, part)
    regular, weight, weight_sq, safe, censored, a_sum = sums
    done, nu_sum, nu_m2 = pooled

    def rate(count, ratio=1.0) -> tuple[float, float]:
        """A mean count / E of values w, and its standard error; ratio is
        sum w^2 / sum w, 1 where every w is 0 or 1."""
        share = count / episodes
        return share, math.sqrt(max(share * (ratio - share), 0.0) / episodes)

    if done > 0:
        mean_nu = nu_sum / done
        mean_nu_se = math.sqrt(nu_m2 / done / done)
        mean_a_exit = a_sum / done
    else:
        mean_nu = math.nan
        mean_nu_se = 0.0
        mean_a_exit = math.nan
    return SimStats(
        episodes,
        *rate(regular),
        *rate(weight, weight_sq / weight if weight else 0.0),
        *rate(safe),
        mean_nu=mean_nu,
        mean_nu_se=mean_nu_se,
        mean_a_exit=mean_a_exit,
        censored_count=censored,
        burst_safety_ess=weight * weight / weight_sq if weight else 0.0,
    )
