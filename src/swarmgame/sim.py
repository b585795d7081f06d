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
whatever the exit index; its two binomials of a fixed p, the allies and
epoch 1's thinning, are numpy's own draws read off cached tables, one
guide-table lookup a draw whatever the count (``_binomial``); ``_draws``
states the laws.  Only a crossing at or past ``MAX_EXIT_TIME``, which
keeps every count inside int64, censors an episode.

One kernel, ``_draws``, draws a chunk of episodes from its own
counter-based random streams keyed on (seed, chunk index), both
strategies' bursts among them: Regular is Safety with no allies, facing
the same attack, so one pass serves both.  Its readers take what they
need from the same draws: ``_chunk`` adds mu's split and returns
per-episode arrays, ``estimate`` reduces each chunk straight to sums
(``_chunk_sums``), ``sample_exit_indices`` keeps the exit indices, and
``simulate_episode`` is ``_chunk`` 0 at size 1.  So results are bitwise
reproducible, independent of how chunks are scheduled across workers
(the caller's thread is one of them, each other a plain thread), and
``simulate_episode(seed)`` is the single episode
``estimate(episodes=1, seed=seed)`` aggregates.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
# Ulps of 1 per table entry within which a uniform is near a cut (``_binomial``).
_CUT_ULPS = 4
# Buckets of [0, 1) in each row of a guide table (``_binomial_table``):
# powers of two, so a uniform's bucket is its word's top bits and k /
# buckets is exact.  One count's table has _GUIDE; the thinning's has _ROWS
# rows of _ROW_GUIDE, counts 0 to _ROWS - 1, each drawn by numpy's
# inversion (n p <= 30 at any p <= 0.5), about 0.2 MB in all, so the table
# stays in cache.
_GUIDE = 4096
_ROW_GUIDE = 512
_ROWS = 48


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
    return -(-episodes // CHUNK)


@dataclass(frozen=True)
class EpisodeOutcome:
    """One simulated game.

    nu/mu are None when the corresponding threshold was not reached by
    the time the episode ended: its exit, or for a censored episode
    ``MAX_EXIT_TIME``, at which its counts are taken.  burst_safety is
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


# Each thread's process and ally generators, re-keyed for every chunk.
_local = threading.local()


def _streams(seed: int, chunk: int):
    """Process and ally generators for one chunk, keyed on (seed, chunk).

    A Philox stream is fixed by its key and counter alone, so this thread's
    pair of generators is re-keyed in place: counter 0, key (seed modulo
    2**64, 2 chunk + s) for s = 0, 1, and an empty buffer, the state a new
    ``Philox(key=...)`` starts in.  They are valid until this thread's next
    call.
    """
    pair = getattr(_local, "streams", None)
    if pair is None:
        pair = _local.streams = (
            np.random.Generator(np.random.Philox(0)),
            np.random.Generator(np.random.Philox(0)),
        )
    base = seed % (1 << 64)
    for s, rng in enumerate(pair):
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (base, 2 * chunk + s)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    return pair


def _geometric(rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
    """Counts with P{y >= k} = r^k, r = mean / (1 + mean), by inversion.

    floor(E / log(1 + 1/mean)) with E ~ Exp(1); all 0 at mean 0.
    """
    scale = math.log1p(1.0 / mean) if mean > 0 else math.inf
    return (rng.standard_exponential(size) / scale).astype(np.int64)


def _arrival(rng: np.random.Generator, count: np.ndarray, rate: float) -> np.ndarray:
    """Time of the count-th point of a rate-``rate`` Poisson process.

    A Gamma(count) draw over the rate; inf (never) at rate 0, and where
    the time overflows the float range, as it may at tiny rates.
    """
    if rate == 0:
        return np.full(count.shape, np.inf)
    with np.errstate(over="ignore"):
        return rng.standard_gamma(count) / rate


def _edges(n: int, p: float, ulps: float) -> np.ndarray:
    """The edges a uniform U is counted against for Binomial(n, p), p <= 0.5
    (none at n = 0, where numpy draws nothing).

    numpy walks U down the pmf terms px_x (U -= px_x while U > px_x): x is
    the first count whose cumulative pmf reaches U, its terms built here by
    numpy's own expressions.  The walk and the sums drift apart by up to an
    ulp a term, so each cut widens to cut +- tol, tol = ulps (bound + 2) ulps
    of 1; the edges are those windows' ends, made nondecreasing, the last
    dropped.  The edges below U are odd in number iff U is near a cut or past
    the bound (where numpy redraws), else 2x.
    """
    if n == 0:
        return np.empty(0)
    q = 1.0 - p
    bound = int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1)))
    terms = [math.exp(n * math.log(q))]
    for x in range(1, bound + 1):
        terms.append((n - x + 1) * p * terms[-1] / (x * q))
    cut = np.cumsum(terms)
    tol = ulps * (bound + 2) * 2.0**-53
    return np.maximum.accumulate(np.column_stack((cut - tol, cut + tol)).ravel()[:-1])


@functools.lru_cache(maxsize=32)
def _binomial_table(
    prob: float, counts: range, buckets: int, ulps: float
) -> tuple[np.ndarray, ...]:
    """Guide tables of numpy's Binomial(n, prob), one row of ``buckets``
    per count n in ``counts``: (guide, keys, draws), built once per (prob,
    counts, buckets, ulps), read only.

    A draw inverts a uniform u = U / 2**53, U the top 53 bits of a 64-bit
    word, and row r reads it as the key r 2**53 + U.  With p = min(prob, 1 -
    prob), j counts row r's edges (``_edges``) below u, and the draw is x =
    j / 2, or n - x if prob > 0.5; an odd j is near a cut or past the bound.
    guide[r, b] is the draw where j is even and constant on bucket b, [b, b
    + 1) / buckets, else -1: Chen and Asau's guide table (Devroye,
    "Non-Uniform Random Variate Generation", 1986, III.2.4).  keys holds
    every row's edges in one sorted array, row r's as r 2**53 + floor(2**53
    edge), clipped to [-1, 2**53 - 1], closed by (r + 1) 2**53 - 1, which no
    key of row r passes; u lies above an edge iff U lies above its floor.  So
    the keys below a key of row r are every earlier row's, an even number,
    and j of row r's; draws holds the draw at each such count.
    """
    p = min(prob, 1.0 - prob)
    points = np.arange(buckets + 1) / buckets
    guide, keys, draws = [], [], []
    for r, n in enumerate(counts):
        edges = _edges(n, p, ulps)

        def draw(j: np.ndarray) -> np.ndarray:
            return j // 2 if prob <= 0.5 else n - j // 2

        first = edges.searchsorted(points)
        below = first[:-1]
        guide.append(np.where((first[1:] == below) & (below % 2 == 0), draw(below), -1))
        if edges.size:
            floor = np.floor(np.clip(edges * 2.0**53, -1.0, 2.0**53 - 1)).astype(np.int64)
            keys.append((r << 53) + np.append(floor, 2**53 - 1))
            draws.append(draw(np.arange(edges.size + 1)))
    table = (np.stack(guide), np.concatenate(keys), np.concatenate(draws))
    for array in table:
        array.flags.writeable = False
    return table


def _invert(table: tuple[np.ndarray, ...], key: np.ndarray) -> tuple[np.ndarray, bool]:
    """Each key's draw off ``table`` (``_binomial_table``), and whether any
    lies near a cut or past the bound.

    The guide gives the draw where the key's bucket, its top bits below the
    row, holds no edge of its row; only the rest are searched: under 1% of
    the uniforms for one count at n = 9 and 59, p = 0.5, and for the
    thinning of counts of mean 1.5 at p = 1/3.
    """
    guide, keys, draws = table
    x = guide.take(key >> (54 - guide.shape[1].bit_length()))
    crowded = np.flatnonzero(x < 0)
    below = keys.searchsorted(key[crowded])
    x[crowded] = draws[below]
    return x, np.count_nonzero(below & 1) > 0


def _binomial(rng: np.random.Generator, n, prob: float, size: Optional[int] = None):
    """``rng.binomial(n, prob, size=size)``, bit for bit, by a guide table:
    n is one count drawn ``size`` times (the allies) or an array of counts
    drawn once each (epoch 1's thinning).

    Where n p <= 30, p = min(prob, 1 - prob), numpy inverts one uniform per
    nonzero count, the top 53 bits of the stream's next word (``random_raw``
    reads it as it is), and each is read off the cached table
    (``_binomial_table``) by one lookup (``_invert``).  An array's table has
    a row per count below ``_ROWS``, row 0 all 0, so a zero count, which
    takes no word, reads 0.  A uniform within ``_CUT_ULPS`` ulps a term of
    a cut, or past the bound, rewinds the stream for numpy to draw; numpy
    draws at once for BTPE, counts past the table, prob = 0 and counts all
    0.
    """
    p = min(prob, 1.0 - prob)
    array = np.ndim(n) > 0
    top = n.max(initial=0) if array else n
    if prob == 0 or top == 0 or p * top > 30.0 or array and top >= _ROWS:
        return rng.binomial(n, prob, size=size)
    state = rng.bit_generator.state
    if array:
        table = _binomial_table(prob, range(_ROWS), _ROW_GUIDE, _CUT_ULPS)
        live = np.flatnonzero(n > 0)
        key = np.zeros(n.shape, dtype=np.int64)
        key[live] = (rng.bit_generator.random_raw(live.size) >> 11).view(np.int64)
        key |= n << 53
    else:
        table = _binomial_table(prob, range(n, n + 1), _GUIDE, _CUT_ULPS)
        key = (rng.bit_generator.random_raw(size) >> 11).view(np.int64)
    x, near = _invert(table, key)
    if near:
        rng.bit_generator.state = state
        return rng.binomial(n, prob, size=size)
    return x


class _Draws(NamedTuple):
    """A chunk's draws (``_draws``): per-episode arrays, and the process
    stream, whose next draw would be mu's split (``_chunk``).  The stream is
    the thread's own generator (``_streams``): valid only until that
    thread's next ``_draws`` call."""

    rng: np.random.Generator
    # Read by every reducer: EpisodeOutcome's fields but mu.
    nu: np.ndarray
    a_prior: np.ndarray
    a_exit: np.ndarray
    allies: np.ndarray
    regular: np.ndarray
    safety: np.ndarray
    censored: np.ndarray
    # Read by mu's split alone.
    done: np.ndarray
    settled: np.ndarray
    h1: np.ndarray
    cross: np.ndarray
    race: np.ndarray
    counts: np.ndarray
    frac: np.ndarray


def _draws(
    params: SwarmParams,
    rho: float,
    seed: int,
    index: int,
    size: int,
) -> _Draws:
    """Draw chunk ``index`` of ``size`` episodes from their path laws, all
    but mu's split, with 0 in nu for a threshold not reached.

    Epoch 1 is drawn as a count: its total y is geometric, P{y >= k} =
    r^k with r = m / (1 + m), m = (lambda_a + lambda_h) delta0, by
    inversion, and splits as A1 ~ Binomial(y, lambda_a / (lambda_a +
    lambda_h)) and H1 = y - A1 (thinning), numpy's binomial drawn by a
    guide table of the counts below ``_ROWS`` (``_binomial``).  If A1 >=
    thr the episode exits there: nu = 1, a_prior = 0, a_exit = A1, mu = 1
    iff H1 >= thr.
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
    inf) simply censors, with no epoch stepped.  The allies are numpy's
    Binomial(M/2 - 1, rho) draws from their own stream, by a guide table
    of that one count (``_binomial``): rho changes nothing else; at rho = 0
    Safety is Regular.

    Regular bursts iff the attacker exits first, nu < mu.  mu never
    exceeds nu once set, so that is mu unset: not censored, no settled
    race, H1 < thr.  So the bursts need no mu, and mu's split, the
    process stream's last draw, is left to ``_chunk``: skipping it moves
    no other draw.
    """
    rng, ally_rng = _streams(seed, index)
    threshold = majority_threshold(params.M)
    rate = params.lambda_a + params.lambda_h
    share = params.lambda_a / rate if rate > 0 else 0.0
    a = params.lambda_a * params.delta

    # Epoch 1: a geometric total split by thinning.
    y = _geometric(rng, rate * params.delta0, size)
    a1 = _binomial(rng, y, share) if params.lambda_h > 0 else y
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
    allies = _binomial(ally_rng, params.candidates, rho, size)
    regular = ~(censored | settled) & (h1 < threshold)
    safety = regular & (a_exit - allies >= threshold)
    return _Draws(rng, nu, a_prior, a_exit, allies, regular, safety, censored,
                  done, settled, h1, cross, race, counts, frac)


def _chunk(
    params: SwarmParams,
    rho: float,
    seed: int,
    index: int,
    size: int,
) -> tuple[np.ndarray, ...]:
    """Simulate chunk ``index`` of ``size`` episodes: ``_draws`` and mu's split.

    Returns per-episode arrays in EpisodeOutcome field order: nu, mu,
    a_prior, a_exit, allies, burst_regular, burst_safety, censored, with
    0 in nu/mu for a threshold not reached.
    """
    d = _draws(params, rho, seed, index, size)
    # The ends before Y when it precedes X B: uniform on [0, X B], drawn only
    # there, as numpy draws nothing at n = 0 or p = 0.  Elsewhere the counts
    # already are the ends before a settled Y.
    last = np.where(d.done, d.cross, 0.0) * d.frac
    inside = d.done & d.settled & (d.race < last)
    counts = d.counts
    counts[inside] = d.rng.binomial(counts[inside] - 1, d.race[inside] / last[inside])
    mu = np.where(d.settled, counts + 2, 0)
    mu[d.h1 >= majority_threshold(params.M)] = 1
    return d.nu, mu, d.a_prior, d.a_exit, d.allies, d.regular, d.safety, d.censored


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
        d = _draws(params, 0.0, seed, index, min(CHUNK, episodes - index * CHUNK))
        censored_total += int(d.censored.sum())
        collected.append(d.nu[~d.censored])
    return np.concatenate(collected), censored_total


def _chunk_sums(
    params: SwarmParams, rho: float, seed: int, index: int, size: int
) -> tuple[list[int], tuple[int, int, float]]:
    """Reduce chunk ``index``'s draws to ``estimate``'s sums: the counts of
    Regular and Safety bursts, of a_prior < M/2 and of censored episodes,
    and a_exit's sum, then (count, sum, squared deviations about the mean)
    of nu, both over the episodes not censored.

    The sums are exact integers but for nu's squared deviations, taken in
    float64 about the chunk's own mean: E[nu^2] - mean^2 would cancel where
    nu's spread is small beside its mean, as at large M.
    """
    d = _draws(params, rho, seed, index, size)
    safe = d.a_prior < params.M / 2
    sums = [int(np.count_nonzero(c)) for c in (d.regular, d.safety, safe, d.censored)]
    kept = ~d.censored if sums[-1] else slice(None)
    nu, exits = d.nu[kept], d.a_exit[kept]
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
    squared deviations.  No more threads run than there are chunks or CPUs
    this process may run on: one is the caller's own, which also computes
    its share of the chunks when more run (``_in_order``).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunks = _plan(params, rho, episodes)

    def run(index: int) -> tuple[list[int], tuple[int, int, float]]:
        size = min(CHUNK, episodes - index * CHUNK)
        return _chunk_sums(params, rho, seed, index, size)

    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    sums, pooled = [0] * 5, (0, 0, 0.0)
    for part_sums, part in _in_order(run, chunks, min(workers, chunks, cpus)):
        sums = [a + b for a, b in zip(sums, part_sums)]
        pooled = _pooled(pooled, part)
    regular, safety, safe, censored, a_sum = sums
    done, nu_sum, nu_m2 = pooled

    def rate(count: int) -> tuple[float, float]:
        """A share of the episodes and its binomial standard error."""
        share = count / episodes
        return share, math.sqrt(share * (1.0 - share) / episodes)

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
        *rate(safety),
        *rate(safe),
        mean_nu=mean_nu,
        mean_nu_se=mean_nu_se,
        mean_a_exit=mean_a_exit,
        censored_count=censored,
    )
