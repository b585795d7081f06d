import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import astuple
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from sim_reference import reference_chunk

from swarmgame import kernels, sim
from swarmgame.fluctuation import expected_exit_index, pathwise_events
from swarmgame.kernels import binom_pmf
from swarmgame.model import SwarmParams, majority_threshold
from swarmgame.sim import (
    REGULAR,
    SAFETY,
    EpisodeOutcome,
    SimStats,
    estimate,
    sample_exit_indices,
    simulate_episode,
)


def params(**overrides):
    base = dict(M=20, drone_value=1500.0, lambda_a=1.0, delta0=1.0, delta=1.0)
    base.update(overrides)
    return SwarmParams(**base)


def test_episode_determinism():
    p = params()
    a = simulate_episode(p, seed=123, rho=0.5)
    b = simulate_episode(p, seed=123, rho=0.5)
    assert a == b


def test_episode_no_attacker_censors():
    p = params(lambda_a=0.0, lambda_h=2.0)
    outcome = simulate_episode(p, seed=5)
    assert outcome.censored
    assert not outcome.burst_regular and not outcome.burst_safety
    assert outcome.nu is None
    assert outcome.mu is not None  # the honest side still reaches thr


def test_episode_coupling_rho_zero():
    # Regular is Safety with no allies; rho moves only Safety's value.
    p = params(lambda_h=0.5)
    for seed in range(30):
        none = simulate_episode(p, seed=seed)
        some = simulate_episode(p, seed=seed, rho=0.5)
        assert none.burst_safety == float(none.burst_regular)
        assert none.burst_regular == some.burst_regular
        assert (none.nu, none.mu, none.a_exit) == (some.nu, some.mu, some.a_exit)
        assert some.burst_safety <= some.burst_regular


def test_episode_exit_counts_bracket_threshold():
    """Safety's value is the chance that B ~ Binomial(M/2 - 1, rho) allies
    leave the burst standing: P{B <= a_exit - thr}, as a sum of pmfs."""
    p = params()
    threshold = majority_threshold(p.M)
    for seed in range(50):
        outcome = simulate_episode(p, seed=seed, rho=0.3)
        assert not outcome.censored
        assert outcome.nu >= 1
        assert outcome.a_prior < threshold <= outcome.a_exit
        cover = outcome.a_exit - threshold
        cdf = math.fsum(binom_pmf(j, p.candidates, 0.3) for j in range(cover + 1))
        assert outcome.burst_safety == pytest.approx(outcome.burst_regular * cdf, rel=1e-14)


def test_episode_overwhelming_attack():
    # lambda_a * delta0 = 50 on M=20: exit on the first observation
    p = params(lambda_a=50.0)
    bursts = 0
    for seed in range(10_000):
        outcome = simulate_episode(p, seed=seed)
        bursts += outcome.burst_regular
        assert outcome.nu == 1 or outcome.a_exit >= 11
    assert bursts / 10_000 > 0.99


def test_estimate_determinism_and_worker_independence():
    p = params()
    base = estimate(p, episodes=20_000, seed=9, rho=0.4)
    again = estimate(p, episodes=20_000, seed=9, rho=0.4)
    threaded = estimate(p, episodes=20_000, seed=9, rho=0.4, workers=4)
    assert base == again == threaded


def test_estimate_no_attacker():
    p = params(lambda_a=0.0)
    stats = estimate(p, episodes=500, seed=3, rho=0.5)
    assert stats.burst_regular == stats.burst_safety == 0.0
    assert stats.prior_safe_rate == 1.0
    assert stats.censored_count == 500
    assert math.isnan(stats.mean_nu)


def test_estimate_rejects_epoch_means_beyond_int64_counts():
    for la in (1e16, 1e300):
        with pytest.raises(ValueError, match="at most"):
            estimate(params(lambda_a=la), episodes=10, seed=1)
    with pytest.raises(ValueError, match="at most"):
        simulate_episode(params(lambda_a=1.0, lambda_h=1e16), seed=1)
    for M in (2**63, 2 * 10**19):
        with pytest.raises(ValueError, match="threshold M // 2 [+] 1 must be at most"):
            estimate(params(M=M), episodes=10, seed=1)


def test_epoch_mean_bound_checked_before_any_chunk(monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(sim, "_chunk_sums", no_chunk)
    with pytest.raises(ValueError, match="at most"):
        estimate(params(lambda_a=1e300), episodes=10_000, seed=1, workers=2)


def chunk_threads(monkeypatch) -> list:
    """Record each chunk estimate computes: return the list of (chunk index,
    the computing thread, threads alive then), filled as they run.  The
    thread is kept as its ``threading.Thread`` object, which the list keeps
    alive: an ident is reused once its thread exits, and a helper with one
    chunk may exit before the next helper starts."""
    seen = []
    real = sim._chunk_sums

    def recorded(params, rho, seed, index, size):
        seen.append((index, threading.current_thread(), threading.active_count()))
        return real(params, rho, seed, index, size)

    monkeypatch.setattr(sim, "_chunk_sums", recorded)
    return seen


def test_estimate_starts_no_more_threads_than_it_can_use(monkeypatch):
    """min(workers, chunks, usable CPUs) threads: the caller computes the
    chunks index % threads == 0, each helper thread its own residue."""
    p = params()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    caller, start = threading.current_thread(), threading.active_count()
    for chunks, workers, threads in [(3, 10**6, 3), (5, 10**6, 4), (5, 2, 2)]:
        episodes = (chunks - 1) * sim.CHUNK + 1
        serial = estimate(p, episodes=episodes, seed=5, rho=0.3, workers=1)
        with monkeypatch.context() as patch:
            seen = chunk_threads(patch)
            assert estimate(p, episodes=episodes, seed=5, rho=0.3, workers=workers) == serial
        assert sorted(index for index, _, _ in seen) == list(range(chunks))
        assert len({thread for _, thread, _ in seen}) == threads
        for index, thread, alive in seen:
            assert (thread is caller) == (index % threads == 0)
            assert alive <= start + threads - 1
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        estimate(p, episodes=episodes, seed=5, workers=0)


def test_estimate_threads_are_capped_by_the_usable_cpus(monkeypatch):
    p = params()
    episodes = 3 * sim.CHUNK
    serial = estimate(p, episodes=episodes, seed=5, rho=0.3, workers=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen = chunk_threads(monkeypatch)
    assert estimate(p, episodes=episodes, seed=5, rho=0.3, workers=4) == serial
    assert [(index, thread) for index, thread, _ in seen] == [
        (index, threading.current_thread()) for index in range(3)
    ]


def test_one_worker_runs_in_the_callers_thread(monkeypatch):
    p = params(lambda_h=0.5)
    episodes = 3 * sim.CHUNK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    two = estimate(p, episodes=episodes, seed=8, rho=0.5, workers=2)
    seen = chunk_threads(monkeypatch)
    assert estimate(p, episodes=episodes, seed=8, rho=0.5, workers=1) == two
    assert [(index, thread) for index, thread, _ in seen] == [
        (index, threading.current_thread()) for index in range(3)
    ]


def within_seconds(seconds: float, fn, *args, **kwargs):
    """fn(*args, **kwargs), run on a thread that must end within ``seconds``:
    a deadlock fails the test instead of hanging it."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args, **kwargs)), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn.__name__} did not end in {seconds} s"
    assert out, f"{fn.__name__} raised"
    return out[0]


def test_estimate_chunks_in_flight_do_not_grow_with_the_chunk_count(monkeypatch):
    """Each helper's results computed but not yet folded stay at most two,
    however many chunks there are, and all are folded in chunk order.  The
    caller's own chunks are slow, so the helpers run ahead to that bound,
    and the caller, due to fold a result a helper has already computed, must
    not wait on it.  Three threads run, switching often."""
    threads, folded, peaks = 3, [], []
    real_pooled = sim._pooled

    def cheap_sums(params, rho, seed, index, size):
        worker = index % threads
        if worker == 0:
            time.sleep(0.001)
        else:
            computed = len(range(worker, index + 1, threads))
            peaks.append(computed - len(range(worker, len(folded), threads)))
        return [0] * 6, (size, 0, float(index))

    def recorded_pooled(a, b):
        folded.append(int(b[2]))
        return real_pooled(a, b)

    monkeypatch.setattr(sim, "_chunk_sums", cheap_sums)
    monkeypatch.setattr(sim, "_pooled", recorded_pooled)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for chunks in (10, 1000):
            folded[:], peaks[:] = [], []
            stats = within_seconds(
                60, estimate, params(), episodes=chunks * sim.CHUNK, seed=1, workers=threads
            )
            assert stats.mean_nu == 0.0 and stats.censored_count == 0
            assert folded == list(range(chunks))
            assert max(peaks) <= 2, chunks
    finally:
        sys.setswitchinterval(interval)
    assert max(peaks) == 2


def test_a_helpers_exception_is_raised_by_estimate(monkeypatch):
    """A chunk computed by a helper thread raises: estimate raises that same
    exception, and stops and joins its helpers."""
    error = RuntimeError("chunk 5 failed")
    caller = threading.get_ident()

    def failing_sums(params, rho, seed, index, size):
        if index == 5:
            assert threading.get_ident() != caller
            raise error
        return [0] * 6, (size, 0, 0.0)

    monkeypatch.setattr(sim, "_chunk_sums", failing_sums)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    start = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        estimate(params(), episodes=100 * sim.CHUNK, seed=1, workers=2)
    assert raised.value is error
    assert threading.active_count() == start


def test_no_helper_thread_outlives_its_run(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    start = threading.active_count()
    estimate(params(lambda_h=0.5), episodes=5 * sim.CHUNK, seed=2, rho=0.5, workers=2)
    assert threading.active_count() == start
    assert list(sim._in_order(lambda index: index, 100, 3)) == list(range(100))
    assert threading.active_count() == start
    # Closed after its first result, with the helpers still running ahead.
    results = sim._in_order(lambda index: index, 100, 2)
    assert next(results) == 0
    assert threading.active_count() == start + 1
    results.close()
    assert threading.active_count() == start


STREAM_SEEDS = (0, -1, 2**63, 2**64 - 1)


def test_rekeyed_streams_are_new_philox_streams():
    """A thread's generator, re-keyed for (seed, chunk), draws what a new
    Philox generator keyed (seed mod 2**64, 2 chunk) draws, whatever the
    thread drew from it before.  It is read as one 32-bit draw, which
    leaves half a word buffered, then 1000 doubles and a binomial."""

    def draws(rng):
        return ([rng.integers(2**32, dtype=np.uint32)] + rng.random(1000).tolist()
                + rng.binomial(np.arange(100), 0.3).tolist())

    for seed in STREAM_SEEDS:
        for chunk in (0, 1, 2**40):
            key = np.array([seed % 2**64, 2 * chunk], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert draws(sim._streams(seed, chunk)) == draws(fresh)


# (M, lambda_a) at which a chunk's exit counts sum past int64.
PAST_INT64 = [(10**17, 1e3), (2**63 - 2, 1e6)]


@pytest.mark.parametrize("M, lambda_a", PAST_INT64)
def test_estimate_mean_exit_count_past_int64_chunk_sums(M, lambda_a):
    # A chunk's exit counts sum past int64, up to the largest threshold
    # the simulator takes, 2**62; each count is the threshold plus an
    # overshoot of mean lambda_a * delta.
    stats = estimate(params(M=M, lambda_a=lambda_a), episodes=1000, seed=1)
    assert stats.censored_count == 0
    expected = majority_threshold(M) + lambda_a
    assert stats.mean_a_exit == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_estimate_single_episode_se():
    stats = estimate(params(), episodes=1, seed=1)
    assert stats.mean_nu_se == 0.0
    assert stats.episodes == 1


def test_estimate_mean_nu_se_at_huge_exit_indices():
    # lambda_a = 1e-9: nu is about 1e10, so a chunk's sum of nu^2 is far
    # past int64, yet every episode exits.  At M = 10^12 and 10^14 nu's
    # spread is small beside its mean, so E[nu^2] - mean^2 would cancel
    # (1.7e-5 and 1.5e-3 relative off the two-pass SE).
    episodes = 20_000
    for p in (params(lambda_a=1e-9), params(M=10**12), params(M=10**14)):
        runs = [estimate(p, episodes, seed=12, workers=w) for w in (1, 2)]
        assert runs[0] == runs[1]
        nu, censored = sample_exit_indices(p, episodes, seed=12)
        assert censored == runs[0].censored_count == 0
        assert sum(nu.tolist()) / episodes == runs[0].mean_nu
        se = nu.astype(float).std() / math.sqrt(episodes)
        assert runs[0].mean_nu_se == pytest.approx(se, rel=1e-9, abs=0.0), p.M


def test_estimate_mean_nu_sane():
    stats = estimate(params(), episodes=50_000, seed=2)
    assert stats.censored_count == 0
    assert stats.mean_nu >= 1.0
    # mean exit count sits just above the strict-majority threshold
    assert 11.0 <= stats.mean_a_exit <= 13.0


def test_estimate_coupling_rho_zero():
    p = params(lambda_h=0.5)
    none = estimate(p, episodes=10_000, seed=4)
    some = estimate(p, episodes=10_000, seed=4, rho=0.5)
    assert none.burst_regular == none.burst_safety == some.burst_regular
    assert none.burst_regular_se == none.burst_safety_se == some.burst_regular_se
    assert none.mean_nu == some.mean_nu
    assert some.burst_safety < some.burst_regular


def test_burst_rate_nonincreasing_in_honest_rate():
    # the honest race nu < mu binds more as lambda_h grows
    episodes = 40_000
    rates = []
    for lh in (0.0, 2.0, 5.0, 10.0, 20.0):
        stats = estimate(params(lambda_h=lh), episodes=episodes, seed=8)
        rates.append((stats.burst_regular, stats.burst_regular_se))
    for (ra, sa), (rb, sb) in zip(rates, rates[1:]):
        assert rb <= ra + 3 * math.hypot(sa, sb) + 1e-12


def test_safety_allies_lower_burst_rate():
    p = params(lambda_a=3.0)
    none = estimate(p, episodes=40_000, seed=6, rho=0.0)
    many = estimate(p, episodes=40_000, seed=6, rho=0.9)
    assert many.burst_safety < none.burst_safety


# Golden values: simulator outputs pinned bit for bit, so a change to the
# sampler or the stream layout cannot pass unseen.  The path-level
# sampler draws each episode's outcome from a few arrival-time and count
# laws; the pathwise_events checks and the comparisons with the epoch loop
# (sim_reference) pin the law these draws follow.  Each row's label names
# the strategy it was first pinned for, when the simulator ran one
# strategy per pass: Regular rows sit at rho = 0, where the two bursts
# agree.

GOLDEN_EPISODES = [
    # (lambda_h, label, rho, seed, outcome).  Safety's value at M = 20,
    # rho = 1/2 is P{B <= a_exit - 11}, B ~ Binomial(9, 1/2): 46/512 at
    # a_exit = 13, 10/512 at 12, 1/512 at 11.
    (0.5, SAFETY, 0.5, 0, EpisodeOutcome(6, None, 6, 13, True, 46 / 512, False)),
    (0.5, SAFETY, 0.5, 1, EpisodeOutcome(12, None, 9, 11, True, 1 / 512, False)),
    (0.5, SAFETY, 0.5, 7, EpisodeOutcome(16, None, 9, 11, True, 1 / 512, False)),
    (0.5, SAFETY, 0.5, 2024, EpisodeOutcome(8, None, 7, 12, True, 10 / 512, False)),
    (2.0, SAFETY, 0.5, 0, EpisodeOutcome(6, None, 6, 13, True, 46 / 512, False)),
    (2.0, SAFETY, 0.5, 3, EpisodeOutcome(11, 6, 10, 11, False, 0.0, False)),
    (2.0, REGULAR, 0.0, 0, EpisodeOutcome(6, None, 6, 13, True, 1.0, False)),
]

REGULAR_STATS = SimStats(
    episodes=10000,
    burst_regular=0.9226,
    burst_regular_se=0.002672250736738602,
    burst_safety=0.9226,
    burst_safety_se=0.002672250736738602,
    prior_safe_rate=0.495,
    prior_safe_se=0.004999749993749687,
    mean_nu=12.0082,
    mean_nu_se=0.04780976130457043,
    mean_a_exit=12.0195,
    censored_count=0,
    burst_safety_ess=9226.0,
)
GOLDEN_STATS = [
    (REGULAR, 0.0, REGULAR_STATS),
    (
        SAFETY,
        0.5,
        SimStats(
            episodes=10000,
            burst_regular=0.9226,
            burst_regular_se=0.002672250736738602,
            burst_safety=0.0685015625,
            burst_safety_se=0.0016755260154186586,
            prior_safe_rate=0.495,
            prior_safe_se=0.004999749993749687,
            mean_nu=12.0082,
            mean_nu_se=0.04780976130457043,
            mean_a_exit=12.0195,
            censored_count=0,
            burst_safety_ess=1432.0990081493694,
        ),
    ),
]


@pytest.mark.parametrize("lambda_h, label, rho, seed, outcome", GOLDEN_EPISODES)
def test_golden_episode(lambda_h, label, rho, seed, outcome):
    got = simulate_episode(params(lambda_h=lambda_h), seed=seed, rho=rho)
    assert got == outcome
    assert all(
        type(getattr(got, f)) is type(getattr(outcome, f))
        for f in EpisodeOutcome.__dataclass_fields__
    )
    if label == REGULAR:
        assert got.burst_safety == got.burst_regular


def test_golden_censored_episode():
    p = params(lambda_a=0.0, lambda_h=2.0)
    got = simulate_episode(p, seed=5)
    assert got == EpisodeOutcome(None, 7, 0, 0, False, 0.0, True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("label, rho, stats", GOLDEN_STATS)
def test_golden_estimate(label, rho, stats, workers):
    p = params(lambda_h=0.5)
    assert estimate(p, episodes=10_000, seed=11, rho=rho, workers=workers) == stats


# At an attack rate whose overshoot is about as large as the ally count,
# so each episode's Safety value is far from 0 and 1: n = 59 allies at
# rho = 0.5 and 0.9, and n = 499.  Each id ends with the Safety rate and
# SE that an estimator drawing the allies read on the same seed's paths;
# the conditional pins lie within those SEs, with smaller SEs.
GOLDEN_ALLY_STATS = [
    # (M, lambda_a, rho, burst_safety, burst_safety_se, burst_safety_ess)
    pytest.param(
        120, 30.0, 0.5, 0.3809396965698581, 0.004588153177105494, 4080.5460998876147,
        id="120-30.0-0.5-0.3795-0.004852625577973228",
    ),
    pytest.param(
        120, 30.0, 0.9, 0.17704423139765546, 0.0037133349372944218, 1852.1575867133283,
        id="120-30.0-0.9-0.1772-0.003818378713537985",
    ),
    pytest.param(
        1000, 250.0, 0.5, 0.3701582651379727, 0.004736980117858166, 3791.214921360608,
        id="1000-250.0-0.5-0.3687-0.004824523914336004",
    ),
]
GOLDEN_ALLY_COMMON = {
    120: dict(
        prior_safe_rate=0.967,
        prior_safe_se=0.00178636502428815,
        mean_nu=2.9998,
        mean_nu_se=0.014361754628178272,
        mean_a_exit=90.9828,
    ),
    1000: dict(
        prior_safe_rate=0.9952,
        prior_safe_se=0.0006911555541265676,
        mean_nu=2.9783,
        mean_nu_se=0.014159905049116676,
        mean_a_exit=753.1089,
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("M, lambda_a, rho, burst, burst_se, ess", GOLDEN_ALLY_STATS)
def test_golden_estimate_ally_draws(M, lambda_a, rho, burst, burst_se, ess, workers):
    p = params(M=M, lambda_a=lambda_a, lambda_h=0.5)
    stats = SimStats(
        episodes=10000,
        burst_regular=1.0,
        burst_regular_se=0.0,
        burst_safety=burst,
        burst_safety_se=burst_se,
        censored_count=0,
        burst_safety_ess=ess,
        **GOLDEN_ALLY_COMMON[M],
    )
    assert estimate(p, episodes=10_000, seed=11, rho=rho, workers=workers) == stats


def test_golden_exit_indices():
    nu, censored = sample_exit_indices(params(lambda_h=0.5), 10_000, seed=11)
    assert (int(nu.sum()), len(nu), censored) == (120082, 10000, 0)
    assert nu.mean() == REGULAR_STATS.mean_nu


def test_episode_is_first_episode_of_estimate_and_exit_indices():
    p = params(lambda_h=0.5)
    for seed in range(40):
        for rho in (0.0, 0.5):
            episode = simulate_episode(p, seed=seed, rho=rho)
            stats = estimate(p, episodes=1, seed=seed, rho=rho)
            assert stats.burst_regular == float(episode.burst_regular)
            assert stats.burst_safety == float(episode.burst_safety)
            assert stats.mean_nu == episode.nu
            assert stats.mean_a_exit == episode.a_exit
        nu, censored = sample_exit_indices(p, 1, seed=seed)
        assert (nu.tolist(), censored) == ([episode.nu], 0)


@pytest.mark.parametrize(
    "overrides, rho",
    [
        *(
            pytest.param(dict(lambda_h=lh, delta0=2.0, delta=0.5), 0.5, id=str(lh))
            for lh in (0.0, 0.5, 2.0)
        ),
        # E[nu] = 15 002 epochs; rho = 1e-4 puts the Safety burst near 0.47.
        pytest.param(dict(M=30_000), 1e-4, id="M=30000"),
    ],
)
def test_estimate_matches_pathwise_events(overrides, rho):
    # The simulator's own events against their exact probabilities, at
    # 3 SE of the exact value, with delta0 != delta and at large M.
    p = params(**overrides)
    episodes = 200_000
    exact = pathwise_events(p, rho)
    stats = estimate(p, episodes=episodes, seed=2026, rho=rho)
    assert stats.censored_count == 0

    def within(got, want):
        return abs(got - want) <= 3 * math.sqrt(want * (1 - want) / episodes)

    for field in ("burst_regular", "burst_safety"):
        assert within(getattr(stats, field), getattr(exact, field)), field
    assert within(stats.prior_safe_rate, exact.prior_safe)
    if p.lambda_h == 0.0:
        assert stats.burst_regular == exact.burst_regular == 1.0
    assert abs(stats.mean_nu - expected_exit_index(p)) <= 3 * stats.mean_nu_se
    # A_exit - thr is geometric with mean lambda_a d of the crossing epoch,
    # so its variance is that of a two-part geometric mixture.
    thr, la = majority_threshold(p.M), p.lambda_a
    first = (la * p.delta0 / (1 + la * p.delta0)) ** thr
    means = (la * p.delta0, la * p.delta)
    square = first * (means[0] + 2 * means[0] ** 2) + (1 - first) * (
        means[1] + 2 * means[1] ** 2
    )
    variance = square - (exact.mean_exit_count - thr) ** 2
    assert abs(stats.mean_a_exit - exact.mean_exit_count) <= 3 * math.sqrt(
        variance / episodes
    )


def long_shape(**overrides):
    """The benchmark's long simulate shape: M = 120, lambda_h = 0."""
    return params(M=120, **overrides)


def test_safety_sees_a_rare_event_the_indicator_cannot():
    """At the long shape, rho = 1/2, Safety is 4.25e-8, far below 1 / E, so
    the indicator of drawn allies reads 0 +- 0.  Every episode's Safety
    value is at least P{B = 0} = 2^-59, so the estimate and its SE are
    positive at any seed.  The value is carried by overshoots near 19, of
    probability about 2^-20 each, which 65 536 episodes seldom draw: the
    estimate is mostly low, within 3 SE for 33 of 100 seeds, and is not
    checked against the exact value here.  Its effective sample, (sum
    w)^2 / sum w^2, is below 100 episodes (about 3 here; at most 14 over
    seeds 0-99), which ``simulate`` notes.

    At lambda_a = 0.1, rho = 1/4 the effective sample, E[w]^2 / E[w^2]
    episodes, is about 120 of the 65 536, and Safety (2.5e-7) is within 3
    SE of ``pathwise_events``."""
    episodes = 65_536
    p = long_shape()
    stats = estimate(p, episodes, seed=2026, rho=0.5)
    assert pathwise_events(p, 0.5).burst_safety < 1 / episodes
    assert stats.burst_regular == 1.0 and stats.censored_count == 0
    assert stats.burst_safety >= 2.0**-59 and stats.burst_safety_se > 0.0
    assert 1.0 < stats.burst_safety_ess < 100
    p = long_shape(lambda_a=0.1)
    exact = pathwise_events(p, 0.25).burst_safety
    stats = estimate(p, episodes, seed=2026, rho=0.25)
    assert exact < 1 / episodes
    assert stats.burst_safety_se > 0.0
    assert abs(stats.burst_safety - exact) <= 3 * stats.burst_safety_se


def test_safety_se_is_below_the_indicators():
    """At the short shape the conditional estimator's SE is below the
    indicator's sqrt(s (1 - s) / E), with s the estimate: 4.5e-4 against
    6.9e-4, 2.3 times less variance."""
    episodes = 131_072
    stats = estimate(params(lambda_h=0.5), episodes, seed=2026, rho=0.5)
    s = stats.burst_safety
    assert 0.0 < stats.burst_safety_se < 0.7 * math.sqrt(s * (1.0 - s) / episodes)


def test_counts_below_the_ally_window_build_no_table(monkeypatch):
    """At M = 2^63 - 2 the allies' cdf at rho = 1/2 would table about 10^11
    counts around 2^61; the exit counts lie far below them."""

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(kernels, "_binom_table", no_table)
    for M, lambda_a in PAST_INT64:
        stats = estimate(params(M=M, lambda_a=lambda_a), 5000, seed=1, rho=0.5, workers=2)
        assert stats.burst_regular == 1.0
        assert stats.burst_safety == stats.burst_safety_se == 0.0


def test_safety_with_overshoots_near_a_large_ally_count():
    """At M = 2 * 10^8, lambda_a = 5 * 10^7, the overshoots are about as
    large as the n rho = 5 * 10^7 allies, so most Safety values come from
    inside the allies' window, 387 000 counts long, and Safety is within 3
    SE of ``pathwise_events`` (about 1/e)."""
    p = params(M=2 * 10**8, lambda_a=5e7)
    stats = estimate(p, 20_000, seed=1, rho=0.5)
    assert 0.0 < stats.burst_safety < 1.0 and stats.burst_safety_ess > 5000
    exact = pathwise_events(p, 0.5).burst_safety
    assert abs(stats.burst_safety - exact) <= 3 * stats.burst_safety_se


@pytest.mark.parametrize("M, lambda_a, rho", [(10**13, 2.5e12, 0.5), (10**16, 1e15, 0.2)])
def test_an_ally_window_the_exit_counts_can_reach_past_the_bound_is_refused(
    monkeypatch, M, lambda_a, rho
):
    """Overshoots of mean lambda_a reach the allies' window, which spans
    about 8.7 * 10^7 and 2.2 * 10^9 counts here: the run is refused before
    any chunk, with no table built.  At lambda_a = 10^10, M = 10^13, no
    draw can reach it (``sim._geometric_bound``), and the run needs none."""

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(kernels, "_binom_table", no_table)
    with pytest.raises(ValueError, match="more than the 1048576 it may table"):
        estimate(params(M=M, lambda_a=lambda_a), 10, seed=1, rho=rho)
    stats = estimate(params(M=10**13, lambda_a=1e10), 5000, seed=1, rho=0.5)
    assert stats.burst_regular == 1.0
    assert stats.burst_safety == stats.burst_safety_ess == 0.0


def test_seeds_past_int64_are_distinct_streams():
    # Seeds are taken modulo 2**64 into a uint64 Philox key; negative seeds
    # and seeds >= 2**63 used to collapse onto one float64 key.
    p = params()
    seeds = (0, -1, -2, -1000, 2**63, 2**63 + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        means = [estimate(p, episodes=2000, seed=s).mean_nu for s in seeds]
    assert len(set(means)) == len(seeds)
    # seed and seed + 2**64 name the same key
    assert simulate_episode(p, seed=-1, rho=0.5) == simulate_episode(
        p, seed=2**64 - 1, rho=0.5
    )


def test_short_horizon_bookkeeping():
    # Three chunks (4096, 4096, 808) with an honest race under way, where
    # lambda_a delta = lambda_h delta = 8 / MAX_EXIT_TIME puts about 60% of
    # the crossings past MAX_EXIT_TIME: the rest exit with nu up to about
    # 2**50, so sums of nu are far past float64's 2**53.
    p = params(lambda_h=1.0, delta0=2.0, delta=8 / sim.MAX_EXIT_TIME)
    episodes = 9000
    runs = [estimate(p, episodes, seed=31, rho=0.5, workers=w) for w in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]
    stats = runs[0]
    assert 0 < stats.censored_count < episodes
    nu, censored = sample_exit_indices(p, episodes, seed=31)
    assert censored == stats.censored_count
    done = episodes - censored
    # nu - 2 and mu - 2 are Poisson counts with means below MAX_EXIT_TIME.
    limit = 2 * sim.MAX_EXIT_TIME
    assert len(nu) == done and nu.max() <= limit
    # estimate's exact integer sum, divided as estimate divides it: here
    # mean_nu * done need not round back to the sum.
    assert sum(nu.tolist()) / done == stats.mean_nu
    outcomes = [simulate_episode(p, seed=seed, rho=0.5) for seed in range(60)]
    cut = [o for o in outcomes if o.censored]
    assert cut and len(cut) < len(outcomes)
    for o in cut:
        assert o.nu is None and not o.burst_regular and not o.burst_safety
        assert o.a_prior == o.a_exit < majority_threshold(p.M)
    for o in outcomes:
        if o.mu is not None:
            assert o.mu <= (o.nu or limit)


# The path-level sampler against the epoch loop it replaced
# (``sim_reference``), in law: two independent samples of 200 000
# episodes each, every statistic's means within 4 SE of their
# difference.  The bound is 4 rather than 3 SE because each case compares
# 15 statistics; the cross moments check the joint law of (nu, mu,
# a_prior, a_exit, censored), not only its margins.


def _outcomes(chunk, p, seed, episodes, rho=0.5):
    """Episodes of ``estimate``'s chunks drawn by ``chunk``, as float arrays."""
    sizes = [min(sim.CHUNK, episodes - i) for i in range(0, episodes, sim.CHUNK)]
    parts = [chunk(p, rho, seed, i, size) for i, size in enumerate(sizes)]
    return [np.concatenate(column).astype(float) for column in zip(*parts)]


def _statistics(outcomes):
    nu, mu, a_prior, a_exit, regular, safety, censored = outcomes
    return {
        "nu": nu,
        "mu": mu,
        "a_prior": a_prior,
        "a_exit": a_exit,
        "censored": censored,
        "burst_regular": regular,
        "burst_safety": safety,
        "mu set": mu > 0,
        "nu^2": nu**2,
        "a_exit^2": a_exit**2,
        "mu a_prior": mu * a_prior,
        "nu a_prior": nu * a_prior,
        "mu nu": mu * nu,
        "mu censored": mu * censored,
        "a_prior censored": a_prior * censored,
    }


def assert_same_law(p, horizon=10_000, episodes=200_000):
    """The sampler against the epoch loop stopped at epoch ``horizon``.

    Where captures still arrive after epoch 1, the loop's horizon must
    censor no episode, as the sampler has none.
    """
    got = _statistics(_outcomes(sim._chunk, p, 1, episodes))
    reference = partial(reference_chunk, horizon=horizon)
    want = _statistics(_outcomes(reference, p, 2, episodes))
    if p.lambda_a * p.delta > 1e-100:
        assert not want["censored"].any()
    for name, sample in got.items():
        se = math.sqrt((sample.var() + want[name].var()) / episodes)
        diff = abs(sample.mean() - want[name].mean())
        assert diff <= 4 * se, f"{name}: {sample.mean()} vs {want[name].mean()}, SE {se}"


@pytest.mark.parametrize("horizon", [10_000])
@pytest.mark.parametrize("lambda_h", [0.0, 0.5, 2.0])
def test_sampler_matches_epoch_loop(lambda_h, horizon):
    assert_same_law(params(lambda_h=lambda_h, delta0=2.0, delta=0.5), horizon)


def test_sampler_matches_epoch_loop_without_attacker():
    # Every episode is censored; only the honest race and mu are random.
    assert_same_law(params(lambda_a=0.0, lambda_h=2.0), horizon=50)


def test_sampler_matches_epoch_loop_at_the_epoch_mean_bound():
    # lambda_a * delta at MAX_EPOCH_MEAN: epoch 1 is short, epoch 2 exits
    # with an overshoot of about 10^15.
    p = params(lambda_a=sim.MAX_EPOCH_MEAN, delta0=1e-16, delta=1.0)
    assert_same_law(p)


def test_sampler_matches_epoch_loop_at_tiny_epoch_means():
    # After epoch 1 nothing arrives: delta = 1e-300.
    assert_same_law(params(lambda_h=0.5, delta=1e-300), horizon=30, episodes=20_000)


# Rates at which episodes are censored.
CENSORING = [
    dict(lambda_a=0.0, lambda_h=2.0),
    dict(lambda_h=0.5, delta=1e-300),
    dict(lambda_a=5e-324, lambda_h=0.5),
    dict(lambda_a=5e-324, lambda_h=5e-324),
    # Crossings and honest arrivals straddle MAX_EXIT_TIME itself.
    dict(M=4, lambda_h=1.0, delta=1 / sim.MAX_EXIT_TIME),
]


@pytest.mark.parametrize("overrides", CENSORING)
def test_tiny_rates_censor_without_warnings(overrides):
    # No exception and no RuntimeWarning (the test suite makes those
    # errors); past epoch 1 nothing crosses before MAX_EXIT_TIME where
    # lambda_a delta is far below 1 / MAX_EXIT_TIME.
    p = params(**overrides)
    nu, mu, a_prior, a_exit, *_, censored = sim._chunk(p, 0.5, 3, 0, sim.CHUNK)
    assert ((nu == 0) == censored).all()
    assert (a_prior[censored] == a_exit[censored]).all()
    assert (a_exit[censored] < majority_threshold(p.M)).all()
    if p.lambda_a * p.delta < 1e-100:
        assert set(nu.tolist()) <= {0, 1}
    if p.lambda_h * p.delta < 1e-100:
        assert set(mu.tolist()) <= {0, 1}
    # Counts stay below 2 * MAX_EXIT_TIME, and a chunk's int64 sum of
    # them is exact.
    for count in (nu, mu):
        assert count.max() < 2 * sim.MAX_EXIT_TIME
        assert int(count.sum()) == sum(count.tolist())



def sums_of_chunk(params, rho, seed, index, size):
    """``sim._chunk_sums`` taken from ``_chunk``'s arrays, mu's split
    included, Regular read off mu: the reference its direct reduction of
    the draws must equal.  Safety's values are 0 off Regular."""
    nu, mu, a_prior, a_exit, _, safety, censored = sim._chunk(
        params, rho, seed, index, size
    )
    # mu never exceeds nu once set, so nu < mu reduces to mu unset.
    regular = ~censored & (mu == 0)
    assert (safety[~regular] == 0.0).all()
    done = ~censored
    count, total = int(done.sum()), int(nu[done].sum())
    exits = a_exit[done]
    exit_sum = (int((exits >> 32).sum()) << 32) + int((exits & 0xFFFFFFFF).sum())
    deviation = nu[done] - (total / count if count else 0.0)
    weights = [float(safety.sum()), float((safety**2).sum())]
    counts = [int(c.sum()) for c in (a_prior < params.M / 2, censored)]
    return [int(regular.sum())] + weights + counts + [exit_sum], (
        count, total, float((deviation**2).sum()))


def same_stats(a: SimStats, b: SimStats) -> bool:
    """Equal field for field, NaN equal to NaN."""
    return all(x == y or (x != x and y != y) for x, y in zip(astuple(a), astuple(b)))


@pytest.mark.parametrize(
    "overrides, rho",
    [(dict(lambda_h=lh), rho) for lh in (0.0, 0.5, 2.0) for rho in (0.0, 0.5, 0.999, 1.0)]
    + [(overrides, 0.5) for overrides in CENSORING]
    + [(dict(M=M, lambda_a=lambda_a), 0.5) for M, lambda_a in PAST_INT64],
)
def test_estimate_reduces_the_draws_of_chunk(monkeypatch, overrides, rho):
    """estimate, reducing each chunk's draws straight to its sums, equals
    its fold of the sums of _chunk's arrays, at 1 to 4 workers;
    sample_exit_indices keeps _chunk's exit indices."""
    p = params(**overrides)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for episodes in (1, sim.CHUNK - 1, sim.CHUNK + 1, 20_000):
        for workers in (1, 2):
            direct = estimate(p, episodes, seed=9, rho=rho, workers=workers)
            with monkeypatch.context() as patch:
                patch.setattr(sim, "_chunk_sums", sums_of_chunk)
                reference = estimate(p, episodes, seed=9, rho=rho, workers=workers)
            assert same_stats(direct, reference), (episodes, workers, direct, reference)
        for workers in (3, 4):
            more = estimate(p, episodes, seed=9, rho=rho, workers=workers)
            assert same_stats(more, direct), (episodes, workers, more, direct)
    episodes = 2 * sim.CHUNK + 1
    chunks = [sim._chunk(p, 0.0, 9, index, min(sim.CHUNK, episodes - index * sim.CHUNK))
              for index in range(3)]
    nu, censored = sample_exit_indices(p, episodes, seed=9)
    assert nu.tolist() == [n for c in chunks for n in c[0][~c[-1]].tolist()]
    assert censored == sum(int(c[-1].sum()) for c in chunks)


LEAN_WORKERS = """\
import json, os, sys
from swarmgame import kernels, sim
from swarmgame.model import SwarmParams
os.sched_getaffinity = lambda pid: {0, 1}
p = SwarmParams(M=20, drone_value=1500.0, lambda_a=1.0, delta0=1.0, delta=1.0)
loaded = ["concurrent.futures" in sys.modules]
for workers in (1, 2):
    sim.estimate(p, episodes=2 * sim.CHUNK, seed=1, workers=workers)
    loaded.append("concurrent.futures" in sys.modules)
print(json.dumps(loaded))
"""


def test_simulator_never_loads_concurrent_futures():
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", LEAN_WORKERS],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    # Imported, at one worker, at two.
    assert json.loads(result.stdout.splitlines()[-1]) == [False, False, False]
