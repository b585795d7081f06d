import json
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import astuple
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from calibration import assert_calibrated
from sim_reference import reference_chunk

from swarmgame import cli, kernels, sim
from swarmgame.fluctuation import expected_exit_index, pathwise_events
from swarmgame.kernels import binom_pmf
from swarmgame.model import SwarmParams, majority_threshold
from swarmgame.sim import REGULAR, SAFETY, SimStats, estimate, sample_exit_indices


def params(**overrides):
    base = dict(M=20, drone_value=1500.0, lambda_a=1.0, delta0=1.0, delta=1.0)
    base.update(overrides)
    return SwarmParams(**base)


@pytest.fixture
def simulate(tmp_path, monkeypatch, capsys):
    """simulate(p, episodes, seed, rho, workers): the SimStats that
    ``swarmgame simulate --workers N`` prints, as its call to ``estimate``
    returns them."""
    runs = []

    def recorded(*args, **kwargs):
        runs.append(estimate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "estimate", recorded)
    keys = ("M", "drone_value", "lambda_a", "lambda_h", "delta0", "delta")

    def run(p, episodes, seed, rho, workers):
        cfg = tmp_path / "simulate.cfg"
        cfg.write_text("".join(f"{key} = {getattr(p, key)!r}\n" for key in keys))
        argv = ["simulate", "--config", str(cfg), "--episodes", str(episodes),
                "--seed", str(seed), "--rho", repr(rho), "--workers", str(workers)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        return runs[-1]

    return run


def test_episode_determinism():
    p = params()
    a = estimate(p, 1, seed=123, rho=0.5)
    b = estimate(p, 1, seed=123, rho=0.5)
    assert a == b


def test_episode_no_attacker_censors():
    p = params(lambda_a=0.0, lambda_h=2.0)
    outcome = estimate(p, 1, seed=5)
    assert outcome.censored_count == 1
    assert outcome.burst_regular == outcome.burst_safety == 0.0
    assert math.isnan(outcome.mean_nu) and math.isnan(outcome.mean_a_exit)
    assert outcome.prior_safe_rate == 1.0  # no capture ever: every epoch is safe


def test_episode_coupling_rho_zero():
    # Regular is Safety with no allies; rho moves only Safety's value.
    p = params(lambda_h=0.5)
    for seed in range(30):
        none = estimate(p, 1, seed=seed)
        some = estimate(p, 1, seed=seed, rho=0.5)
        assert none.burst_safety == none.burst_regular
        assert none.burst_regular == some.burst_regular
        assert ((none.mean_nu, none.mean_a_exit, none.prior_safe_rate)
                == (some.mean_nu, some.mean_a_exit, some.prior_safe_rate))
        assert some.burst_safety <= some.burst_regular


def test_episode_exit_counts_bracket_threshold():
    """Safety's value is the chance that B ~ Binomial(M/2 - 1, rho) allies
    leave the burst standing: P{B <= a_exit - thr}, as a sum of pmfs."""
    p = params()
    threshold = majority_threshold(p.M)
    for seed in range(50):
        outcome = estimate(p, 1, seed=seed, rho=0.3)
        assert outcome.censored_count == 0
        assert outcome.mean_nu >= 1
        assert threshold <= outcome.mean_a_exit
        assert 0.0 <= outcome.prior_safe_rate <= 1.0
        cover = int(outcome.mean_a_exit) - threshold
        cdf = math.fsum(binom_pmf(j, p.candidates, 0.3) for j in range(cover + 1))
        assert outcome.burst_safety == pytest.approx(outcome.burst_regular * cdf, rel=1e-14)


def test_episode_overwhelming_attack():
    # lambda_a * delta0 = 50 on M=20: exit on the first observation
    p = params(lambda_a=50.0)
    bursts = 0
    for seed in range(10_000):
        outcome = estimate(p, 1, seed=seed)
        bursts += outcome.burst_regular
        assert outcome.mean_nu == 1 or outcome.mean_a_exit >= 11
    assert bursts / 10_000 > 0.99


def test_estimate_determinism_and_worker_independence(simulate):
    p = params()
    base = estimate(p, episodes=20_000, seed=9, rho=0.4)
    again = estimate(p, episodes=20_000, seed=9, rho=0.4)
    four = simulate(p, 20_000, seed=9, rho=0.4, workers=4)
    assert base == again == four


def test_estimate_no_attacker():
    p = params(lambda_a=0.0)
    stats = estimate(p, episodes=500, seed=3, rho=0.5)
    assert stats.burst_regular == stats.burst_safety == 0.0
    assert stats.prior_safe_rate == 1.0
    assert stats.censored_count == 500
    assert math.isnan(stats.mean_nu)


def test_estimate_rejects_epoch_means_beyond_int64_counts():
    for la in (1e16, 1e300):
        with pytest.raises(ValueError, match=r"lambda_a \* max\(delta0, delta\) must be at most"):
            estimate(params(lambda_a=la), episodes=10, seed=1)
    for M in (2**63, 2 * 10**19):
        with pytest.raises(ValueError, match="threshold M // 2 [+] 1 must be at most"):
            estimate(params(M=M), episodes=10, seed=1)


@pytest.mark.parametrize("lambda_h", [1e16, 1e300])
def test_estimate_takes_honest_rates_past_the_epoch_mean_bound(lambda_h):
    """No honest count is drawn, so lambda_h is not bounded: the honest side
    holds its majority within about 11 / lambda_h, long before any exit
    epoch ends, and no RuntimeWarning is raised (the test suite makes those
    errors)."""
    stats = estimate(params(lambda_h=lambda_h), episodes=20, seed=1, rho=0.5)
    assert stats.censored_count == 0
    assert (stats.burst_regular, stats.burst_regular_se) == (0.0, 0.0)
    assert (stats.burst_safety, stats.burst_safety_se) == (0.0, 0.0)


def test_epoch_mean_bound_checked_before_any_chunk(monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(sim, "_chunk_sums", no_chunk)
    with pytest.raises(ValueError, match="at most"):
        estimate(params(lambda_a=1e300), episodes=10_000, seed=1)


def chunk_threads(monkeypatch) -> list:
    """Record each chunk estimate computes: return the list of (chunk index,
    the computing thread, threads alive then), filled as they run."""
    seen = []
    real = sim._chunk_sums

    def recorded(params, rho, seed, index, size):
        seen.append((index, threading.current_thread(), threading.active_count()))
        return real(params, rho, seed, index, size)

    monkeypatch.setattr(sim, "_chunk_sums", recorded)
    return seen


def test_one_worker_runs_in_the_callers_thread(monkeypatch, simulate):
    """At any ``--workers``, more than the CPUs too, every chunk runs in the
    caller's thread, in chunk order, no thread is started, and the stats
    are the same (a count below 1 exits 2: ``test_invalid_override_exits_2``
    in test_cli.py)."""
    p = params(lambda_h=0.5)
    episodes = 3 * sim.CHUNK
    caller, start = threading.current_thread(), threading.active_count()
    one = estimate(p, episodes=episodes, seed=8, rho=0.5)
    for workers in (1, 2, 7):
        with monkeypatch.context() as patch:
            seen = chunk_threads(patch)
            assert simulate(p, episodes, seed=8, rho=0.5, workers=workers) == one
        assert seen == [(index, caller, start) for index in range(3)], workers
        assert threading.active_count() == start


STREAM_SEEDS = (0, -1, 2**63, 2**64 - 1)


def _draws(rng):
    """One 32-bit draw, 1000 doubles and a binomial."""
    return ([rng.integers(2**32, dtype=np.uint32)] + rng.random(1000).tolist()
            + rng.binomial(np.arange(100), 0.3).tolist())


def test_streams_are_spawned_sfc64_children():
    """A chunk's generator draws what SFC64 seeded by that chunk's child of
    SeedSequence(seed mod 2**64), spawn(chunk + 1)[chunk], draws.  spawn
    counts its children in 32 bits, so past the first few chunks the child
    is built as spawn builds it: the root's entropy, spawn key (chunk,)."""
    for seed in STREAM_SEEDS:
        root = np.random.SeedSequence(seed % 2**64)
        children = dict(enumerate(root.spawn(2)))
        for chunk in (0, 1, 2**32, 2**40):
            child = children.get(chunk) or np.random.SeedSequence(
                root.entropy, spawn_key=(chunk,), pool_size=root.pool_size)
            assert child.spawn_key == (chunk,)
            fresh = np.random.Generator(np.random.SFC64(child))
            assert _draws(sim._streams(seed, chunk)) == _draws(fresh)


def test_streams_keep_seed_and_chunk_apart():
    """(2**32 + 5, 0) and (5, 1) name distinct streams, as do (0, 0) and
    (0, 2**32); seeding by the entropy tuple (seed, chunk) pads both of the
    first pair to the same words."""
    pairs = [((2**32 + 5, 0), (5, 1)), ((0, 0), (0, 2**32))]

    def distinct(streams):
        return all(_draws(streams(*a)) != _draws(streams(*b)) for a, b in pairs)

    assert distinct(sim._streams)
    assert not distinct(lambda seed, chunk: np.random.default_rng((seed, chunk)))


# (M, lambda_a) at which a chunk's exit counts sum past int64.
PAST_INT64 = [(10**17, 1e3), (2**63 - 2, 1e6)]


@pytest.mark.parametrize("M, lambda_a", PAST_INT64)
def test_estimate_mean_exit_count_past_int64_chunk_sums(M, lambda_a):
    # A chunk's exit counts sum past int64, up to the largest threshold
    # the simulator takes, 2**62; each count is the threshold plus an
    # overshoot of mean lambda_a * delta.
    p = params(M=M, lambda_a=lambda_a)
    stats = estimate(p, episodes=1000, seed=1)
    assert stats.censored_count == 0
    expected = majority_threshold(M) + lambda_a
    assert stats.mean_a_exit == pytest.approx(expected, rel=1e-12, abs=0.0)
    # About 1 / (1 + lambda_a); the prior-safe values' spread is near 1e-10.
    exact = pathwise_events(p, 0.0).prior_safe
    assert stats.prior_safe_rate == pytest.approx(exact, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("M, lambda_a", PAST_INT64)
def test_prior_safe_se_keeps_a_tiny_spread(M, lambda_a):
    """The prior-safe values lie within about 1 / lambda_a of 1 here, so
    sqrt(s (sum v^2 / sum v - s) / E) cancelled to rounding noise (0.0 at
    M = 2^63 - 2, 6.2e-11 at M = 10^17); squared deviations about each
    chunk's mean, pooled, keep their spread.  Seeds 0-19 pass the seed
    rule against the exact value (``assert_calibrated``).  The seeds are not
    pooled into one estimate: near 1 its SE would fall under the float
    spacing.  At odd M every value is exactly 1, so the estimate reads 1
    with SE 0."""
    p = params(M=M, lambda_a=lambda_a)
    runs = [estimate(p, 200_000, seed=seed) for seed in range(20)]
    assert_calibrated([s.prior_safe_rate for s in runs], [s.prior_safe_se for s in runs],
                      pathwise_events(p, 0.0).prior_safe)
    for lambda_h in (0.0, 0.5, 2.0):
        stats = estimate(params(M=21, lambda_h=lambda_h), 10_000, seed=5)
        assert (stats.prior_safe_rate, stats.prior_safe_se) == (1.0, 0.0)


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
        stats = estimate(p, episodes, seed=12)
        nu, censored = sample_exit_indices(p, episodes, seed=12)
        assert censored == stats.censored_count == 0
        assert sum(nu.tolist()) / episodes == stats.mean_nu
        se = nu.astype(float).std() / math.sqrt(episodes)
        assert stats.mean_nu_se == pytest.approx(se, rel=1e-9, abs=0.0), p.M


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
    # (lambda_h, label, rho, seed, outcome): outcome is the episode's nu,
    # a_exit, burst_regular, burst_safety, prior_safe and censored, as
    # ``_chunk`` draws them.  Safety's value at M = 20, rho = 1/2 is
    # P{B <= a_exit - 11}, B ~ Binomial(9, 1/2): 46/512 at a_exit = 13,
    # 10/512 at 12, 1/512 at 11.  The prior-safe value is (s - 1) / (F +
    # s - 1), with F = nu - 2 ends and s - 1 = 10 - A1.
    (0.5, SAFETY, 0.5, 0, (6, 12, True, 10 / 512, 9 / 13, False)),
    (0.5, SAFETY, 0.5, 1, (13, 11, True, 1 / 512, 10 / 21, False)),
    (0.5, SAFETY, 0.5, 7, (11, 11, True, 1 / 512, 9 / 18, False)),
    (0.5, SAFETY, 0.5, 2024, (4, 13, True, 46 / 512, 8 / 10, False)),
    (2.0, SAFETY, 0.5, 0, (6, 12, False, 0.0, 9 / 13, False)),
    (2.0, SAFETY, 0.5, 3, (19, 11, False, 0.0, 8 / 25, False)),
    (2.0, REGULAR, 0.0, 0, (6, 12, False, 0.0, 9 / 13, False)),
    # Seed 38 is the first at lambda_h = 2 whose attacker exits first.
    (2.0, SAFETY, 0.5, 38, (4, 11, True, 1 / 512, 2 / 4, False)),
    (2.0, REGULAR, 0.0, 38, (4, 11, True, 1.0, 2 / 4, False)),
]

REGULAR_STATS = SimStats(
    episodes=10000,
    burst_regular=0.9218,
    burst_regular_se=0.002684860517792312,
    burst_safety=0.9218,
    burst_safety_se=0.002684860517792312,
    prior_safe_rate=0.49795413568922775,
    prior_safe_se=0.0011932237577100082,
    mean_nu=12.0539,
    mean_nu_se=0.0463152186543473,
    mean_a_exit=11.9919,
    censored_count=0,
    burst_safety_ess=9218.0,
)
GOLDEN_STATS = [
    (REGULAR, 0.0, REGULAR_STATS),
    (
        SAFETY,
        0.5,
        SimStats(
            episodes=10000,
            burst_regular=0.9218,
            burst_regular_se=0.002684860517792312,
            burst_safety=0.064676171875,
            burst_safety_se=0.0015893891825533334,
    prior_safe_rate=0.49795413568922775,
            prior_safe_se=0.0011932237577100082,
            mean_nu=12.0539,
            mean_nu_se=0.0463152186543473,
            mean_a_exit=11.9919,
            censored_count=0,
            burst_safety_ess=1420.637082217421,
        ),
    ),
]


def one_episode(nu, a_exit, regular, safety, safe, censored) -> SimStats:
    """The SimStats of one episode of these values: each mean is its value,
    nan for a censored episode's nu and a_exit, and each SE is 0."""
    return SimStats(
        episodes=1,
        burst_regular=float(regular),
        burst_regular_se=0.0,
        burst_safety=safety,
        burst_safety_se=0.0,
        prior_safe_rate=safe,
        prior_safe_se=0.0,
        mean_nu=math.nan if censored else float(nu),
        mean_nu_se=0.0,
        mean_a_exit=math.nan if censored else float(a_exit),
        censored_count=int(censored),
        burst_safety_ess=1.0 if safety else 0.0,
    )


@pytest.mark.parametrize("lambda_h, label, rho, seed, outcome", GOLDEN_EPISODES)
def test_golden_episode(lambda_h, label, rho, seed, outcome):
    """The one-episode estimate reports the episode's values; its exact
    counts and types are chunk 0's at size 1."""
    p = params(lambda_h=lambda_h)
    assert estimate(p, 1, seed=seed, rho=rho) == one_episode(*outcome)
    drawn = [a.item() for a in sim._chunk(p, rho, seed, 0, 1)]
    assert drawn == list(outcome)
    assert [type(v) for v in drawn] == [int, int, bool, float, float, bool]
    if label == REGULAR:
        assert drawn[3] == drawn[2]


def test_golden_censored_episode():
    """A censored episode draws 0 for nu and A1 (here 0) for a_exit; the
    estimate reads neither."""
    p = params(lambda_a=0.0, lambda_h=2.0)
    outcome = (0, 0, False, 0.0, 1.0, True)
    assert same_stats(estimate(p, 1, seed=5), one_episode(*outcome))
    assert [a.item() for a in sim._chunk(p, 0.0, 5, 0, 1)] == list(outcome)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("label, rho, stats", GOLDEN_STATS)
def test_golden_estimate(simulate, label, rho, stats, workers):
    """Pinned for ``estimate``, and for ``swarmgame simulate`` at 1 and 2
    ``--workers``, which it ignores."""
    p = params(lambda_h=0.5)
    assert estimate(p, episodes=10_000, seed=11, rho=rho) == stats
    assert simulate(p, 10_000, seed=11, rho=rho, workers=workers) == stats


# At an attack rate whose overshoot is about as large as the ally count,
# so each episode's Safety value is far from 0 and 1: n = 59 allies at
# rho = 0.5 and 0.9, and n = 499.  Each id ends with the Safety rate and
# SE that an estimator drawing the allies read when the row was first
# pinned.  On the present paths, with the allies drawn from the stream
# ``sim_reference`` gives them, that indicator reads the rate and SE in
# each row's comment; the conditional pins lie within those SEs, with
# smaller SEs.
GOLDEN_ALLY_STATS = [
    # (M, lambda_a, rho, burst_safety, burst_safety_se, burst_safety_ess)
    pytest.param(  # 0.3836, SE 0.004862623160393987
        120, 30.0, 0.5, 0.3839246488841968, 0.004565732875134354, 4142.057359034179,
        id="120-30.0-0.5-0.3795-0.004852625577973228",
    ),
    pytest.param(  # 0.1736, SE 0.0037876515151212104
        120, 30.0, 0.9, 0.17339989832423172, 0.003688701895027522, 1809.8494299050226,
        id="120-30.0-0.9-0.1772-0.003818378713537985",
    ),
    pytest.param(  # 0.3684, SE 0.004823706458730671
        1000, 250.0, 0.5, 0.3686539283311128, 0.004722424903683132, 3786.532248026055,
        id="1000-250.0-0.5-0.3687-0.004824523914336004",
    ),
]
GOLDEN_ALLY_COMMON = {
    120: dict(
        prior_safe_rate=0.9672808802676531,
        prior_safe_se=0.000758353856114947,
        mean_nu=3.0446,
        mean_nu_se=0.014617150337873658,
        mean_a_exit=90.8627,
    ),
    1000: dict(
        prior_safe_rate=0.9957584314606754,
        prior_safe_se=0.0002852663197174471,
        mean_nu=3.0015,
        mean_nu_se=0.014226376031864194,
        mean_a_exit=748.535,
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("M, lambda_a, rho, burst, burst_se, ess", GOLDEN_ALLY_STATS)
def test_golden_estimate_ally_draws(simulate, M, lambda_a, rho, burst, burst_se, ess, workers):
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
    assert estimate(p, episodes=10_000, seed=11, rho=rho) == stats
    assert simulate(p, 10_000, seed=11, rho=rho, workers=workers) == stats


def test_golden_exit_indices():
    nu, censored = sample_exit_indices(params(lambda_h=0.5), 10_000, seed=11)
    assert (int(nu.sum()), len(nu), censored) == (120539, 10000, 0)
    assert nu.mean() == REGULAR_STATS.mean_nu


def test_episode_is_first_episode_of_estimate_and_exit_indices():
    """estimate and sample_exit_indices at one episode see chunk 0 at size 1."""
    p = params(lambda_h=0.5)
    for seed in range(40):
        for rho in (0.0, 0.5):
            episode = [a.item() for a in sim._chunk(p, rho, seed, 0, 1)]
            assert estimate(p, episodes=1, seed=seed, rho=rho) == one_episode(*episode)
        nu, censored = sample_exit_indices(p, 1, seed=seed)
        assert (nu.tolist(), censored) == ([episode[0]], 0)


@pytest.mark.parametrize(
    "overrides, rho",
    [
        *(
            pytest.param(dict(lambda_h=lh, delta0=2.0, delta=0.5), 0.5, id=str(lh))
            for lh in (0.0, 0.5, 2.0)
        ),
        pytest.param(dict(M=4, lambda_h=1.0, delta0=2.0, delta=3.0), 0.5, id="M=4-1.0-delta=3"),
        # E[nu] = 15 002 epochs; rho = 1e-4 puts the Safety burst near 0.47.
        pytest.param(dict(M=30_000), 1e-4, id="M=30000"),
    ],
)
def test_estimate_matches_pathwise_events(overrides, rho):
    # The simulator's own events against their exact probabilities, at
    # 3 SE of the exact value, with delta0 != delta and at large M; then
    # the seed rule over 20 seeds.
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
    # Also within 3 of its own SE, far below the indicator's at M = 30 000
    # (6.4e-6 against 1.1e-3).
    assert abs(stats.prior_safe_rate - exact.prior_safe) <= 3 * stats.prior_safe_se
    if p.M == 30_000:
        assert stats.prior_safe_se < 1e-4
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
    assert_runs_calibrated(p, rho, seed_runs(p, rho))


def long_shape(**overrides):
    """The benchmark's long simulate shape: M = 120, lambda_h = 0."""
    return params(M=120, **overrides)


def seed_runs(p, rho, episodes=65_536, seeds=20) -> list:
    """``estimate`` at seeds 0 .. seeds - 1."""
    return [estimate(p, episodes, seed=seed, rho=rho) for seed in range(seeds)]


def assert_runs_calibrated(p, rho, runs):
    """The seed rule on ``runs``: Regular, Safety and prior-safe against
    ``pathwise_events``, and the mean exit index against E[nu].  At
    lambda_h = 0 Regular is 1 with SE 0, so the rule asks each seed to
    read exactly 1."""
    exact = pathwise_events(p, rho)
    for rate, se, want in [
        ("burst_regular", "burst_regular_se", exact.burst_regular),
        ("burst_safety", "burst_safety_se", exact.burst_safety),
        ("prior_safe_rate", "prior_safe_se", exact.prior_safe),
        ("mean_nu", "mean_nu_se", expected_exit_index(p)),
    ]:
        assert_calibrated([getattr(s, rate) for s in runs], [getattr(s, se) for s in runs], want)


def test_estimate_is_calibrated_at_the_short_shape():
    """Beside the one-seed check above, the seed rule over 20 seeds of
    65 536 episodes at the benchmark's short shape (M = 20, lambda_h =
    0.5, rho = 1/2)."""
    p = params(lambda_h=0.5)
    assert_runs_calibrated(p, 0.5, seed_runs(p, 0.5))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the long shape's Safety is heavy-tailed: "
                   "ROADMAP item 17's tilted overshoot must make it pass")
def test_safety_is_calibrated_at_the_long_shape():
    """At the benchmark's long shape (M = 120, lambda_h = 0, rho = 1/2,
    65 536 episodes) Safety, 4.25e-8, rests on overshoots of probability
    about 2^-20 each: seeds 0-19 read a mean z of -15.5 and an sd of 19.7,
    and 42 of seeds 0-99 lie within 3 SE."""
    p = long_shape()
    runs = seed_runs(p, 0.5)
    assert_calibrated([s.burst_safety for s in runs], [s.burst_safety_se for s in runs],
                      pathwise_events(p, 0.5).burst_safety)


def test_safety_sees_a_rare_event_the_indicator_cannot():
    """At the long shape, rho = 1/2, Safety is 4.25e-8, far below 1 / E, so
    the indicator of drawn allies reads 0 +- 0.  Every episode's Safety
    value is at least P{B = 0} = 2^-59, so the estimate and its SE are
    positive at any seed.  The value is carried by overshoots near 19, of
    probability about 2^-20 each, which 65 536 episodes seldom draw: the
    estimate is mostly low, within 3 SE for 42 of seeds 0-99, and is not
    checked against the exact value here (the seed rule fails there, as
    ``test_safety_is_calibrated_at_the_long_shape`` records).  Its
    effective sample, (sum w)^2 / sum w^2, is below 100 episodes (1.2
    here; a median of 2.7 and at most 12.1 over seeds 0-99), which
    ``simulate`` notes.

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


@pytest.mark.parametrize(
    "p, episodes", [(params(lambda_h=0.5), 131_072), (long_shape(), 65_536)],
    ids=["short", "long"],
)
def test_prior_safe_se_is_below_the_indicators(p, episodes):
    """At the benchmark's shapes the prior-safe values' SE is below half the
    indicator's sqrt(s (1 - s) / E), s the estimate: 0.24 and 0.09 times it,
    17 and 118 times less variance."""
    stats = estimate(p, episodes, seed=2026, rho=0.5)
    s = stats.prior_safe_rate
    assert 0.0 < stats.prior_safe_se < 0.5 * math.sqrt(s * (1.0 - s) / episodes)


def test_counts_below_the_ally_window_build_no_table(monkeypatch):
    """At M = 2^63 - 2 the allies' cdf at rho = 1/2 would table about 10^11
    counts around 2^61; the exit counts lie far below them."""

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(kernels, "_binom_table", no_table)
    for M, lambda_a in PAST_INT64:
        stats = estimate(params(M=M, lambda_a=lambda_a), 5000, seed=1, rho=0.5)
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
    # Seeds are taken modulo 2**64 into the chunk streams' SeedSequence;
    # negative seeds and seeds >= 2**63 used to collapse onto one float64 key.
    p = params()
    seeds = (0, -1, -2, -1000, 2**63, 2**63 + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        means = [estimate(p, episodes=2000, seed=s).mean_nu for s in seeds]
    assert len(set(means)) == len(seeds)
    # seed and seed + 2**64 name the same stream
    assert estimate(p, 1, seed=-1, rho=0.5) == estimate(p, 1, seed=2**64 - 1, rho=0.5)


def test_short_horizon_bookkeeping():
    # Three chunks (4096, 4096, 808) with an honest race under way, where
    # lambda_a delta = lambda_h delta = 8 / MAX_EXIT_TIME puts about 60% of
    # the crossings past MAX_EXIT_TIME: the rest exit with nu up to about
    # 2**50, so sums of nu are far past float64's 2**53.
    p = params(lambda_h=1.0, delta0=2.0, delta=8 / sim.MAX_EXIT_TIME)
    episodes = 9000
    stats = estimate(p, episodes, seed=31, rho=0.5)
    assert 0 < stats.censored_count < episodes
    nu, censored = sample_exit_indices(p, episodes, seed=31)
    assert censored == stats.censored_count
    done = episodes - censored
    # nu - 2 is a Poisson count with a mean below MAX_EXIT_TIME.
    limit = 2 * sim.MAX_EXIT_TIME
    assert len(nu) == done and nu.max() <= limit
    # estimate's exact integer sum, divided as estimate divides it: here
    # mean_nu * done need not round back to the sum.
    assert sum(nu.tolist()) / done == stats.mean_nu
    outcomes = [estimate(p, 1, seed=seed, rho=0.5) for seed in range(60)]
    cut = [o for o in outcomes if o.censored_count]
    assert cut and len(cut) < len(outcomes)
    for o in cut:
        assert math.isnan(o.mean_nu) and math.isnan(o.mean_a_exit)
        assert o.burst_regular == o.burst_safety == 0.0
    for o in outcomes:
        assert 0.0 <= o.prior_safe_rate <= 1.0


# The path-level sampler against the epoch loop it replaced
# (``sim_reference``), in law: two independent samples of 200 000
# episodes each, every statistic's means within 4 SE of their
# difference.  The bound is 4 rather than 3 SE because each case compares
# 11 statistics; the cross moments check the joint law of (nu, a_exit,
# prior_safe), not only its margins.  The sampler's prior-safe value is
# the loop's indicator's mean given a path that fixes nu and a_exit, so
# its products with them have the indicator's products' means.


def _outcomes(chunk, p, seed, episodes, rho=0.5):
    """Episodes of ``estimate``'s chunks drawn by ``chunk``, as float arrays."""
    sizes = [min(sim.CHUNK, episodes - i) for i in range(0, episodes, sim.CHUNK)]
    parts = [chunk(p, rho, seed, i, size) for i, size in enumerate(sizes)]
    return [np.concatenate(column).astype(float) for column in zip(*parts)]


def _statistics(outcomes):
    nu, a_exit, regular, safety, safe, censored = outcomes
    return {
        "nu": nu,
        "prior_safe": safe,
        "a_exit": a_exit,
        "censored": censored,
        "burst_regular": regular,
        "burst_safety": safety,
        "nu^2": nu**2,
        "a_exit^2": a_exit**2,
        "nu prior_safe": nu * safe,
        "a_exit prior_safe": a_exit * safe,
        "nu a_exit": nu * a_exit,
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
@pytest.mark.parametrize(
    "overrides",
    [
        *(
            pytest.param(dict(lambda_h=lh, delta0=2.0, delta=0.5), id=str(lh))
            for lh in (0.0, 0.5, 2.0)
        ),
        # The honest side ten times as fast, over short epochs: the
        # attacker exits first in about 0.3% of episodes.
        pytest.param(dict(M=4, lambda_h=10.0, delta0=0.5, delta=0.05), id="M=4-10.0"),
        # A first epoch shorter than the others, at whose end about 30% of
        # the episodes exit.
        pytest.param(dict(M=4, lambda_h=1.0, delta0=2.0, delta=3.0), id="M=4-1.0-delta=3"),
    ],
)
def test_sampler_matches_epoch_loop(overrides, horizon):
    assert_same_law(params(**overrides), horizon)


def test_sampler_matches_epoch_loop_without_attacker():
    # Every episode is censored; only epoch 1's honest count is random.
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
    nu, a_exit, _, _, safe, censored = sim._chunk(p, 0.5, 3, 0, sim.CHUNK)
    assert ((nu == 0) == censored).all()
    assert (a_exit[censored] < majority_threshold(p.M)).all()
    assert ((0.0 <= safe) & (safe <= 1.0)).all()
    if p.lambda_a * p.delta < 1e-100:
        assert set(nu.tolist()) <= {0, 1}
        # No capture follows epoch 1, whose count alone settles the prior
        # epoch: a censored episode's count is A1, its a_exit, and with
        # s = 1 it reads 1 - 0^0 = 0; an epoch-1 exit reads 1.
        assert (safe == np.where(censored, a_exit < p.M / 2, True)).all()
    # Counts stay below 2 * MAX_EXIT_TIME, and a chunk's int64 sum of
    # them is exact.
    assert nu.max() < 2 * sim.MAX_EXIT_TIME
    assert int(nu.sum()) == sum(nu.tolist())


def sums_of_chunk(params, rho, seed, index, size):
    """``sim._chunk_sums`` taken from ``_chunk``'s arrays one by one, a_exit's
    sum in Python ints: the reference its reduction of the draws must
    equal.  Regular is never censored, and Safety's values are 0 off it."""
    nu, a_exit, regular, safety, safe, censored = sim._chunk(params, rho, seed, index, size)
    assert not (regular & censored).any() and (safety[~regular] == 0.0).all()
    done = ~censored

    def moments(values):
        count = values.size
        total = sum(values.tolist()) if values.dtype.kind == "i" else float(values.sum())
        deviation = values - (total / count if count else 0.0)
        return count, total, float((deviation**2).sum())

    return (int(censored.sum()), sum(a_exit[done].tolist()),
            *(moments(v) for v in (np.where(regular, 1.0, 0.0), safety, safe, nu[done])))


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
    its fold of the sums of _chunk's arrays; sample_exit_indices keeps
    _chunk's exit indices."""
    p = params(**overrides)
    for episodes in (1, sim.CHUNK - 1, sim.CHUNK + 1, 20_000):
        direct = estimate(p, episodes, seed=9, rho=rho)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_chunk_sums", sums_of_chunk)
            reference = estimate(p, episodes, seed=9, rho=rho)
        assert same_stats(direct, reference), (episodes, direct, reference)
    episodes = 2 * sim.CHUNK + 1
    chunks = [sim._chunk(p, 0.0, 9, index, min(sim.CHUNK, episodes - index * sim.CHUNK))
              for index in range(3)]
    nu, censored = sample_exit_indices(p, episodes, seed=9)
    assert nu.tolist() == [n for c in chunks for n in c[0][~c[-1]].tolist()]
    assert censored == sum(int(c[-1].sum()) for c in chunks)


LEAN_RUN = """\
import json, sys
from swarmgame import kernels, sim
from swarmgame.model import SwarmParams
p = SwarmParams(M=20, drone_value=1500.0, lambda_a=1.0, delta0=1.0, delta=1.0)
loaded = ["concurrent.futures" in sys.modules]
sim.estimate(p, episodes=2 * sim.CHUNK, seed=1)
loaded.append("concurrent.futures" in sys.modules)
print(json.dumps(loaded))
"""


def test_simulator_never_loads_concurrent_futures():
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", LEAN_RUN],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    # Imported, then run.
    assert json.loads(result.stdout.splitlines()[-1]) == [False, False]
