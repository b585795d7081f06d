import math

import pytest

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
    a = simulate_episode(p, SAFETY, seed=123, rho=0.5)
    b = simulate_episode(p, SAFETY, seed=123, rho=0.5)
    assert a == b


def test_episode_no_attacker_censors():
    p = params(lambda_a=0.0, lambda_h=2.0)
    outcome = simulate_episode(p, REGULAR, seed=5, horizon=50)
    assert outcome.censored
    assert not outcome.burst
    assert outcome.nu is None
    assert outcome.mu is not None  # honest side crossed well within 50 epochs


def test_episode_coupling_rho_zero():
    p = params()
    for seed in range(30):
        regular = simulate_episode(p, REGULAR, seed=seed)
        safety = simulate_episode(p, SAFETY, seed=seed, rho=0.0)
        assert safety.allies == 0
        assert regular.burst == safety.burst
        assert regular.nu == safety.nu


def test_episode_exit_counts_bracket_threshold():
    p = params()
    threshold = majority_threshold(p.M)
    for seed in range(50):
        outcome = simulate_episode(p, SAFETY, seed=seed, rho=0.3)
        assert not outcome.censored
        assert outcome.nu >= 1
        assert outcome.a_prior < threshold <= outcome.a_exit
        assert 0 <= outcome.allies <= p.candidates


def test_episode_overwhelming_attack():
    # lambda_a * delta0 = 50 on M=20: exit on the first observation
    p = params(lambda_a=50.0)
    bursts = 0
    for seed in range(10_000):
        outcome = simulate_episode(p, REGULAR, seed=seed)
        bursts += outcome.burst
        assert outcome.nu == 1 or outcome.a_exit >= 11
    assert bursts / 10_000 > 0.99


def test_episode_rejects_bad_strategy():
    with pytest.raises(ValueError):
        simulate_episode(params(), "Aggressive", seed=0)


def test_estimate_determinism_and_worker_independence():
    p = params()
    base = estimate(p, SAFETY, episodes=20_000, seed=9, rho=0.4)
    again = estimate(p, SAFETY, episodes=20_000, seed=9, rho=0.4)
    threaded = estimate(p, SAFETY, episodes=20_000, seed=9, rho=0.4, workers=4)
    assert base == again == threaded


def test_estimate_no_attacker():
    p = params(lambda_a=0.0)
    stats = estimate(p, REGULAR, episodes=500, seed=3, horizon=200)
    assert stats.burst_rate == 0.0
    assert stats.prior_safe_rate == 1.0
    assert stats.censored_count == 500
    assert math.isnan(stats.mean_nu)


def test_estimate_single_episode_se():
    stats = estimate(params(), REGULAR, episodes=1, seed=1)
    assert stats.mean_nu_se == 0.0
    assert stats.episodes == 1


def test_estimate_mean_nu_sane():
    stats = estimate(params(), REGULAR, episodes=50_000, seed=2)
    assert stats.censored_count == 0
    assert stats.mean_nu >= 1.0
    # mean exit count sits just above the strict-majority threshold
    assert 11.0 <= stats.mean_a_exit <= 13.0


def test_estimate_coupling_rho_zero():
    p = params()
    regular = estimate(p, REGULAR, episodes=10_000, seed=4)
    safety = estimate(p, SAFETY, episodes=10_000, seed=4, rho=0.0)
    assert regular.burst_rate == safety.burst_rate
    assert regular.mean_nu == safety.mean_nu


def test_burst_rate_nonincreasing_in_honest_rate():
    # the honest race nu < mu binds more as lambda_h grows
    episodes = 40_000
    rates = []
    for lh in (0.0, 2.0, 5.0, 10.0, 20.0):
        stats = estimate(params(lambda_h=lh), REGULAR, episodes=episodes, seed=8)
        rates.append((stats.burst_rate, stats.burst_se))
    for (ra, sa), (rb, sb) in zip(rates, rates[1:]):
        assert rb <= ra + 3 * math.hypot(sa, sb) + 1e-12


def test_safety_allies_lower_burst_rate():
    p = params(lambda_a=3.0)
    none = estimate(p, SAFETY, episodes=40_000, seed=6, rho=0.0)
    many = estimate(p, SAFETY, episodes=40_000, seed=6, rho=0.9)
    assert many.burst_rate < none.burst_rate


# Golden values: simulator outputs pinned bit for bit, so a change to the
# epoch loop or the stream layout cannot pass unseen.  They were recorded
# before the three epoch loops were folded into one chunk kernel.

GOLDEN_EPISODES = [
    # (lambda_h, strategy, rho, seed, outcome)
    (0.5, SAFETY, 0.5, 0, EpisodeOutcome(7, None, 6, 11, 6, False, False)),
    (0.5, SAFETY, 0.5, 1, EpisodeOutcome(9, None, 9, 11, 2, False, False)),
    (0.5, SAFETY, 0.5, 7, EpisodeOutcome(12, None, 10, 11, 6, False, False)),
    (0.5, SAFETY, 0.5, 2024, EpisodeOutcome(10, None, 9, 15, 2, True, False)),
    (2.0, SAFETY, 0.5, 0, EpisodeOutcome(7, 6, 9, 12, 6, False, False)),
    (2.0, SAFETY, 0.5, 3, EpisodeOutcome(8, 3, 9, 12, 5, False, False)),
    (2.0, REGULAR, 0.0, 0, EpisodeOutcome(7, 6, 9, 12, 0, False, False)),
]

REGULAR_STATS = SimStats(
    episodes=10000,
    burst_rate=0.9227,
    burst_se=0.002670668642868299,
    prior_safe_rate=0.5045,
    prior_safe_se=0.004999797495899209,
    mean_nu=11.9511,
    mean_nu_se=0.04708641926288299,
    mean_a_exit=12.0141,
    censored_count=0,
)
GOLDEN_STATS = [
    (REGULAR, 0.0, REGULAR_STATS),
    (
        SAFETY,
        0.5,
        SimStats(
            episodes=10000,
            burst_rate=0.0694,
            burst_se=0.0025413311472533445,
            prior_safe_rate=0.5045,
            prior_safe_se=0.004999797495899209,
            mean_nu=11.9511,
            mean_nu_se=0.04708641926288299,
            mean_a_exit=12.0141,
            censored_count=0,
        ),
    ),
]


@pytest.mark.parametrize("lambda_h, strategy, rho, seed, outcome", GOLDEN_EPISODES)
def test_golden_episode(lambda_h, strategy, rho, seed, outcome):
    got = simulate_episode(params(lambda_h=lambda_h), strategy, seed=seed, rho=rho)
    assert got == outcome
    assert all(
        type(getattr(got, f)) is type(getattr(outcome, f))
        for f in EpisodeOutcome.__dataclass_fields__
    )


def test_golden_censored_episode():
    p = params(lambda_a=0.0, lambda_h=2.0)
    got = simulate_episode(p, REGULAR, seed=5, horizon=50)
    assert got == EpisodeOutcome(None, 8, 0, 0, 0, False, True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("strategy, rho, stats", GOLDEN_STATS)
def test_golden_estimate(strategy, rho, stats, workers):
    p = params(lambda_h=0.5)
    assert estimate(p, strategy, episodes=10_000, seed=11, rho=rho, workers=workers) == stats


def test_golden_exit_indices():
    nu, censored = sample_exit_indices(params(lambda_h=0.5), 10_000, seed=11)
    assert (int(nu.sum()), len(nu), censored) == (119511, 10000, 0)
    assert nu.mean() == REGULAR_STATS.mean_nu


def test_episode_is_first_episode_of_estimate_and_exit_indices():
    p = params(lambda_h=0.5)
    for seed in range(40):
        for strategy, rho in ((REGULAR, 0.0), (SAFETY, 0.5)):
            episode = simulate_episode(p, strategy, seed=seed, rho=rho)
            stats = estimate(p, strategy, episodes=1, seed=seed, rho=rho)
            assert stats.burst_rate == float(episode.burst)
            assert stats.mean_nu == episode.nu
            assert stats.mean_a_exit == episode.a_exit
        nu, censored = sample_exit_indices(p, 1, seed=seed)
        assert (nu.tolist(), censored) == ([episode.nu], 0)
