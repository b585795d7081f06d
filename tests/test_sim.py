import math
import warnings

import pytest

from swarmgame.fluctuation import pathwise_events
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
    outcome = simulate_episode(p, seed=5, horizon=50)
    assert outcome.censored
    assert not outcome.burst_regular and not outcome.burst_safety
    assert outcome.nu is None
    assert outcome.mu is not None  # honest side crossed well within 50 epochs


def test_episode_coupling_rho_zero():
    # Regular is Safety with no allies; rho moves only the allies.
    p = params(lambda_h=0.5)
    for seed in range(30):
        none = simulate_episode(p, seed=seed)
        some = simulate_episode(p, seed=seed, rho=0.5)
        assert none.allies == 0
        assert none.burst_regular == none.burst_safety == some.burst_regular
        assert (none.nu, none.mu, none.a_exit) == (some.nu, some.mu, some.a_exit)
        assert some.burst_safety <= some.burst_regular


def test_episode_exit_counts_bracket_threshold():
    p = params()
    threshold = majority_threshold(p.M)
    for seed in range(50):
        outcome = simulate_episode(p, seed=seed, rho=0.3)
        assert not outcome.censored
        assert outcome.nu >= 1
        assert outcome.a_prior < threshold <= outcome.a_exit
        assert 0 <= outcome.allies <= p.candidates


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
    stats = estimate(p, episodes=500, seed=3, rho=0.5, horizon=200)
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


def test_estimate_single_episode_se():
    stats = estimate(params(), episodes=1, seed=1)
    assert stats.mean_nu_se == 0.0
    assert stats.episodes == 1


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
# epoch loop or the stream layout cannot pass unseen.  They were recorded
# when the epoch loop began to draw only for live episodes, each epoch's
# counts from their exact geometric-binomial law; the pathwise_events
# checks below pin the law these draws follow.  Each row's label names the
# strategy it was first pinned for, when the simulator ran one strategy
# per pass: Regular rows sit at rho = 0, where the two bursts agree.

GOLDEN_EPISODES = [
    # (lambda_h, label, rho, seed, outcome)
    (0.5, SAFETY, 0.5, 0, EpisodeOutcome(5, None, 3, 11, 6, True, False, False)),
    (0.5, SAFETY, 0.5, 1, EpisodeOutcome(6, None, 9, 14, 2, True, True, False)),
    (0.5, SAFETY, 0.5, 7, EpisodeOutcome(9, None, 10, 14, 6, True, False, False)),
    (0.5, SAFETY, 0.5, 2024, EpisodeOutcome(13, None, 9, 14, 2, True, True, False)),
    (2.0, SAFETY, 0.5, 0, EpisodeOutcome(8, 5, 9, 17, 6, False, False, False)),
    (2.0, SAFETY, 0.5, 3, EpisodeOutcome(20, 6, 10, 13, 5, False, False, False)),
    (2.0, REGULAR, 0.0, 0, EpisodeOutcome(8, 5, 9, 17, 0, False, False, False)),
]

REGULAR_STATS = SimStats(
    episodes=10000,
    burst_regular=0.9214,
    burst_regular_se=0.0026911343333248902,
    burst_safety=0.9214,
    burst_safety_se=0.0026911343333248902,
    prior_safe_rate=0.4994,
    prior_safe_se=0.004999996399998704,
    mean_nu=11.9794,
    mean_nu_se=0.04701124933460074,
    mean_a_exit=12.0035,
    censored_count=0,
)
GOLDEN_STATS = [
    (REGULAR, 0.0, REGULAR_STATS),
    (
        SAFETY,
        0.5,
        SimStats(
            episodes=10000,
            burst_regular=0.9214,
            burst_regular_se=0.0026911343333248902,
            burst_safety=0.0628,
            burst_safety_se=0.0024260288539092027,
            prior_safe_rate=0.4994,
            prior_safe_se=0.004999996399998704,
            mean_nu=11.9794,
            mean_nu_se=0.04701124933460074,
            mean_a_exit=12.0035,
            censored_count=0,
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
    got = simulate_episode(p, seed=5, horizon=50)
    assert got == EpisodeOutcome(None, 8, 0, 0, 0, False, False, True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("label, rho, stats", GOLDEN_STATS)
def test_golden_estimate(label, rho, stats, workers):
    p = params(lambda_h=0.5)
    assert estimate(p, episodes=10_000, seed=11, rho=rho, workers=workers) == stats


def test_golden_exit_indices():
    nu, censored = sample_exit_indices(params(lambda_h=0.5), 10_000, seed=11)
    assert (int(nu.sum()), len(nu), censored) == (119794, 10000, 0)
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


@pytest.mark.parametrize("lambda_h", [0.0, 0.5, 2.0])
def test_estimate_matches_pathwise_events(lambda_h):
    # The simulator's own events against their exact probabilities, at
    # 3 SE of the exact value, with delta0 != delta.
    p = params(lambda_h=lambda_h, delta0=2.0, delta=0.5)
    episodes, rho = 200_000, 0.5
    exact = pathwise_events(p, rho)
    stats = estimate(p, episodes=episodes, seed=2026, rho=rho)
    assert stats.censored_count == 0

    def within(got, want):
        return abs(got - want) <= 3 * math.sqrt(want * (1 - want) / episodes)

    for field in ("burst_regular", "burst_safety"):
        assert within(getattr(stats, field), getattr(exact, field)), field
    assert within(stats.prior_safe_rate, exact.prior_safe)
    if lambda_h == 0.0:
        assert stats.burst_regular == exact.burst_regular == 1.0
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


def test_compacted_live_set_bookkeeping():
    # Three chunks (4096, 4096, 808) stopped by a short horizon while many
    # episodes are still live, with an honest race under way.
    p = params(lambda_h=1.0, delta0=2.0, delta=0.5)
    episodes, horizon = 9000, 15
    runs = [
        estimate(p, episodes, seed=31, rho=0.5, horizon=horizon, workers=w)
        for w in (1, 2, 4)
    ]
    assert runs[0] == runs[1] == runs[2]
    stats = runs[0]
    assert 0 < stats.censored_count < episodes
    nu, censored = sample_exit_indices(p, episodes, seed=31, horizon=horizon)
    assert censored == stats.censored_count
    done = episodes - censored
    assert len(nu) == done and nu.max() <= horizon
    assert int(nu.sum()) == round(stats.mean_nu * done)
    assert nu.mean() == stats.mean_nu
    outcomes = [
        simulate_episode(p, seed=seed, rho=0.5, horizon=horizon)
        for seed in range(60)
    ]
    cut = [o for o in outcomes if o.censored]
    assert cut and len(cut) < len(outcomes)
    for o in cut:
        assert o.nu is None and not o.burst_regular and not o.burst_safety
        assert o.a_prior == o.a_exit < majority_threshold(p.M)
    for o in outcomes:
        if o.mu is not None:
            assert o.mu <= (o.nu or horizon)
