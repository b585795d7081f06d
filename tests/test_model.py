import math

import mpmath
import numpy as np
import pytest

from swarmgame.kernels import binom_pmf, pois_cdf, pois_tail
from swarmgame.model import (
    CostMatrix,
    SwarmParams,
    _CostCurve,
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

mpmath.mp.dps = 50


def table_params(**overrides):
    base = dict(
        M=20,
        drone_value=1500.0,
        lambda_a=1.0,
        lambda_h=0.0,
        delta0=1.0,
        delta=1.0,
        expected_nu=3.0,
        ally_unit_cost=3.0,
    )
    base.update(overrides)
    return SwarmParams(**base)


def test_params_invariants():
    with pytest.raises(ValueError):
        table_params(M=3)
    # A float M would index a count vector or read 20.5 as odd.
    for M in (20.0, 20.5, 3.5):
        with pytest.raises(ValueError, match=f"M must be an integer, got {M}"):
            table_params(M=M)
    assert table_params(M=np.int64(20)).candidates == 9
    with pytest.raises(ValueError):
        table_params(lambda_a=-1.0)
    with pytest.raises(ValueError):
        table_params(delta=0.0)
    with pytest.raises(ValueError):
        table_params(expected_nu=0.5)
    assert table_params().swarm_value == 30000.0
    assert table_params().candidates == 9


def test_majority_threshold():
    assert majority_threshold(20) == 11
    assert majority_threshold(2) == 2
    assert majority_threshold(21) == 11
    with pytest.raises(ValueError):
        majority_threshold(1)


def test_exit_mean_count():
    assert exit_mean_count(table_params()) == pytest.approx(1.0 * (1 + 2 * 1))
    assert exit_mean_count(table_params(lambda_a=0.0)) == 0.0
    assert exit_mean_count(
        table_params(expected_nu=1.0, delta0=2.0, lambda_a=5.0)
    ) == pytest.approx(10.0)


def test_unset_expected_nu_fails_where_read():
    p = table_params(expected_nu=None)
    for read in (exit_mean_count, lambda q: total_cost(q, 0.5), _CostCurve):
        with pytest.raises(ValueError, match="expected_nu"):
            read(p)


def test_prior_safe_prob():
    assert prior_safe_prob(table_params(lambda_a=0.0)) == 1.0
    # lambda_a * delta >= M/2 empties the summation range
    assert prior_safe_prob(table_params(lambda_a=12.0)) == 0.0
    assert prior_safe_prob(table_params()) == pytest.approx(pois_cdf(9, 3.0), abs=1e-15)


def test_burst_prob_regular():
    assert burst_prob_regular(table_params(lambda_a=0.0)) == 0.0
    assert burst_prob_regular(table_params()) == pytest.approx(
        1.0 - pois_cdf(10, 3.0), abs=1e-15
    )
    # heavy attack on a small swarm approaches certainty
    heavy = table_params(M=4, lambda_a=100.0, expected_nu=1.0)
    assert burst_prob_regular(heavy) >= 0.999


def test_burst_safety_rho_zero_equals_regular_exactly():
    p = table_params()
    assert burst_prob_safety(p, 0.0) == burst_prob_regular(p)


def test_burst_safety_rho_one():
    p = table_params()
    assert burst_prob_safety(p, 1.0) == pytest.approx(
        pois_tail(11 + 9, exit_mean_count(p)), abs=1e-15
    )


def brute_force_q1(M, mean, rho):
    """Double summation with high-precision pmf terms."""
    mean = mpmath.mpf(mean)
    thresh = M // 2 + 1
    n = M // 2 - 1
    k_max = int(mean + 40 * mpmath.sqrt(mean + 1)) + thresh + n + 10
    total = mpmath.mpf(0)
    for j in range(n + 1):
        w = mpmath.binomial(n, j) * mpmath.mpf(rho) ** j * (1 - mpmath.mpf(rho)) ** (
            n - j
        )
        tail = sum(
            mean**k / mpmath.factorial(k) * mpmath.exp(-mean)
            for k in range(thresh + j, k_max)
        )
        total += w * tail
    return float(total)


@pytest.mark.parametrize("M", [4, 10, 20])
@pytest.mark.parametrize("rho", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_burst_safety_matches_brute_force(M, rho):
    p = table_params(M=M, lambda_a=2.0)
    mean = exit_mean_count(p)
    assert burst_prob_safety(p, rho) == pytest.approx(
        brute_force_q1(M, mean, rho), abs=1e-10
    )


def test_burst_safety_nonincreasing_in_rho():
    for p in (table_params(), table_params(M=10, lambda_a=3.0)):
        values = [burst_prob_safety(p, i / 100) for i in range(101)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_ally_cost():
    p = table_params()
    assert ally_cost(p, 1.0) == 27.0
    assert ally_cost(p, 0.0) == 0.0
    assert ally_cost(p, 0.5) == pytest.approx(13.5)


def test_ally_cost_linear():
    p = table_params()
    for a, b in [(0.1, 0.2), (0.25, 0.5), (0.4, 0.6)]:
        assert ally_cost(p, a) + ally_cost(p, b) == pytest.approx(
            ally_cost(p, a + b), abs=1e-12
        )


def test_total_cost_no_threat():
    p = table_params(lambda_a=0.0)
    for rho in (0.0, 0.3, 1.0):
        breakdown = total_cost(p, rho)
        assert breakdown.p_prior == 1.0
        assert breakdown.q0 == 0.0
        assert breakdown.q1 == 0.0
        assert breakdown.total == ally_cost(p, rho)


def test_total_cost_rho_zero_collapses():
    p = table_params()
    breakdown = total_cost(p, 0.0)
    assert breakdown.total == p.swarm_value * breakdown.q0


def test_total_cost_worthless_swarm():
    p = table_params(drone_value=0.0)
    for rho in (0.0, 0.5, 1.0):
        breakdown = total_cost(p, rho)
        assert breakdown.total == pytest.approx(
            ally_cost(p, rho) * breakdown.p_prior, abs=1e-12
        )


def test_total_cost_assembled_from_components():
    p = table_params()
    rho = 0.5
    breakdown = total_cost(p, rho)
    c = ally_cost(p, rho)
    V = p.swarm_value
    expected = (c * (1 - breakdown.q1) + (c + V) * breakdown.q1) * breakdown.p_prior
    expected += V * breakdown.q0 * (1 - breakdown.p_prior)
    assert breakdown.total == pytest.approx(expected, rel=1e-12)


def test_min_allies():
    p = table_params()
    assert min_allies(p, 0.0).n == 0
    # worthless swarm: the reservation can never pay off
    worthless = min_allies(table_params(drone_value=0.0), 0.5)
    assert not worthless.feasible and worthless.n is None
    # low threat: the saved loss V*q0 ~ 8.8 never covers the 13.5 fee
    assert not min_allies(p, 0.5).feasible
    hot = table_params(lambda_a=2.0)
    result = min_allies(hot, 0.5)
    assert result.feasible
    c = ally_cost(hot, 0.5)
    margin = hot.swarm_value * burst_prob_regular(hot) - c
    assert result.n * margin >= c
    assert (result.n - 1) * margin < c


def test_min_allies_exact_bound():
    # pick rho so that V*q0 = 2*c(rho) exactly -> n = 1
    p = table_params()
    target = p.swarm_value * burst_prob_regular(p) / 2.0
    rho = target / (p.ally_unit_cost * (p.M / 2 - 1))
    assert 0 < rho < 1
    assert min_allies(p, rho).n == 1


def test_choose_strategy():
    matrix = CostMatrix(0.0, 30000.0, 27.0, 30027.0)
    choice = choose_strategy(matrix, 0.3, 0.1)
    assert choice.strategy == "Safety"
    assert choice.expected_cost_regular == pytest.approx(9000.0)
    assert choice.expected_cost_safety == pytest.approx(27.0 + 3000.0)

    free = CostMatrix(0.0, 30000.0, 0.0, 30000.0)
    assert choose_strategy(free, 0.2, 0.2).strategy == "Regular"

    paid = CostMatrix(0.0, 30000.0, 5.0, 30005.0)
    assert choose_strategy(paid, 0.2, 0.2).strategy == "Regular"


def test_choose_strategy_agrees_with_the_cost_curve():
    """With the matrix (0, V; c, c + V) and p_prior > 0, Safety wins at rho
    exactly when the curve's total at rho is below its total at 0."""
    rng = np.random.default_rng(25)
    picks = set()
    for _ in range(300):
        p = table_params(
            M=int(rng.integers(8, 501)),
            lambda_a=rng.uniform(0.2, 3.0),
            drone_value=rng.uniform(10.0, 3000.0),
        )
        rho = np.concatenate(([0.0], rng.uniform(0.0, 1.0, 10)))
        rows = _CostCurve(p).breakdowns(rho)
        V = p.swarm_value
        for row in rows:
            assert row.p_prior > 0.0
            matrix = CostMatrix(0.0, V, row.ally_cost, row.ally_cost + V)
            pick = choose_strategy(matrix, row.q0, row.q1).strategy
            assert (pick == "Safety") == (row.total < rows[0].total), (p, row)
            picks.add(pick)
    assert picks == {"Regular", "Safety"}


def test_cost_matrix_invariant():
    with pytest.raises(ValueError):
        CostMatrix(0.0, 30000.0, 27.0, 29000.0)


def test_choose_strategy_domain():
    matrix = CostMatrix(0.0, 1.0, 0.1, 1.1)
    with pytest.raises(ValueError):
        choose_strategy(matrix, 1.2, 0.5)
