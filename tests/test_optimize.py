import math
import random
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from swarmgame.fluctuation import expected_exit_index
from swarmgame.kernels import pois_tail
from swarmgame.model import (
    SwarmParams,
    _CostCurve,
    ally_cost,
    burst_prob_regular,
    burst_prob_safety,
    exit_mean_count,
    majority_threshold,
    min_allies,
    prior_safe_prob,
    total_cost,
)
from swarmgame.optimize import _REFINE, _SIDE, optimize, sweep


def params(**overrides):
    base = dict(M=20, drone_value=1500.0, lambda_a=1.0, delta0=1.0, delta=1.0)
    base.update(overrides)
    return SwarmParams(**base)


def interior_minimum_params():
    """Raise the attack rate until the rho = 0 cost exceeds the rho = 0.5 cost."""
    for la in [1.0 + 0.5 * i for i in range(20)]:
        p = params(lambda_a=la)
        if total_cost(p, 0.0).total > total_cost(p, 0.5).total:
            return p
    raise AssertionError("no interior-minimum configuration found")


def test_sweep_endpoints():
    curve = sweep(params(), 2)
    assert [point.rho for point in curve] == [0.0, 1.0]


def test_sweep_grid_and_order():
    curve = sweep(params(), 101)
    rhos = [point.rho for point in curve]
    assert rhos == sorted(rhos)
    assert len(rhos) == 101
    assert rhos[0] == 0.0 and rhos[-1] == 1.0


def test_sweep_no_threat_is_pure_cost():
    p = params(lambda_a=0.0)
    curve = sweep(p, 51)
    for point in curve:
        assert point.total == ally_cost(p, point.rho)
    totals = [point.total for point in curve]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_sweep_rejects_tiny_grid():
    with pytest.raises(ValueError):
        sweep(params(), 1)


def test_optimize_no_threat():
    result = optimize(params(lambda_a=0.0))
    assert result.rho_star == 0.0
    assert result.cost_star == 0.0


def test_optimize_worthless_swarm():
    result = optimize(params(drone_value=0.0))
    assert result.rho_star == 0.0
    assert result.cost_star == 0.0


def test_optimize_beats_grid():
    p = interior_minimum_params()
    result = optimize(p)
    for point in sweep(p, 101):
        assert result.cost_star <= point.total + 1e-9


def test_optimize_matches_fine_grid(fine_grid_minimum):
    p = interior_minimum_params()
    result = optimize(p)
    best_rho, best_total = fine_grid_minimum(p)
    assert result.rho_star == pytest.approx(best_rho, abs=1e-3)
    assert result.cost_star <= best_total * (1 + 1e-9)


def test_optimize_tolerance_invariance():
    p = interior_minimum_params()
    coarse = optimize(p, tolerance=1e-4)
    fine = optimize(p, tolerance=1e-6)
    assert coarse.rho_star == pytest.approx(fine.rho_star, abs=1e-3)


@pytest.mark.parametrize("tolerance", [1e-17, 1e-300, math.ulp(0.0)])
def test_optimize_tiny_tolerance_terminates(tolerance):
    """The bracket stops shrinking at the float spacing near rho*; the
    refinement stops there too instead of looping on it."""
    p = interior_minimum_params()
    reference = optimize(p, tolerance=1e-6)
    result = optimize(p, tolerance=tolerance)
    assert result.rho_star == pytest.approx(reference.rho_star, abs=1e-6)
    assert result.cost_star <= reference.cost_star
    assert 0.0 < result.rho_star < 1.0


@pytest.mark.parametrize("tolerance", [1e-5, math.ulp(0.0)])
def test_optimize_flat_cost_takes_smallest_rho(tolerance):
    """lambda_a * delta exceeds M/2, so p_prior = 0 and the cost is V*q0 at
    every rho."""
    p = SwarmParams(
        M=6, drone_value=100.0, lambda_a=4.0, delta0=1.0, delta=1.0, expected_nu=2.0
    )
    assert prior_safe_prob(p) == 0.0
    result = optimize(p, tolerance=tolerance)
    assert result.rho_star == 0.0
    assert result.cost_star == p.swarm_value * burst_prob_regular(p)


def test_optimize_feasibility_consistent():
    p = interior_minimum_params()
    result = optimize(p)
    requirement = min_allies(p, result.rho_star)
    assert result.feasible == requirement.feasible
    assert result.n_required == requirement.n


def reference_optimize(p, tolerance=1e-5, grid_size=101):
    """The refinement on CostBreakdown objects that optimize's arrays
    replaced: re-grid around the least total of a rho-sorted list (ties
    to the smaller rho) and hold the point and its two neighbours."""

    def bracket(points):
        i = min(range(len(points)), key=lambda k: points[k].total)
        return points[i], points[max(i - 1, 0) : i + 2]

    engine = _CostCurve(p)
    curve = engine.breakdowns(np.arange(grid_size) / (grid_size - 1))
    best, held = bracket(curve)
    step = 1.0 / (grid_size - 1)
    while best.rho + step > best.rho:
        rho = best.rho + step * _REFINE
        points = held + engine.breakdowns(rho[(rho >= 0.0) & (rho <= 1.0)])
        best, held = bracket(sorted(points, key=lambda point: point.rho))
        if 2.0 * step <= tolerance:
            break
        step /= _SIDE
    requirement = min_allies(p, best.rho)
    return best.rho, best.total, requirement.feasible, requirement.n, curve


def auto_nu(p):
    return replace(p, expected_nu=expected_exit_index(p))


@pytest.mark.parametrize(
    "p, kwargs, rho_star",
    [
        (params(lambda_a=0.0), {}, 0.0),  # flat cost
        (params(drone_value=0.0), {}, 0.0),
        (auto_nu(params(M=120, expected_nu=None)), {}, 0.64385152),  # interior
        (auto_nu(params(expected_nu=None)), {}, 1.0),  # boundary
        # The bracket stops shrinking before it is 1e-300 wide.
        (auto_nu(params(expected_nu=None)), dict(tolerance=1e-300), 0.9999999999999987),
        (interior_minimum_params(), dict(grid_size=2), None),
        (interior_minimum_params(), dict(grid_size=3), None),
    ],
)
def test_optimize_matches_object_reference(p, kwargs, rho_star):
    """Bitwise: the array refinement picks the points the object one did."""
    rho, cost, feasible, n, curve = reference_optimize(p, **kwargs)
    result = optimize(p, **kwargs)
    assert (result.rho_star, result.cost_star) == (rho, cost)
    assert (result.feasible, result.n_required) == (feasible, n)
    assert [point.total for point in result.curve] == [point.total for point in curve]
    assert result.curve == tuple(curve)
    if rho_star is not None:
        assert rho == rho_star


def test_optimize_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        optimize(params(), tolerance=0.0)


def mp_q1(M, mean, rho):
    """40-digit sum over j of Binom(j; n, rho) * P{Poisson(mean) >= thr + j}.

    Binomial weights beyond 40 standard deviations of n*rho, and Poisson
    terms past both the last kept thr + j and 40 standard deviations above
    the mean, are dropped.  Tails are suffix sums of pmf terms, so nothing
    cancels.
    """
    n, thr = M // 2 - 1, M // 2 + 1
    sd = math.sqrt(n * rho * (1.0 - rho))
    lo, hi = max(0, int(n * rho - 40 * sd)), min(n, int(n * rho + 40 * sd) + 1)
    k_max = max(thr + hi, int(mean + 40 * math.sqrt(mean) + 40))
    with mpmath.workdps(40):
        mean, r = mpmath.mpf(mean), mpmath.mpf(rho)
        k = thr + lo
        pmf = mpmath.exp(k * mpmath.log(mean) - mean - mpmath.loggamma(k + 1))
        pmfs = []
        for k in range(thr + lo, k_max + 1):
            pmfs.append(pmf)
            pmf *= mean / (k + 1)
        tails = [mpmath.mpf(0)]
        for term in reversed(pmfs):
            tails.append(tails[-1] + term)
        tails.reverse()
        w = mpmath.binomial(n, lo) * r**lo * (1 - r) ** (n - lo)
        total = mpmath.mpf(0)
        for j in range(lo, hi + 1):
            total += w * tails[j - lo]
            if j < n:
                w *= (n - j) * r / ((j + 1) * (1 - r))
        return total


def random_configs(count=12, seed=20261018):
    """Seeded configurations, M 4-400, delta0 != delta, lambda_a in [0.2, 3],
    with expected_nu near the chain's 1 + thr/(lambda_a delta), so q1 is
    neither 0 nor 1 along most of the curve."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        M = rng.randint(4, 400)
        lambda_a, delta = rng.uniform(0.2, 3.0), rng.uniform(0.3, 3.0)
        nu = 1.0 + (M // 2 + 1) / (lambda_a * delta) * rng.uniform(0.8, 1.3)
        configs.append(
            SwarmParams(
                M=M,
                drone_value=rng.uniform(100.0, 3000.0),
                lambda_a=lambda_a,
                delta0=delta * rng.uniform(1.2, 3.0),
                delta=delta,
                expected_nu=nu,
                ally_unit_cost=rng.uniform(0.5, 5.0),
            )
        )
    return configs


def test_sweep_q1_matches_mpmath():
    for p in random_configs():
        mean = exit_mean_count(p)
        for point in sweep(p, 101)[::10]:
            ref = mp_q1(p.M, mean, point.rho)
            assert point.q1 == pytest.approx(float(ref), rel=1e-12), (p, point.rho)


def test_sweep_matches_scalar_total_cost():
    for p in random_configs():
        for point in sweep(p, 101):
            scalar = total_cost(p, point.rho)
            assert point.rho == scalar.rho
            assert point.ally_cost == scalar.ally_cost
            assert point.p_prior == scalar.p_prior
            assert point.q0 == scalar.q0
            assert point.q1 == pytest.approx(scalar.q1, rel=1e-12)
            assert point.total == pytest.approx(scalar.total, rel=1e-12)


def test_sweep_endpoints_are_exact():
    for p in random_configs():
        curve = sweep(p, 101)
        first, last = curve[0], curve[-1]
        assert first.q1 == first.q0
        assert first.total == p.swarm_value * first.q0
        tail = pois_tail(majority_threshold(p.M) + p.candidates, exit_mean_count(p))
        assert last.q1 == tail


def test_one_rho_is_bitwise_its_curve_row():
    # analyze prices one rho, sweep a grid of them: each rho's row must not
    # depend on which other rho share its curve, so the two print alike.
    rng = random.Random(11)
    configs = random_configs(count=6, seed=7) + [large_swarm_params(0.37)]
    for p in configs:
        curve = _CostCurve(p)
        rho = sorted(rng.random() for _ in range(60)) + [0.0, 0.5, 1.0]
        for r, row in zip(rho, curve.breakdowns(rho)):
            assert curve.breakdowns([r])[0] == row, (p.M, r)


def large_swarm_params(mean_shift):
    """M = 10^5 with the exit-count mean at thr + mean_shift * n."""
    M = 100_000
    n, thr = M // 2 - 1, M // 2 + 1
    return SwarmParams(
        M=M, drone_value=1500.0, lambda_a=1.0, delta0=2.0, delta=1.0,
        expected_nu=thr + mean_shift * n - 1.0,
    )


@pytest.mark.parametrize("mean_shift, index", [(0.0, 1), (0.37, 37)])
def test_large_swarm_curve(mean_shift, index):
    """M = 10^5: 50 000 binomial terms per rho, evaluated in row blocks.

    The exit-count mean sits at thr + mean_shift * n, so q1 at grid
    point ``index`` is strictly between 0 and 1 (with mean_shift = 0 the
    total there is not pinned by p_prior = 0 either).  The curve's weights
    come from the binomial ratio recurrence and the scalar path's from
    ``binom_pmf``'s Stirling forms; neither has terms near n log n, and
    both divide by the weight mass.
    """
    p = large_swarm_params(mean_shift)
    curve = sweep(p, 101)
    result = optimize(p)
    assert [point.total for point in result.curve] == [point.total for point in curve]
    assert result.cost_star <= min(point.total for point in curve)
    for i, rel in ((0, 0.0), (index, 1e-12), (100, 0.0)):
        point, scalar = curve[i], total_cost(p, i / 100)
        assert point.rho == scalar.rho
        assert point.q1 == pytest.approx(scalar.q1, rel=rel, abs=0.0)
        assert point.total == pytest.approx(scalar.total, rel=rel, abs=0.0)
    assert 0.0 < curve[index].q1 < 1.0
    ref = mp_q1(p.M, exit_mean_count(p), index / 100)
    assert curve[index].q1 == pytest.approx(float(ref), rel=5e-12)


@pytest.mark.parametrize("rho", [0.2, 0.37])
def test_scalar_burst_prob_safety_matches_mpmath_at_large_swarm(rho):
    """Without dividing by the weight mass, rho = 0.2 read 1 + 4.6e-11."""
    p = large_swarm_params(0.37)
    q1 = burst_prob_safety(p, rho)
    assert q1 <= 1.0
    ref = mp_q1(p.M, exit_mean_count(p), rho)
    assert q1 == pytest.approx(float(ref), rel=1e-12)
