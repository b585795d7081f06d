"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math

import mpmath
import numpy as np
from calibration import assert_calibrated

from swarmgame.cli import main as cli_main
from swarmgame.fluctuation import exit_index_pgf, expected_exit_index, pathwise_events
from swarmgame.model import (
    SwarmParams,
    ally_cost,
    burst_prob_regular,
    burst_prob_safety,
    exit_mean_count,
    total_cost,
)
from swarmgame.optimize import optimize
from swarmgame.series import TruncSeries, d_operator, series_div
from swarmgame.sim import estimate, sample_exit_indices

mpmath.mp.dps = 50


def params(**overrides):
    base = dict(M=20, drone_value=1500.0, lambda_a=1.0, delta0=1.0, delta=1.0)
    base.update(overrides)
    return SwarmParams(**base)


def verdict(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{description}]: {status}{suffix}")
    return ok


def test_criterion_1_trivial_identities():
    p = params()
    checks = [
        burst_prob_safety(p, 0.0) == burst_prob_regular(p),
        total_cost(p, 0.0).total == p.swarm_value * burst_prob_regular(p),
        ally_cost(p, 1.0) == 27.0,
    ]
    quiet = params(lambda_a=0.0)
    for rho in (0.0, 0.5, 1.0):
        breakdown = total_cost(quiet, rho)
        checks += [
            breakdown.q0 == 0.0,
            breakdown.q1 == 0.0,
            breakdown.p_prior == 1.0,
            breakdown.total == ally_cost(quiet, rho),
        ]
    assert verdict(1, "trivial identities", all(checks))


def test_criterion_2_brute_force_oracle():
    def oracle(M, mean, rho):
        mean, rho = mpmath.mpf(mean), mpmath.mpf(rho)
        thresh, n = M // 2 + 1, M // 2 - 1
        k_max = int(mean + 40 * mpmath.sqrt(mean + 1)) + thresh + n + 10
        total = mpmath.mpf(0)
        for j in range(n + 1):
            weight = mpmath.binomial(n, j) * rho**j * (1 - rho) ** (n - j)
            tail = sum(
                mean**k / mpmath.factorial(k) * mpmath.exp(-mean)
                for k in range(thresh + j, k_max)
            )
            total += weight * tail
        return float(total)

    worst = 0.0
    for M in (4, 10, 20):
        p = params(M=M, lambda_a=2.0)
        mean = exit_mean_count(p)
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            worst = max(worst, abs(burst_prob_safety(p, rho) - oracle(M, mean, rho)))
    assert verdict(2, "brute-force oracle", worst < 1e-10, f"max dev {worst:.2e}")


def test_criterion_3_analytic_vs_monte_carlo():
    # The closed form and the simulator price two different "burst" events,
    # so neither is checked against the other; each is checked against
    # Monte Carlo (or the exact law) of its own event at 3 SE.
    #   closed form: N - B >= thr, N ~ Poisson(exit_mean_count), an
    #     unconditioned count at the mean exit time;
    #   simulator: the count at the first epoch that reaches thr, so the
    #     Regular rate is 1 by construction and Safety asks whether the
    #     overshoot past thr - 1 covers the allies.
    # Wald's identity ties the two: the simulator's mean exit count is the
    # closed form's Poisson mean.  Their gap is printed, never asserted away.
    episodes = 1_000_000
    rho = 0.5
    p = params()
    sim = estimate(p, episodes=episodes, seed=2024, rho=rho)
    calibrated = params(expected_nu=sim.mean_nu)
    mean = exit_mean_count(calibrated)
    thr, n = p.M // 2 + 1, p.candidates
    ok = True

    # 1. Simulator vs the exact probability of its own event.  The count
    # over one exponential interval is geometric, so the overshoot is
    # geometric too and P{overshoot >= Binom(n, rho)} is the binomial PGF
    # at the crossing epoch's ratio; pathwise_events computes it.
    m = p.lambda_a * p.delta
    exact = pathwise_events(p, rho)
    exact0, exact1 = exact.burst_regular, exact.burst_safety
    assert sim.censored_count == 0
    ok &= sim.burst_regular == exact0 == 1.0
    ok &= abs(sim.burst_safety - exact1) <= 3 * sim.burst_safety_se

    # 2. Closed form vs Monte Carlo of its own event.
    q0 = burst_prob_regular(calibrated)
    q1 = burst_prob_safety(calibrated, rho)
    draws = 1_000_000
    rng = np.random.default_rng(2024)
    count = rng.poisson(mean, size=draws)
    allies = rng.binomial(n, rho, size=draws)
    mc0 = np.mean(count >= thr)
    mc1 = np.mean(count - allies >= thr)
    ok &= abs(q0 - mc0) <= 3 * math.sqrt(q0 * (1 - q0) / draws)
    ok &= abs(q1 - mc1) <= 3 * math.sqrt(q1 * (1 - q1) / draws)

    # 3. Wald's identity, E[A_exit] = m * E[nu], against the simulator; the
    # SE is Wald's second identity, Var(A_exit - m * nu) = m (1 + m) E[nu].
    wald_se = math.sqrt(m * (1 + m) * sim.mean_nu / episodes)
    wald_dev = (sim.mean_a_exit - mean) / wald_se
    ok &= abs(wald_dev) <= 3

    assert verdict(
        3,
        "analytic vs Monte Carlo",
        bool(ok),
        f"q0 {q0:.4f} vs its MC {mc0:.4f}; q1 {q1:.4f} vs its MC {mc1:.4f}; "
        f"sim Regular {sim.burst_regular:.4f} vs exact {exact0:.4f}; "
        f"sim Safety {sim.burst_safety:.5f} vs exact {exact1:.5f}; "
        f"Wald E[A_exit] {sim.mean_a_exit:.4f} vs {mean:.4f}"
        f" ({wald_dev:+.2f} SE); "
        f"gap closed form - pathwise {q0 - exact0:+.3f} Regular, "
        f"{q1 - exact1:+.3f} Safety",
    )

    # 4. The seed rule over seeds 0-19 of 65 536 episodes, beside the one
    # seed above: the simulator's Safety against its exact value, and
    # Wald's gap E[A_exit] - m E[nu] against 0 with each seed's
    # second-identity SE.
    runs = [estimate(p, episodes=65_536, seed=seed, rho=rho) for seed in range(20)]
    assert_calibrated([s.burst_safety for s in runs], [s.burst_safety_se for s in runs], exact1)
    gaps = [s.mean_a_exit - exit_mean_count(params(expected_nu=s.mean_nu)) for s in runs]
    ses = [math.sqrt(m * (1 + m) * s.mean_nu / s.episodes) for s in runs]
    assert_calibrated(gaps, ses, 0.0)


def test_criterion_4_fluctuation_vs_monte_carlo():
    p = params()
    nu, censored = sample_exit_indices(p, episodes=1_000_000, seed=2025)
    assert censored == 0
    ok = True
    details = []
    for xi in (0.5, 0.9):
        samples = xi ** nu.astype(float)
        se = samples.std() / math.sqrt(len(samples))
        dev = abs(exit_index_pgf(xi, p) - samples.mean())
        details.append(f"pgf({xi}) dev {dev:.2e} vs 3se {3 * se:.2e}")
        ok = ok and dev <= 3 * se
    mean_se = nu.std() / math.sqrt(len(nu))
    mean_dev = (expected_exit_index(p) - nu.mean()) / mean_se
    details.append(f"E[nu] dev {mean_dev:+.2f} SE")
    ok = ok and abs(mean_dev) <= 3
    assert verdict(4, "exit-index transform vs Monte Carlo", ok, "; ".join(details))


def test_criterion_5_optimizer(fine_grid_minimum):
    p = params(lambda_a=1.0)
    while total_cost(p, 0.0).total <= total_cost(p, 0.5).total:
        p = params(lambda_a=p.lambda_a + 0.5)
    result = optimize(p)
    best_rho, best_total = fine_grid_minimum(p)
    dev = abs(result.rho_star - best_rho)
    quiet = optimize(params(lambda_a=0.0))
    ok = (
        dev <= 1e-3
        and result.cost_star <= best_total * (1 + 1e-9)
        and quiet.rho_star == 0.0
        and quiet.cost_star == 0.0
    )
    assert verdict(
        5, "optimizer vs fine grid", ok, f"interior dev {dev:.2e} at la {p.lambda_a}"
    )


def test_criterion_6_series_algebra():
    ok = True
    # geometric division
    degrees = (3, 0, 0)
    one = TruncSeries.constant(1.0, degrees)
    q = TruncSeries.monomial(1.0, (1, 0, 0), degrees)
    geo = series_div(one, one - q)
    ok &= bool(np.allclose(geo.coefficients.ravel(), [1, 1, 1, 1], atol=1e-10))
    # ring laws on random instances
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = TruncSeries(rng.normal(size=(4, 4, 4)))
        b = TruncSeries(rng.normal(size=(4, 4, 4)))
        c = TruncSeries(rng.normal(size=(4, 4, 4)))
        ok &= bool(np.allclose((a * b).coefficients, (b * a).coefficients, atol=1e-10))
        ok &= bool(
            np.allclose(((a * b) * c).coefficients, (a * (b * c)).coefficients, 1e-10)
        )
    # extraction-operator hand cases
    ok &= d_operator(TruncSeries.constant(2.0, (1, 1, 1))) == 2.0
    q1 = TruncSeries.monomial(1.0, (1, 0, 0), (1, 1, 1))
    r1 = TruncSeries.monomial(1.0, (0, 1, 0), (1, 1, 1))
    ok &= abs(d_operator(q1 + q1 * r1) - 2.0) < 1e-10
    halfgeo = series_div(
        TruncSeries.constant(1.0, (4, 0, 0)),
        TruncSeries.constant(1.0, (4, 0, 0))
        - TruncSeries.monomial(0.5, (1, 0, 0), (4, 0, 0)),
    )
    ok &= abs(d_operator(halfgeo) - 1.9375) < 1e-10
    assert verdict(6, "series algebra", bool(ok))


def test_criterion_7_cli_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "M = 20\ndrone_value = 1500\nlambda_a = 1\ndelta0 = 1\ndelta = 1\n"
        "episodes = 100000\n"
    )

    def simulate(workers):
        code = cli_main(
            ["simulate", "--config", str(cfg), "--rho", "0.5", "--workers", str(workers)]
        )
        assert code == 0
        return capsys.readouterr().out

    sim_outputs = [simulate(1), simulate(1), simulate(4)]

    sweeps = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        sweeps.append(out.read_bytes())

    ok = len(set(sim_outputs)) == 1 and len(set(sweeps)) == 1
    assert verdict(7, "byte-identical reruns and worker counts", ok)
