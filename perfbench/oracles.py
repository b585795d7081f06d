"""Independent oracles for the benchmark's correctness checks.

``CostOracle`` evaluates the closed-form cost model with scipy's Poisson
and binomial distributions, which share no code with swarmgame's
kernels.  ``first_step_expected_nu`` gives E[nu] exactly by conditioning
on the first observation interval.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom, poisson


def first_step_expected_nu(
    M: int, lambda_a: float, delta0: float, delta: float
) -> float:
    """Exact E[nu] for the attacker reaching floor(M/2) + 1 captures.

    Over an exponential interval of mean d the capture count is geometric,
    P{X = k} = (1 - q) q^k with q = lambda_a d / (1 + lambda_a d).  If the
    first interval leaves the attacker k short of the threshold thr, the
    remaining epochs count the failures before the (thr - k)-th success
    of Bernoulli(q) trials, plus the exit epoch: 1 + (thr - k)/(lambda_a d).
    """
    thr = M // 2 + 1
    q = lambda_a * delta0 / (1.0 + lambda_a * delta0)
    k = np.arange(thr)
    p1 = (1.0 - q) * q**k
    return float(1.0 + np.sum(p1 * (1.0 + (thr - k) / (lambda_a * delta))))


class CostOracle:
    """Cost breakdowns of one SwarmParams configuration, via scipy.

    q0 = P{X >= thr}, q1 = sum_j P{B = j} P{X >= thr + j} and
    p_prior = P{X <= floor(M/2 - lambda_a delta)} for X ~ Poisson(mean),
    B ~ Binomial(M/2 - 1, rho); the total follows the paper's form
    (c (1 - q1) + (c + V) q1) p + V q0 (1 - p).
    """

    def __init__(
        self,
        M: int,
        drone_value: float,
        lambda_a: float,
        delta0: float,
        delta: float,
        expected_nu: float,
        ally_unit_cost: float,
    ) -> None:
        self.M = M
        self.value = drone_value * M
        self.unit_cost = ally_unit_cost
        self.mean = lambda_a * (delta0 + max(expected_nu - 1.0, 0.0) * delta)
        thr = M // 2 + 1
        self.n = M // 2 - 1
        self.q0 = float(poisson.sf(thr - 1, self.mean))
        cutoff = math.floor(M / 2 - lambda_a * delta)
        self.p_prior = float(poisson.cdf(cutoff, self.mean)) if cutoff >= 0 else 0.0
        self._tails = poisson.sf(thr - 1 + np.arange(self.n + 1), self.mean)

    def breakdown(self, rho) -> dict[str, np.ndarray]:
        """Arrays p_prior, q0, q1, ally_cost and total at each rho."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        j = np.arange(self.n + 1)
        q1 = binom.pmf(j[None, :], self.n, rho[:, None]) @ self._tails
        c = self.unit_cost * (self.M / 2 - 1) * rho
        p, q0, V = self.p_prior, self.q0, self.value
        total = (c * (1.0 - q1) + (c + V) * q1) * p + V * q0 * (1.0 - p)
        ones = np.ones_like(rho)
        return {
            "rho": rho,
            "ally_cost": c,
            "p_prior": p * ones,
            "q0": q0 * ones,
            "q1": q1,
            "total": total,
        }

    def grid_min(self, points: int = 1001) -> float:
        """Smallest total over an equally spaced rho grid on [0, 1]."""
        return float(self.breakdown(np.linspace(0.0, 1.0, points))["total"].min())
