"""Closed-form swarm-defense quantities.

The attacker captures nodes as a Poisson process observed at random
epochs; the swarm may reserve candidate allies (each accepting with
probability ``rho``) one observation before the attacker is expected to
reach a strict majority.  This module evaluates the resulting burst
probabilities, defense costs, and the two-strategy game they induce.

Threshold convention: a takeover ("burst") requires a *strict* majority,
i.e. at least floor(M/2) + 1 captured nodes.  This single convention is
applied everywhere so that the Safety strategy with rho = 0 degenerates
exactly to the Regular strategy.

``total_cost`` is the single-point reference: the library's one-rho API
and the tests' oracle.  The CLI computes every cost, ``analyze``'s one
rho included, through ``_CostCurve``, which computes the rho-free parts
once and every q1 of a curve in one vectorized pass.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaln, pdtrc

from .kernels import binom_pmf, pois_cdf, pois_tail

__all__ = [
    "SwarmParams",
    "CostBreakdown",
    "CostMatrix",
    "StrategyChoice",
    "AllyRequirement",
    "majority_threshold",
    "exit_mean_count",
    "prior_safe_prob",
    "burst_prob_regular",
    "burst_prob_safety",
    "ally_cost",
    "total_cost",
    "min_allies",
    "choose_strategy",
]


@dataclass(frozen=True)
class SwarmParams:
    """Model inputs for one swarm configuration.

    M            total node count (>= 4)
    drone_value  currency value per drone; the swarm is worth drone_value * M
    lambda_a     attacker node-capture rate (events per unit time)
    lambda_h     honest accumulation rate (events per unit time)
    delta0       mean of the first observation interval
    delta        mean of every subsequent observation interval
    expected_nu  expected exit index E[nu] (>= 1); fixed input or computed
                 by the fluctuation module
    ally_unit_cost  currency per ally candidate per unit rho
    """

    M: int
    drone_value: float
    lambda_a: float
    lambda_h: float = 0.0
    delta0: float = 1.0
    delta: float = 1.0
    expected_nu: float = 3.0
    ally_unit_cost: float = 3.0

    def __post_init__(self) -> None:
        if self.M < 4:
            raise ValueError(f"M must be at least 4, got {self.M}")
        # Money and thresholds take M to float; compared exactly, as an int.
        if self.M > sys.float_info.max:
            raise ValueError(
                f"M must be at most the largest float, {sys.float_info.max}"
            )
        for name in (
            "drone_value",
            "lambda_a",
            "lambda_h",
            "delta0",
            "delta",
            "expected_nu",
            "ally_unit_cost",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.drone_value < 0:
            raise ValueError(f"drone_value must be nonnegative, got {self.drone_value}")
        if self.lambda_a < 0:
            raise ValueError(f"lambda_a must be nonnegative, got {self.lambda_a}")
        if self.lambda_h < 0:
            raise ValueError(f"lambda_h must be nonnegative, got {self.lambda_h}")
        if self.delta0 <= 0:
            raise ValueError(f"delta0 must be positive, got {self.delta0}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.expected_nu < 1:
            raise ValueError(f"expected_nu must be >= 1, got {self.expected_nu}")
        if self.ally_unit_cost < 0:
            raise ValueError(
                f"ally_unit_cost must be nonnegative, got {self.ally_unit_cost}"
            )
        # Bounds every money amount a total cost computes on the way.
        money = self.swarm_value + self.ally_unit_cost * (self.M / 2 - 1)
        if not math.isfinite(money):
            raise ValueError(
                "drone_value * M + ally_unit_cost * (M/2 - 1) must be finite, "
                f"got {money}"
            )

    @property
    def swarm_value(self) -> float:
        """Total value V of the swarm."""
        return self.drone_value * self.M

    @property
    def candidates(self) -> int:
        """Number of ally candidates, M/2 - 1 (integer floor)."""
        return self.M // 2 - 1


@dataclass(frozen=True)
class CostBreakdown:
    """All intermediate quantities behind one total-cost evaluation."""

    rho: float
    p_prior: float  # P{attacker below threshold at the prior epoch}
    q0: float       # burst probability, Regular strategy
    q1: float       # burst probability, Safety strategy at this rho
    ally_cost: float
    total: float


@dataclass(frozen=True)
class CostMatrix:
    """Defender's cost matrix at the last safe observation epoch.

    Rows are the defender's strategies, columns the attacker outcome.
    Invariant: safety_burst = safety_notburst + regular_burst (the ally
    reservation fee is sunk whether or not the burst happens).
    """

    regular_notburst: float
    regular_burst: float
    safety_notburst: float
    safety_burst: float

    def __post_init__(self) -> None:
        expected = self.safety_notburst + self.regular_burst
        if not math.isclose(self.safety_burst, expected, rel_tol=1e-12, abs_tol=1e-9):
            raise ValueError(
                "safety_burst must equal safety_notburst + regular_burst, "
                f"got {self.safety_burst} vs {expected}"
            )


@dataclass(frozen=True)
class StrategyChoice:
    strategy: str  # "Regular" or "Safety"
    expected_cost_regular: float
    expected_cost_safety: float


@dataclass(frozen=True)
class AllyRequirement:
    """Minimal ally count for the reservation to pay off, if any."""

    feasible: bool
    n: Optional[int]


def majority_threshold(M: int) -> int:
    """Strict-majority node count: floor(M/2) + 1."""
    if M < 2:
        raise ValueError(f"M must be at least 2, got {M}")
    return M // 2 + 1


def exit_mean_count(params: SwarmParams) -> float:
    """Mean attacker count at the exit epoch: lambda_a * E[time to exit].

    The exit time spans one first interval plus E[nu] - 1 subsequent ones.
    """
    extra = max(params.expected_nu - 1.0, 0.0)
    return params.lambda_a * (params.delta0 + extra * params.delta)


def prior_safe_prob(params: SwarmParams) -> float:
    """P{attacker still below majority at the observation before exit}.

    Approximated by shifting the exit-epoch Poisson mean back by one
    interval's worth of captures: P{X <= floor(M/2 - lambda_a*delta)} for
    X ~ Poisson(exit_mean_count).  An empty summation range yields 0.
    """
    cutoff = math.floor(params.M / 2 - params.lambda_a * params.delta)
    if cutoff < 0:
        return 0.0
    return pois_cdf(cutoff, exit_mean_count(params))


def burst_prob_regular(params: SwarmParams) -> float:
    """Burst probability with no allies: upper tail past the majority."""
    return pois_tail(majority_threshold(params.M), exit_mean_count(params))


def burst_prob_safety(params: SwarmParams, rho: float) -> float:
    """Burst probability when each of M/2 - 1 candidates allies w.p. rho.

    Each accepted ally raises the count the attacker must reach by one,
    so the tail threshold shifts by the binomially distributed ally count.
    Nonincreasing in rho; equals burst_prob_regular at rho = 0.  The sum
    is divided by the weights' mass, which cancels the rounding their log
    binomial coefficients share (about 5e-11 relative at M = 10^5).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    mean = exit_mean_count(params)
    thresh = majority_threshold(params.M)
    n = params.candidates
    weights = [binom_pmf(j, n, rho) for j in range(n + 1)]
    tail_sum = sum(w * pois_tail(thresh + j, mean) for j, w in enumerate(weights))
    return tail_sum / sum(weights)


def ally_cost(params: SwarmParams, rho: float) -> float:
    """Reservation fee: ally_unit_cost * (M/2 - 1) * rho, linear in rho."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return params.ally_unit_cost * (params.M / 2 - 1) * rho


def total_cost(params: SwarmParams, rho: float) -> CostBreakdown:
    """Expected total defense cost at reservation probability rho.

    With probability p_prior the defender still has its safe observation
    and pays the ally fee plus the swarm value if the burst happens
    anyway; otherwise the attack was already past the prior epoch and the
    swarm value is lost at the no-ally burst rate.
    """
    V = params.swarm_value
    p = prior_safe_prob(params)
    q0 = burst_prob_regular(params)
    q1 = burst_prob_safety(params, rho)
    c = ally_cost(params, rho)
    # Algebraically (c*(1-q1) + (c+V)*q1)*p + V*q0*(1-p); arranged so the
    # rho = 0 case collapses to V*q0 without rounding residue.
    total = V * q0 + p * (c + V * (q1 - q0))
    return CostBreakdown(rho=rho, p_prior=p, q0=q0, q1=q1, ally_cost=c, total=total)


# Binomial weights _CostCurve evaluates at once: 8 MB of float64 per
# block, so a curve's memory stays bounded at any M.
_BLOCK_ELEMENTS = 1 << 20


class _CostCurve:
    """``total_cost`` of one configuration at many rho.

    p_prior, q0 and the tails P{X >= thr + j}, j = 0..n, do not depend on
    rho, so they are computed once, the tails with the ufunc that
    ``pois_tail`` calls.  For interior rho the binomial weights come from
    log space, and each row is reduced on its own to its weighted tail sum
    and its weight mass, so a rho's q1 does not depend on the other rho of
    its curve.  q1 is their ratio: dividing by the mass cancels the
    rounding that the log binomial coefficients share, which leaves q1
    within about 1e-12 of exact at M = 10^5, where ``burst_prob_safety``
    is about 5e-11 off.  At rho = 0 and rho = 1 the single weight is
    exact, so q1 = q0 at rho = 0.  ally_cost and the total keep
    ``total_cost``'s formulas.
    """

    def __init__(self, params: SwarmParams) -> None:
        self.params = params
        self.p_prior = prior_safe_prob(params)
        self.q0 = burst_prob_regular(params)
        n = params.candidates
        j = np.arange(n + 1)
        self._j = j
        self._log_coef = gammaln(n + 1) - gammaln(j + 1) - gammaln(n + 1 - j)
        thr = majority_threshold(params.M)
        self._tails = pdtrc(thr - 1 + j, exit_mean_count(params))

    def q1(self, rho: np.ndarray) -> np.ndarray:
        """burst_prob_safety at each rho of a 1-D array in [0, 1]."""
        # Rows at rho = 0 and rho = 1 hold one weight, exactly 1.
        q1 = np.where(rho == 0.0, self._tails[0], self._tails[-1])
        inner = np.flatnonzero((rho > 0.0) & (rho < 1.0))
        n = self._j[-1]
        rows = max(1, _BLOCK_ELEMENTS // (n + 1))
        for start in range(0, inner.size, rows):
            block = inner[start : start + rows]
            log_w = np.multiply.outer(np.log(rho[block]), self._j)
            log_w += np.multiply.outer(np.log1p(-rho[block]), n - self._j)
            log_w += self._log_coef
            w = np.exp(log_w, out=log_w)
            q1[block] = (w * self._tails).sum(axis=1) / w.sum(axis=1)
        return q1

    def breakdowns(self, rho: Sequence[float]) -> list[CostBreakdown]:
        """``total_cost(params, r)`` for each r in rho, each within [0, 1]."""
        params = self.params
        rho = np.asarray(rho, dtype=float)
        V, p, q0 = params.swarm_value, self.p_prior, self.q0
        q1 = self.q1(rho)
        c = params.ally_unit_cost * (params.M / 2 - 1) * rho
        total = V * q0 + p * (c + V * (q1 - q0))
        columns = (rho.tolist(), q1.tolist(), c.tolist(), total.tolist())
        return [
            CostBreakdown(rho=r, p_prior=p, q0=q0, q1=b, ally_cost=a, total=t)
            for r, b, a, t in zip(*columns)
        ]


def min_allies(params: SwarmParams, rho: float) -> AllyRequirement:
    """Smallest ally count n with n * (V*q0 - c(rho)) >= c(rho).

    Infeasible when the expected loss avoided, V * q0, does not exceed the
    reservation fee; infeasibility is a value, not an error.
    """
    c = ally_cost(params, rho)
    gain = params.swarm_value * burst_prob_regular(params)
    if gain <= c:
        return AllyRequirement(feasible=False, n=None)
    bound = c / (gain - c)
    return AllyRequirement(feasible=True, n=math.ceil(bound))


def choose_strategy(
    matrix: CostMatrix, q_regular: float, q_safety: float
) -> StrategyChoice:
    """Pick the cheaper defender row; ties go to Regular."""
    for name, q in (("q_regular", q_regular), ("q_safety", q_safety)):
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {q}")
    cost_regular = (
        matrix.regular_notburst * (1.0 - q_regular) + matrix.regular_burst * q_regular
    )
    cost_safety = (
        matrix.safety_notburst * (1.0 - q_safety) + matrix.safety_burst * q_safety
    )
    strategy = "Safety" if cost_safety < cost_regular else "Regular"
    return StrategyChoice(
        strategy=strategy,
        expected_cost_regular=cost_regular,
        expected_cost_safety=cost_safety,
    )
