"""Ally-reservation cost minimization over rho in [0, 1].

With p = p_prior, V the swarm value, n = M//2 - 1 and K = ally_unit_cost
* (M/2 - 1), the slope is cost'(rho) = p * (K - V * n * f(rho)), where
f(rho) = P{X = thr + Binom(n - 1, rho)} and X ~ Poisson(exit mean).  f is
a Bernstein polynomial of the unimodal Poisson pmf, so by variation
diminishing it rises and then falls: the cost has at most one interior
local minimum, and re-gridding the bracket around the best grid point
finds it.  Grid and refinement evaluate the curve through one
``model._CostCurve`` (rho-free quantities once per curve, each grid in
one vectorized pass).  The refinement works on the rho and total
columns alone; only the coarse grid becomes ``CostBreakdown`` rows, the
CSV's rows in its column order.
Feasibility of the reservation (the minimal ally count for it to pay
off) is reported at the optimum, never used to restrict the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import CostBreakdown, SwarmParams, _CostCurve, min_allies
# Not called here: the benchmark's tracer patches this name (ROADMAP item 1).
from .model import total_cost  # noqa: F401

__all__ = ["OptimalRho", "sweep", "optimize"]

# Refinement offsets in grid spacings; the spacing then shrinks _SIDE-fold.
# Offsets 0 and +-1 are the best point and the bracket ends, held from
# the step before, so only the points strictly between them are new.
_SIDE = 5
_REFINE = np.array([k for k in range(1 - _SIDE, _SIDE) if k]) / _SIDE


@dataclass(frozen=True)
class OptimalRho:
    rho_star: float
    cost_star: float
    feasible: bool
    n_required: Optional[int]
    curve: tuple[CostBreakdown, ...]


def _grid(grid_size: int) -> np.ndarray:
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    return np.arange(grid_size) / (grid_size - 1)


def sweep(params: SwarmParams, grid_size: int) -> list[CostBreakdown]:
    """Cost breakdown at grid_size equally spaced rho values in [0, 1]."""
    return _CostCurve(params).breakdowns(_grid(grid_size))


def optimize(
    params: SwarmParams, tolerance: float = 1e-5, grid_size: int = 101
) -> OptimalRho:
    """Minimize the total defense cost over rho.

    Re-grids the bracket around the best point, evaluating only the
    points strictly inside it and keeping the best point and the bracket
    ends, until a re-gridded bracket is no wider than tolerance or stops
    shrinking in floating point.  Ties go to the smaller rho, so a flat
    cost gives rho = 0; a boundary optimum is a valid result.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    engine = _CostCurve(params)
    rho = _grid(grid_size)
    curve = engine.breakdowns(rho)
    total = np.array([point.total for point in curve])
    i = int(total.argmin())  # the first least total: ties to the smaller rho
    step = 1.0 / (grid_size - 1)
    while rho[i] + step > rho[i]:
        new = rho[i] + step * _REFINE
        new = new[(new >= 0.0) & (new <= 1.0)]
        # Held points first: the stable sort keeps them ahead of a new equal rho.
        held = slice(max(i - 1, 0), i + 2)
        rho = np.concatenate((rho[held], new))
        total = np.concatenate((total[held], engine.columns(new)[2]))
        order = rho.argsort(kind="stable")
        rho, total = rho[order], total[order]
        i = int(total.argmin())
        if 2.0 * step <= tolerance:
            break
        step /= _SIDE
    requirement = min_allies(params, float(rho[i]))
    return OptimalRho(
        rho_star=float(rho[i]),
        cost_star=float(total[i]),
        feasible=requirement.feasible,
        n_required=requirement.n,
        curve=tuple(curve),
    )
