"""Exit-index transforms for the attacker-vs-swarm observation process.

The attacker's node count is a Poisson process sampled at exponentially
spaced observation epochs, so one interval's capture count is geometric.
Below a strict majority the observed count is an absorbing Markov chain,
and the xi-weighted mass of its pre-exit epochs at each level is a
coefficient of a 1-D rational generating function.  That gives the joint
functional of the exit index nu (the first observation at which the
attacker holds a strict majority), the pre-exit and exit counts and the
ally discount; the exit-index PGF; and E[nu] exactly, as one plus the
expected number of pre-exit epochs (Kemeny & Snell, Finite Markov Chains,
1960).  ``pathwise_events`` gives the exact probabilities of the
simulator's own events from the same chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import binom_pmf
from .model import SwarmParams, majority_threshold
from .series import TruncSeries
# Not called here: the benchmark's tracer patches d_operator and
# interval_transform_series by name (ROADMAP item 1).
from .series import d_operator  # noqa: F401

__all__ = [
    "TransformPoint",
    "interval_transform",
    "interval_transform_series",
    "sigma_transform",
    "phi",
    "exit_index_pgf",
    "expected_exit_index",
    "PathwiseEvents",
    "pathwise_events",
]


@dataclass(frozen=True)
class TransformPoint:
    """Arguments of the joint functional; all magnitudes must be <= 1."""

    xi: float = 1.0
    g0: float = 1.0
    g1: float = 1.0
    b: float = 1.0
    z0: float = 1.0
    z1: float = 1.0

    def __post_init__(self) -> None:
        for name in ("xi", "g0", "g1", "b", "z0", "z1"):
            value = getattr(self, name)
            if abs(value) > 1.0:
                raise ValueError(f"|{name}| must be <= 1, got {value}")


def interval_transform(
    g: float, z: float, mean: float, lambda_a: float, lambda_h: float
) -> float:
    """Joint transform of the attacker/honest increments over one interval.

    For an exponentially distributed interval of the given mean,
    E[g^X z^Z] = 1 / (1 + lambda_a*mean*(1-g) + lambda_h*mean*(1-z)).
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    return 1.0 / (1.0 + lambda_a * mean * (1.0 - g) + lambda_h * mean * (1.0 - z))


def interval_transform_series(
    degrees: tuple[int, int, int],
    mean: float,
    lambda_a: float,
    lambda_h: float,
    g_scalar: float,
    g_exponents: tuple[int, int, int],
    z_scalar: float,
) -> TruncSeries:
    """One-interval transform with its attacker argument set to a monomial.

    Substituting g = g_scalar * q^i r^j s^k into the transform gives a
    rational series expanded by truncated division:
    1 / (1 + lambda_a*mean*(1 - g_scalar*q^i r^j s^k)
           + lambda_h*mean*(1 - z_scalar)).
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    denom = (
        TruncSeries.constant(
            1.0 + lambda_a * mean + lambda_h * mean * (1.0 - z_scalar), degrees
        )
        - TruncSeries.monomial(lambda_a * mean * g_scalar, g_exponents, degrees)
    )
    return TruncSeries.constant(1.0, degrees) / denom


def sigma_transform(b: float, rho: float, candidates: int) -> float:
    """E[b^-B] for B ~ Binomial(candidates, rho)."""
    if b == 0.0:
        raise ZeroDivisionError("sigma transform is singular at b = 0")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if candidates < 0:
        raise ValueError(f"candidates must be nonnegative, got {candidates}")
    return (1.0 - rho + rho / b) ** candidates


def _pre_exit_mass(
    xi: float, y: float, z: float, params: SwarmParams, size: int
) -> np.ndarray:
    """xi-weighted mass h_0..h_{size-1} of pre-exit epochs by attacker level.

    Over an interval of mean d the weight of k captures is c r^k, with
    c = interval_transform(0, z, d) and r = lambda_a d c y, so h_i is the
    coefficient of u^i in H(u) = c0 (1 - r u) / ((1 - r0 u)(1 - xi c - r u)),
    where c0, r0 belong to the first interval (mean delta0).  Its first
    factor is expanded directly and the rest by one first-order recurrence,
    so the pole r / (1 - xi c) stays exactly 1 at xi = y = z = 1; rounded
    second-order coefficients would move it and lose about thr ulps.  The
    recurrence is scipy's lfilter([1, -r], [a0, -r], first) in lfilter's
    own operation order (coefficients divided by a0, then direct form II
    transposed), so h is bitwise the filter's.
    """
    la, lh = params.lambda_a, params.lambda_h
    d0, d = params.delta0, params.delta
    c0 = interval_transform(0.0, z, d0, la, lh)
    c = interval_transform(0.0, z, d, la, lh)
    r = la * d * c * y
    # 1 - xi c, written without the cancellation near xi c = 1
    a0 = c * (1.0 - xi + la * d + lh * d * (1.0 - z))
    first = c0 * (la * d0 * c0 * y) ** np.arange(size)
    b0, b1 = 1.0 / a0, -r / a0  # b1 is also the normalized a1
    h, state = [], 0.0
    for x in first.tolist():
        out = state + b0 * x
        state = x * b1 - out * b1
        h.append(out)
    return np.array(h)


def phi(point: TransformPoint, params: SwarmParams, rho: float = 0.0) -> float:
    """Joint transform of (nu, pre-exit count, exit count, ally discount).

    Pre-exit intervals carry the marks y = g0 g1 b and z = z0 z1, the exit
    interval y = g1 b and z = z1.  The ally-acceptance probability rho
    enters only through the factor E[b^-B]; at b = 1 (in particular for
    the exit-index marginal) it has no effect.  Where that factor exceeds
    1 it is folded into the capture marks, so it cannot overflow.
    """
    la, lh = params.lambda_a, params.lambda_h
    if la == 0.0:
        # The attacker never advances: nu is infinite, so xi^nu vanishes
        # for |xi| < 1 while the normalization at xi = 1 is preserved.
        return 1.0 if point.xi == 1.0 else 0.0

    thr, n = majority_threshold(params.M), params.candidates
    xi, b, y, z = point.xi, point.b, point.g1 * point.b, point.z1

    def exit_weight(mean, short, s):
        """Weight of an exit interval that brings at least `short` captures."""
        r = la * mean * interval_transform(0.0, z, mean, la, lh) * s
        return interval_transform(y, z, mean, la, lh) * r**short

    def exit_mass(s):
        """The functional without the allies, each capture marked by s."""
        h = _pre_exit_mass(xi, point.g0 * s, point.z0 * z, params, thr)
        # The attacker crosses in the very first interval, or at a later
        # epoch after a run of pre-exit epochs that leaves it at level i < thr.
        return xi * exit_weight(params.delta0, thr, s) + xi * xi * float(
            h @ exit_weight(params.delta, thr - np.arange(thr), s)
        )

    # |E[b^-B]| <= 1 exactly when its base is, and then the power is finite.
    if abs(1.0 - rho + rho / b) <= 1.0:
        return sigma_transform(b, rho, n) * exit_mass(y)
    # E[b^-B] grows like |b|^-n, while every one of the at least thr
    # captures carries a factor y = g1 b, so the mass underflows where the
    # product does not (M = 5000, b = 1/2, rho = 0.9, lambda_a = 1: sigma
    # overflows, the product is about 4e-57).  The mass is homogeneous of
    # degree thr in the capture mark, and sigma b^thr =
    # ((1 - rho) b + rho)^n b^(thr - n) has no factor above 1 in magnitude.
    scale = ((1.0 - rho) * b + rho) ** n * b ** (thr - n) * point.g1**thr
    return scale * exit_mass(1.0)


def exit_index_pgf(xi: float, params: SwarmParams) -> float:
    """E[xi^nu], the PGF of the exit index."""
    return phi(TransformPoint(xi=xi), params)


def expected_exit_index(params: SwarmParams) -> float:
    """E[nu]: one plus the expected number of pre-exit epochs.

    That count is the row sum of the absorbing chain's fundamental matrix,
    the sum of h_i at xi = 1.  Infinite when the attacker rate is zero.
    """
    if params.lambda_a == 0.0:
        return math.inf
    h = _pre_exit_mass(1.0, 1.0, 1.0, params, majority_threshold(params.M))
    return 1.0 + float(h.sum())


@dataclass(frozen=True)
class PathwiseEvents:
    """Exact probabilities of the simulator's events, with no horizon.

    With A_k, H_k the attacker and honest counts at epoch k, nu the exit
    index, thr the strict-majority threshold and B ~ Binomial(candidates,
    rho) the allies:

    burst_regular    P{H_nu < thr}, the attacker exits first
    burst_safety     P{A_nu - B >= thr, H_nu < thr}
    prior_safe       P{A_(nu-1) < M/2}, with A_0 = 0
    mean_exit_count  E[A_nu]
    """

    burst_regular: float
    burst_safety: float
    prior_safe: float
    mean_exit_count: float


def pathwise_events(params: SwarmParams, rho: float = 0.0) -> PathwiseEvents:
    """The simulator's burst, prior-safe and exit-count moments, exactly.

    prior_safe needs only the attacker: the epoch-1 jump reaches thr with
    probability r0^thr, and a later one from pre-exit level i with
    probability r^(thr - i), r = lambda_a d / (1 + lambda_a d), where h_i
    of ``_pre_exit_mass`` weighs level i.  E[A_nu] is Wald's identity,
    lambda_a (delta0 + (E[nu] - 1) delta).  With lambda_h = 0 every exit
    bursts in Regular; the overshoot past thr is geometric with the ratio
    of the crossing epoch (memoryless), so Safety is the binomial PGF at
    r0 or r.  With lambda_h > 0 ``_honest_race`` runs the (attacker,
    honest) chain.  With lambda_a = 0 nothing exits and, as censored
    episodes do in the simulator, A_(nu-1) reads 0.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    la, d0, d = params.lambda_a, params.delta0, params.delta
    if la == 0.0:
        return PathwiseEvents(0.0, 0.0, 1.0, math.nan)
    thr, n = majority_threshold(params.M), params.candidates
    r0, r = la * d0 / (1.0 + la * d0), la * d / (1.0 + la * d)

    h = _pre_exit_mass(1.0, 1.0, 1.0, params, thr)
    levels = np.arange(thr)
    last = h * r ** (thr - levels)  # P{A_(nu-1) = i, nu > 1}
    last[0] += r0**thr
    prior_safe = float(last[levels < params.M / 2].sum())
    # Wald, with E[nu] - 1 = sum of h as in expected_exit_index
    mean_exit_count = la * (d0 + float(h.sum()) * d)

    if params.lambda_h == 0.0:
        first = r0**thr
        regular = 1.0
        safety = first * (1.0 - rho + rho * r0) ** n + (1.0 - first) * (
            1.0 - rho + rho * r
        ) ** n
    else:
        tails = _honest_race(params, thr, n)
        weights = np.array([binom_pmf(j, n, rho) for j in range(n + 1)])
        regular, safety = float(tails[0]), float(weights @ tails)
    return PathwiseEvents(regular, safety, prior_safe, mean_exit_count)


def _honest_race(params: SwarmParams, thr: int, n: int) -> np.ndarray:
    """P{A_nu >= thr + j, H_nu < thr} for j = 0..n, with lambda_h > 0.

    An epoch of mean d is a run of events, each the attacker's with
    probability a = lambda_a d / (1 + m), honest with b = lambda_h d /
    (1 + m), or the epoch's end with c = 1 / (1 + m), m = (lambda_a +
    lambda_h) d; so P{x = i, z = j} = C(i + j, i) a^i b^j c.  Let F(A, H)
    be the epoch-1 law, W(A, H) the mass later epochs bring to (A, H), and
    G = F + W the pre-exit mass below thr (G = 0 from thr on).  As
    generating functions F = c0 / (1 - a0 u - b0 v) and W = c G / (1 - a u
    - b v), so each attacker row follows from the one before by a
    first-order recurrence in H:
        F(A, H) = a0 F(A - 1, H) + b0 F(A, H - 1)
        W(A, H) = c G(A, H) + a W(A - 1, H) + b W(A, H - 1),
    which below thr reads (a + b) W = c F + a W(A - 1, .) + b W(., H - 1).
    Counts never decrease and H >= thr leaves the race, so one pass over
    the rows A < thr + n, H < thr gives the exit mass F + W of rows thr to
    thr + n - 1; summing the recurrences over the rows beyond gives the
    rest in closed form.
    """
    from scipy.signal import lfilter  # off the import path: only this uses it

    la, lh = params.lambda_a, params.lambda_h

    def step(d):
        """End, attacker and honest event probabilities of one epoch."""
        m = 1.0 + (la + lh) * d
        return 1.0 / m, la * d / m, lh * d / m

    c0, a0, b0 = step(params.delta0)
    c, a, b = step(params.delta)
    first = c0 * b0 ** np.arange(thr)
    later = np.zeros(thr)
    exit_mass = []
    for row in range(thr + n):
        if row:
            first = lfilter([a0], [1.0, -b0], first)
        if row < thr:
            later = lfilter([1.0], [a + b, -b], c * first + a * later)
        else:
            later = lfilter([a], [1.0, -b], later)
            exit_mass.append(first.sum() + later.sum())
    # S(H), the sum of F(A, H) over the rows beyond the last, satisfies
    # (1 - a0) S(H) - b0 S(H - 1) = a0 F(last, H); likewise for W.
    beyond = lfilter([a0], [c0 + b0, -b0], first).sum()
    beyond += lfilter([a], [c + b, -b], later).sum()
    return beyond + np.cumsum((exit_mass + [0.0])[::-1])[::-1]

