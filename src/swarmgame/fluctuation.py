"""Exit-index transforms for the attacker-vs-swarm observation process.

The attacker's node count is a Poisson process sampled at exponentially
spaced observation epochs, so one interval's capture count is geometric.
Below a strict majority the observed count is an absorbing Markov chain,
and the xi-weighted mass of its pre-exit epochs at each level is a
coefficient of a 1-D rational generating function, one pass over the
levels with no per-level memory.  That gives the joint functional of the
exit index nu (the first observation at which the attacker holds a
strict majority), the pre-exit and exit counts and the ally discount;
and the exit-index PGF.  At xi = 1 the expected number of pre-exit
epochs (Kemeny & Snell, Finite Markov Chains, 1960) is a finite
geometric sum, so E[nu] and the exact probabilities of the simulator's
own events (``pathwise_events``) are closed forms, O(1) at any M.

No command runs the series algebra, so ``swarmgame.series`` loads only
when ``interval_transform_series`` or ``d_operator`` is first used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .kernels import binomial_mixture
from .model import SwarmParams, majority_threshold

if TYPE_CHECKING:
    from .series import TruncSeries

__all__ = [
    "TransformPoint",
    "interval_transform",
    "interval_transform_series",
    "phi",
    "exit_index_pgf",
    "expected_exit_index",
    "PathwiseEvents",
    "pathwise_events",
]


def __getattr__(name: str):
    # Not called here: the benchmark's tracer patches d_operator by name.
    # Resolving it loads the series algebra.
    if name == "d_operator":
        from .series import d_operator

        return d_operator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    from .series import TruncSeries

    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    denom = (
        TruncSeries.constant(
            1.0 + lambda_a * mean + lambda_h * mean * (1.0 - z_scalar), degrees
        )
        - TruncSeries.monomial(lambda_a * mean * g_scalar, g_exponents, degrees)
    )
    return TruncSeries.constant(1.0, degrees) / denom


def phi(point: TransformPoint, params: SwarmParams, rho: float = 0.0) -> float:
    """Joint transform of (nu, pre-exit count, exit count, ally discount).

    Pre-exit intervals carry the marks y = g0 g1 b and z = z0 z1, the exit
    interval y = g1 b and z = z1.  With each capture's g1 b taken out, k
    pre-exit captures in an interval of mean d weigh c r^k, c =
    interval_transform(0, z, d) and r = lambda_a d c g0, so the xi-weighted
    mass h_i of pre-exit epochs at level i < thr is the coefficient of u^i
    in c0 (1 - r u) / ((1 - r0 u)(1 - xi c - r u)), c0 and r0 the first
    interval's.
    One pass runs (1 - xi c) h_i by its first-order recurrence, whose pole
    is exactly 1 at xi = g0 = z0 z1 = 1, and sums the exits by Horner's
    rule; nothing divides by 1 - xi c, which underflows with lambda_a delta.
    The ally-acceptance probability rho enters only through the factor
    E[b^-B], folded into the capture marks, so it cannot overflow.
    """
    la, lh = params.lambda_a, params.lambda_h
    if la == 0.0:
        # The attacker never advances: nu is infinite, so xi^nu vanishes
        # for |xi| < 1 while the normalization at xi = 1 is preserved.
        return 1.0 if point.xi == 1.0 else 0.0

    thr, n = majority_threshold(params.M), params.candidates
    d0, d = params.delta0, params.delta
    xi, b, g0, z = point.xi, point.b, point.g0, point.z1
    y, zp = point.g1 * b, point.z0 * z  # the exit and pre-exit (z) marks

    def ratio(mean, mark):
        """lambda_a mean c: k captures in one interval weigh c ratio^k."""
        return la * mean * interval_transform(0.0, mark, mean, la, lh)

    c0 = interval_transform(0.0, zp, d0, la, lh)
    r0, r, R = g0 * ratio(d0, zp), g0 * ratio(d, zp), ratio(d, z)
    # q = r / (g0 (1 - xi c)) with no cancellation near xi c = 1; lh / la
    # first would be inf * 0 where lambda_a is tiny.
    q = 1.0 / ((1.0 - xi) / la / d + 1.0 + lh * (1.0 - zp) / la)
    pole = q * g0
    k = total = before = 0.0
    level = c0  # c0 r0^i, the first interval's mass at level i
    for _ in range(thr):
        k = pole * k + level - r * before
        total = total * R + k
        before, level = level, level * r0
    # The attacker crosses in the very first interval, or at a later epoch
    # after a run of pre-exit epochs that leaves it at level i < thr; the
    # exit ratio over 1 - xi c is R / (1 - xi c) = (c_z / c) q.
    c, c_z = (interval_transform(0.0, v, d, la, lh) for v in (zp, z))
    exit_mass = xi * interval_transform(y, z, d0, la, lh) * ratio(d0, z) ** thr
    exit_mass += xi * xi * interval_transform(y, z, d, la, lh) * (c_z / c * q) * total

    # sigma = E[b^-B] grows like |b|^-n, while every one of the at least thr
    # captures carries a factor y = g1 b, so the mass underflows where the
    # product does not (M = 5000, b = 1/2, rho = 0.9, lambda_a = 1: sigma
    # overflows, the product is about 4e-57).  The mass is homogeneous of
    # degree thr in the capture mark, and sigma b^thr =
    # ((1 - rho) b + rho)^n b^(thr - n) has no factor above 1 in magnitude;
    # as thr - n = 2, it is 0 at b = 0, where sigma itself is singular.
    scale = ((1.0 - rho) * b + rho) ** n * b ** (thr - n) * point.g1**thr
    return scale * exit_mass


def exit_index_pgf(xi: float, params: SwarmParams) -> float:
    """E[xi^nu], the PGF of the exit index."""
    return phi(TransformPoint(xi=xi), params)


def _q(u: float) -> float:
    """(expm1(u) - u) / u, by its Taylor series where it cancels (|u| <= 1/2)."""
    if abs(u) > 0.5:
        return math.expm1(u) / u - 1.0
    total, term, k = 0.0, u / 2.0, 2
    while total + term != total:
        total, k = total + term, k + 1
        term *= u / k
    return total


def _first_interval(params: SwarmParams) -> tuple[int, float, float]:
    """thr, ell = log1p(1 / (lambda_a delta0)) and D = E[(thr - A_1)^+].

    The first capture count has P{A_1 >= k} = r0^k = e^(-k ell), so D =
    thr ell / expm1(ell) (q(ell) - q(-thr ell)): two nonnegative terms,
    where thr - lambda_a delta0 (1 - r0^thr) cancels, and no ell^2 to underflow.
    """
    thr = majority_threshold(params.M)
    # 1/la/d0, as la d0 may underflow.  Past ell = 700, D = thr and r0^thr = 0
    # to float precision, and expm1 stays finite.
    ell = min(math.log1p(1.0 / params.lambda_a / params.delta0), 700.0)
    if not ell:  # la d0 overflows: the first interval exits
        return thr, ell, 0.0
    return thr, ell, thr * (ell / math.expm1(ell) * (_q(ell) - _q(-thr * ell)))


def expected_exit_index(params: SwarmParams) -> float:
    """E[nu]: one plus the expected number of pre-exit epochs.

    Epoch 1 is pre-exit with probability 1 - r0^thr, and the later ones
    number (thr - A_1)^+ / (lambda_a delta) on average, so E[nu] = 2 - r0^thr + D /
    (lambda_a delta).  inf when the attacker rate is zero or E[nu] overflows.
    """
    if params.lambda_a == 0.0:
        return math.inf
    thr, ell, D = _first_interval(params)
    return 2.0 - math.exp(-thr * ell) + D / params.lambda_a / params.delta


@dataclass(frozen=True)
class PathwiseEvents:
    """Exact probabilities of the simulator's events; on both sides
    nothing caps the exit index.

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

    prior_safe needs only the attacker: 1 at odd M, where every level below
    thr is below M/2, and r0^thr + r (1 - r0^(thr - 1)), r = lambda_a delta /
    (1 + lambda_a delta), at even M, where exits from level thr - 1 = M/2
    are not safe.  E[A_nu] is Wald's identity, lambda_a (delta0 + (E[nu] -
    1) delta) = lambda_a (delta0 + delta (1 - r0^thr)) + D, with r0 and D
    as in ``_first_interval``; neither needs ``phi``'s pass over the levels.
    With lambda_h = 0 every exit bursts in Regular; the overshoot past thr
    is geometric with the ratio of the crossing epoch (memoryless), so
    Safety is the binomial PGF at r0 or r.  With lambda_h > 0
    ``_honest_race`` runs the (attacker, honest) chain for the tails
    P{A_nu >= thr + j, H_nu < thr}, and Safety is their binomial mixture
    over the allies.  With lambda_a = 0 nothing exits and, as censored
    episodes do in the simulator, A_(nu-1) reads 0.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    la, d0, d = params.lambda_a, params.delta0, params.delta
    if la == 0.0:
        return PathwiseEvents(0.0, 0.0, 1.0, math.nan)
    n = params.candidates
    thr, ell, D = _first_interval(params)
    r0, r = 1.0 / (1.0 + 1.0 / la / d0), 1.0 / (1.0 + 1.0 / la / d)
    first = math.exp(-thr * ell)  # r0^thr
    prior_safe = 1.0 if params.M % 2 else first - r * math.expm1(-(thr - 1) * ell)
    mean_exit_count = la * (d0 - d * math.expm1(-thr * ell)) + D

    if params.lambda_h == 0.0:
        regular = 1.0
        safety = first * (1.0 - rho + rho * r0) ** n + (1.0 - first) * (
            1.0 - rho + rho * r
        ) ** n
    else:
        tails = _honest_race(params, thr, n)
        regular = float(tails[0])
        safety = float(binomial_mixture(tails)(np.array([rho]))[0])
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
    - b v), so F(A, H) = a0 F(A - 1, H) + b0 F(A, H - 1) and W(A, H) =
    c G(A, H) + a W(A - 1, H) + b W(A, H - 1), which below thr reads
    (a + b) W = c F + a W(A - 1, .) + b W(., H - 1); carrying (a + b) W,
    weighted lambda_a / (lambda_a + lambda_h) and lambda_h / (lambda_a +
    lambda_h), needs no 1 / (a + b) to overflow.  A point needs only two
    on the anti-diagonal before it, so one sweep over A + H = k carries
    both masses; H = thr leaves the race, so each point is zeroed there.
    The last entry stands for all A >= thr + n: their sum obeys (1 - a0)
    S(H) = a0 F(thr + n - 1, H) + b0 S(H - 1), likewise for W with a and b,
    so its weights are divided by 1 - a0 and 1 - a.
    """
    la, lh = params.lambda_a, params.lambda_h

    def step(d):
        """End, attacker and honest event probabilities of one epoch."""
        m = 1.0 + (la + lh) * d
        return 1.0 / m, la * d / m, lh * d / m

    (c0, a0, b0), (c, a, b) = step(params.delta0), step(params.delta)
    last = thr + n
    # Row 0 carries F, row 1 W ((a + b) W below thr); column A holds the
    # point (A, k - A).
    scale = np.ones((2, last + 1))
    scale[:, last] = 1.0 / (c0 + b0), 1.0 / (c + b)  # 1 - a0, 1 - a, uncancelled
    up, left = scale * [[a0], [a]], scale * [[b0], [b]]
    up[1, : thr + 1], left[1, :thr] = la / (la + lh), lh / (la + lh)
    fresh = np.where(np.arange(last + 1) < thr, c, 0.0)
    x = np.zeros((2, last + 1))
    x[:, 0] = c0, c * c0
    total, behind = x.copy(), np.zeros_like(x)
    for k in range(1, last + thr):
        behind[:, 1:] = x[:, :-1]  # (A - 1, H); column 0 stays zero
        x = up * behind + left * x
        x[1] += fresh * x[0]
        if k >= thr:
            x[:, k - thr] = 0.0
        total += x
    return np.cumsum(total[:, thr:].sum(axis=0)[::-1])[::-1]
