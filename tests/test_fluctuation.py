import math
import time
from dataclasses import astuple

import mpmath
import numpy as np
import pytest

from swarmgame.fluctuation import (
    PathwiseEvents,
    TransformPoint,
    _honest_race,
    exit_index_pgf,
    expected_exit_index,
    interval_transform,
    interval_transform_series,
    pathwise_events,
    phi,
)
from swarmgame.kernels import binom_pmf
from swarmgame.model import SwarmParams, majority_threshold
from swarmgame.series import TruncSeries, d_operator
from swarmgame.sim import estimate, sample_exit_indices


def params(**overrides):
    base = dict(M=20, drone_value=1500.0, lambda_a=1.0, delta0=1.0, delta=1.0)
    base.update(overrides)
    return SwarmParams(**base)


def test_point_validation():
    TransformPoint(xi=0.5)
    with pytest.raises(ValueError):
        TransformPoint(xi=1.5)
    with pytest.raises(ValueError):
        TransformPoint(b=-1.2)


def test_interval_transform_normalization():
    for la, lh, mean in [(1.0, 0.0, 1.0), (3.0, 2.0, 0.5), (0.0, 0.0, 2.0)]:
        assert interval_transform(1.0, 1.0, mean, la, lh) == 1.0


def test_interval_transform_zero_rates():
    assert interval_transform(0.3, 0.7, 1.0, 0.0, 0.0) == 1.0


def test_interval_transform_geometric_mass_at_zero():
    # E[0^X] = P{X = 0}; Poisson count over an exponential interval is
    # geometric with success probability 1/(1 + la*mean)
    assert interval_transform(0.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(0.5)
    assert interval_transform(0.0, 1.0, 2.0, 1.5, 0.0) == pytest.approx(1.0 / 4.0)


def sigma_transform(b, rho, candidates):
    """E[b^-B] for B ~ Binomial(candidates, rho): the ally factor that
    ``phi`` folds into its capture marks, as ``_phi_series`` applies it."""
    return (1.0 - rho + rho / b) ** candidates


def test_sigma_transform():
    assert sigma_transform(1.0, 0.7, 9) == 1.0
    assert sigma_transform(0.5, 0.0, 9) == 1.0
    # enumerate B in {0, 1, 2} with pmf {1/4, 1/2, 1/4} at b = 2
    assert sigma_transform(2.0, 0.5, 2) == pytest.approx(0.5625)
    with pytest.raises(ZeroDivisionError):
        sigma_transform(0.0, 0.5, 9)


def test_phi_normalization_at_ones():
    ones = TransformPoint()
    for p in (
        params(),
        params(M=10, lambda_a=3.0, delta0=0.5),
        params(lambda_h=5.0),
        params(lambda_a=0.0),
        params(lambda_a=1e-300, lambda_h=1e10),  # lh / la would be inf
    ):
        assert phi(ones, p) == pytest.approx(1.0, abs=1e-9)
    # lambda_a delta underflows: 1 - xi c does too, and nothing divides by it
    p = params(lambda_a=1e-200, delta=1e-200)
    assert phi(ones, p) == pytest.approx(1.0, abs=1e-9)
    assert exit_index_pgf(1.0, p) == 1.0


def test_pgf_bounds_and_monotone():
    p = params()
    grid = np.linspace(0.0, 1.0, 21)
    values = [exit_index_pgf(x, p) for x in grid]
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_pgf_domain():
    with pytest.raises(ValueError):
        exit_index_pgf(1.5, params())


def test_pgf_independent_of_honest_rate():
    # nu is a functional of the attacker process alone
    assert exit_index_pgf(0.9, params()) == pytest.approx(
        exit_index_pgf(0.9, params(lambda_h=10.0)), abs=1e-12
    )


def test_pgf_matches_monte_carlo():
    p = params()
    nu, censored = sample_exit_indices(p, episodes=200_000, seed=7)
    assert censored == 0
    for xi in (0.5, 0.9):
        samples = xi ** nu.astype(float)
        se = samples.std() / math.sqrt(len(samples))
        assert abs(exit_index_pgf(xi, p) - samples.mean()) <= 3 * se + 1e-12


def test_nu_free_layers_ignore_an_unset_nu():
    # The transform, the exact events and the simulator never read nu.
    unset, fixed = params(lambda_h=0.5, expected_nu=None), params(lambda_h=0.5)
    point = TransformPoint(xi=0.7, g0=0.9, g1=0.8, b=0.6, z1=0.9)
    for layer in (
        lambda p: astuple(estimate(p, episodes=5000, seed=4, rho=0.5)),
        expected_exit_index,
        lambda p: astuple(pathwise_events(p, 0.5)),
        lambda p: phi(point, p, 0.5),
    ):
        assert layer(unset) == layer(fixed)


def test_expected_exit_index_at_least_one():
    for p in (params(), params(lambda_a=50.0), params(M=4, lambda_a=0.2)):
        assert expected_exit_index(p) >= 1.0


def test_expected_exit_index_no_attacker():
    assert expected_exit_index(params(lambda_a=0.0)) == math.inf


def test_expected_exit_index_matches_monte_carlo():
    for la in (0.5, 1.0, 2.0):
        p = params(lambda_a=la, lambda_h=10.0)
        nu, _ = sample_exit_indices(p, episodes=200_000, seed=11)
        se = nu.std() / math.sqrt(len(nu))
        assert abs(expected_exit_index(p) - nu.mean()) <= 3 * se


def test_expected_exit_index_decreasing_in_attack_rate():
    values = [expected_exit_index(params(lambda_a=la)) for la in (0.5, 1.0, 2.0)]
    assert values[0] > values[1] > values[2]


def first_step_expected_nu(p):
    """Exact E[nu] by conditioning on the first interval.

    Its capture count k is geometric with ratio q0; from there the
    remaining epochs are the failures before the (thr - k)-th success of
    Bernoulli trials with odds lambda_a * delta, plus the exit epoch.
    """
    thr = majority_threshold(p.M)
    q0 = p.lambda_a * p.delta0 / (1.0 + p.lambda_a * p.delta0)
    k = np.arange(thr)
    weights = (1.0 - q0) * q0**k
    return 1.0 + float(np.sum(weights * (1.0 + (thr - k) / (p.lambda_a * p.delta))))


@pytest.mark.parametrize("M", [4, 20, 41, 1000, 5000])
@pytest.mark.parametrize("la", [0.5, 1.0, 3.0])
def test_expected_exit_index_first_step_oracle(M, la):
    for d0, d in ((2.0, 0.5), (0.3, 1.7)):
        p = params(M=M, lambda_a=la, delta0=d0, delta=d, lambda_h=2.0)
        nu = expected_exit_index(p)
        assert type(nu) is float
        assert nu == pytest.approx(first_step_expected_nu(p), rel=1e-12)
    # delta0 = delta: nu - 1 counts the failures before the thr-th success
    p = params(M=M, lambda_a=la, delta0=0.7, delta=0.7)
    thr = majority_threshold(M)
    assert expected_exit_index(p) == pytest.approx(1.0 + thr / (la * 0.7), rel=1e-12)


@pytest.mark.parametrize("M", [4, 20, 41, 200, 1000])
def test_pgf_matches_negative_binomial(M):
    # delta0 = delta, lambda_h = 0: nu - 1 is negative binomial
    for la, d in ((1.0, 1.0), (0.4, 2.5), (3.0, 0.5)):
        p = params(M=M, lambda_a=la, delta0=d, delta=d)
        q = la * d / (1.0 + la * d)
        thr = majority_threshold(M)

        def exact(xi):
            return xi * (q / (1.0 - (1.0 - q) * xi)) ** thr

        for xi in np.linspace(0.0, 1.0, 21):
            assert exit_index_pgf(xi, p) == pytest.approx(exact(xi), rel=1e-9)
        # alternating terms cancel for xi < 0, so compare absolutely
        for xi in np.linspace(-1.0, -0.05, 20):
            assert exit_index_pgf(xi, p) == pytest.approx(exact(xi), abs=1e-12)


def _phi_series(point, params, rho):
    """``phi`` by trivariate truncated power-series algebra; the reference."""
    la, lh = params.lambda_a, params.lambda_h
    if la == 0.0:
        return 1.0 if point.xi == 1.0 else 0.0

    m = majority_threshold(params.M) - 1
    degrees = (m, m, m)

    def transform(mean, g_scalar, g_exponents, z_scalar):
        return interval_transform_series(
            degrees, mean, la, lh, g_scalar, g_exponents, z_scalar
        )

    xi, g0, g1, b, z0, z1 = astuple(point)
    d0, d = params.delta0, params.delta
    # Pre-exit increments are marked in both q and r; the exit increment in
    # q only.  The honest side enters through the scalar z-arguments.
    theta = transform(d, g0 * g1 * b, (1, 1, 0), z0 * z1)
    theta0 = transform(d0, g0 * g1 * b, (1, 1, 0), z0 * z1)
    gamma = transform(d, g1 * b, (1, 0, 0), z1)
    gamma0 = transform(d0, g1 * b, (1, 0, 0), z1)
    gamma_1 = transform(d, g1 * b, (0, 0, 0), z1)
    gamma0_1 = transform(d0, g1 * b, (0, 0, 0), z1)

    one = TruncSeries.constant(1.0, degrees)
    lam = xi * (gamma0_1 - gamma0) + ((xi * xi) * theta0 / (one - xi * theta)) * (
        gamma_1 - gamma
    )
    sigma = sigma_transform(b, rho, params.candidates)
    return sigma * d_operator(lam)


def test_phi_matches_series_reference():
    rng = np.random.default_rng(2026)
    for _ in range(120):
        p = params(
            M=int(rng.integers(4, 31)),
            lambda_a=rng.uniform(0.1, 4.0),
            lambda_h=rng.uniform(0.1, 3.0),
            delta0=rng.uniform(0.2, 3.0),
            delta=rng.uniform(0.2, 3.0),
        )
        xi, g0, g1, z0, z1 = rng.uniform(-1.0, 1.0, 5)
        # E[b^-B] grows like |b|^-n and multiplies the series' round-off
        # along with its value, so keep |b| >= 1/2 for an absolute check.
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)
        point = TransformPoint(xi=xi, g0=g0, g1=g1, b=b, z0=z0, z1=z1)
        rho = rng.uniform()
        assert phi(point, p, rho) == pytest.approx(
            _phi_series(point, p, rho), abs=1e-9
        )


def mp_phi(point, p, rho):
    """``phi`` at 40 digits, with no exponent range to overflow or underflow.

    The pre-exit mass is expanded in closed form rather than by the
    recurrence: with a0 = 1 - xi c and t = r / a0, the coefficient of u^i
    in c0 (1 - r u) / ((1 - r0 u)(a0 - r u)) is
    c0 (r0^i / a0 + (xi c / a0) sum_{j=1..i} r0^(i - j) t^j).
    Each of the thr captures carries one factor b, taken out of the marks
    and into E[b^-B] b^thr = ((1 - rho) b + rho)^n b^(thr - n), so b = 0
    needs no limit.
    """
    with mpmath.workdps(40):
        rates = (p.lambda_a, p.lambda_h, p.delta0, p.delta)
        la, lh, d0, d = (mpmath.mpf(v) for v in rates)
        xi, g0, g1, b, z0, z1 = (mpmath.mpf(v) for v in astuple(point))
        thr, n = majority_threshold(p.M), p.candidates
        y, yp, zp = g1 * b, g0 * g1, z0 * z1

        def transform(g, z, mean):
            return 1 / (1 + la * mean * (1 - g) + lh * mean * (1 - z))

        c0, c = transform(0, zp, d0), transform(0, zp, d)
        r0, r = la * d0 * c0 * yp, la * d * c * yp
        a0 = 1 - xi * c
        t = r / a0
        partial, t_power, r0_power, h = mpmath.mpf(0), mpmath.mpf(1), c0 / a0, []
        for i in range(thr):
            if i:
                t_power *= t
                partial = r0 * partial + t_power
                r0_power *= r0
            h.append(r0_power + c0 * xi * c / a0 * partial)

        def exit_weight(mean):
            """Overshoot weight and ratio of an exit interval."""
            return transform(y, z1, mean), la * mean * transform(0, z1, mean) * g1

        (w0, R0), (w, R) = exit_weight(d0), exit_weight(d)
        lam = xi * w0 * R0**thr + xi**2 * w * mpmath.fsum(
            h[i] * R ** (thr - i) for i in range(thr)
        )
        rho = mpmath.mpf(rho)
        return ((1 - rho) * b + rho) ** n * b ** (thr - n) * lam


def test_phi_matches_mpmath_at_large_swarm():
    # E[b^-B] grows like |b|^-n; at M = 5000, b = 1/2, rho = 0.9 it
    # overflows, and near M = 2150 the mass it multiplies underflows to 0,
    # although their product is far inside the float range.
    rng = np.random.default_rng(31)
    cases = [(5000, 0.5, 0.9), (2150, 0.5, 0.9), (5000, -0.5, 0.9), (5000, 1.0, 0.9)]
    for _ in range(16):
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)
        cases.append((int(rng.integers(4, 5001)), b, rng.uniform()))
    cases.append((20, 0.0, 0.5))  # E[b^-B] is singular; phi is 0
    for case, (M, b, rho) in enumerate(cases):
        p = params(
            M=M,
            lambda_a=rng.uniform(0.2, 3.0),
            lambda_h=rng.uniform(0.0, 2.0) if case % 2 else 0.0,
            delta0=rng.uniform(0.2, 3.0),
            delta=rng.uniform(0.2, 3.0),
        )
        # Positive marks keep the terms of one sign, so the functional is
        # compared relatively, at any magnitude; near 1 at large M, each mark
        # raised to about M/2 stays far from underflow.
        marks = rng.uniform(0.5, 1.0, 5) ** min(1.0, 50 / M)
        point = TransformPoint(*marks[:3], b, *marks[3:])
        want = mp_phi(point, p, rho)
        got = phi(point, p, rho)
        if abs(want) > 1e-290:
            assert got == pytest.approx(float(want), rel=1e-11), case
        else:  # below the normal range: it may only underflow
            assert abs(got) <= 1e-290, case
    # Signed marks make the terms alternate, so each case is compared with
    # the functional at the marks' magnitudes, which bounds every term.
    for case in range(60):
        M = 5000 if case < 6 else int(rng.integers(4, 5001))
        p = params(
            M=M,
            lambda_a=rng.uniform(0.2, 4.0),
            lambda_h=rng.uniform(0.01, 3.0) if case % 4 else 0.0,
            delta0=rng.uniform(0.2, 3.0),
            delta=rng.uniform(0.2, 3.0),
        )
        marks = rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 1.0, 6) ** min(
            1.0, 50 / M
        )
        rho = rng.uniform()
        want = mp_phi(TransformPoint(*marks), p, rho)
        majorant = mp_phi(TransformPoint(*np.abs(marks)), p, rho)
        got = phi(TransformPoint(*marks), p, rho)
        if majorant > 1e-290:
            assert abs(got - want) <= 1e-12 * majorant, case
        else:
            assert abs(got) <= 1e-290, case


def dense_chain_events(p, rho, cap=150):
    """PathwiseEvents by a dense solve over the (attacker, honest) states.

    Pre-exit states are (a, h) with a, h < thr; the step law
    P{x = i, z = j} = C(i + j, i) a^i b^j c is tabulated term by term, with
    attacker jumps cut at ``cap`` past thr + candidates.  The fundamental
    matrix (I - Q)^-1 weighs each pre-exit state by its expected visits.
    prior_safe and E[A_nu] come from the attacker alone.
    """
    thr, n = majority_threshold(p.M), p.candidates
    la, lh = p.lambda_a, p.lambda_h

    def table(d):
        """law[i, j] = P{x = i, z = j} and tail[k, j] = P{x >= k, z = j}."""
        m = 1.0 + (la + lh) * d
        c, a, b = 1.0 / m, la * d / m, lh * d / m
        law = np.array([[math.comb(i + j, i) * a**i * b**j * c for j in range(thr)]
                        for i in range(thr + n + cap)])
        return law, np.cumsum(law[::-1], axis=0)[::-1]

    (first, first_tail), (later, later_tail) = table(p.delta0), table(p.delta)
    states = [(a, h) for a in range(thr) for h in range(thr)]
    Q = np.array([[later[a2 - a, h2 - h] if a2 >= a and h2 >= h else 0.0
                   for a2, h2 in states] for a, h in states])
    visits = np.array([first[a, h] for a, h in states]) @ np.linalg.inv(
        np.eye(len(states)) - Q
    )
    # P{an epoch takes (a, h) to A >= thr + allies, H < thr}
    burst = [
        first_tail[thr + allies].sum()
        + sum(v * later_tail[thr - a + allies, : thr - h].sum()
              for v, (a, h) in zip(visits, states))
        for allies in range(n + 1)
    ]
    weights = [binom_pmf(j, n, rho) for j in range(n + 1)]

    c0, c = 1.0 / (1.0 + la * p.delta0), 1.0 / (1.0 + la * p.delta)
    r0, r = 1.0 - c0, 1.0 - c
    Q1 = np.array([[c * r ** (j - i) if j >= i else 0.0 for j in range(thr)]
                   for i in range(thr)])
    level = np.array([c0 * r0**i for i in range(thr)]) @ np.linalg.inv(
        np.eye(thr) - Q1
    )
    last = [level[i] * r ** (thr - i) + (r0**thr if i == 0 else 0.0)
            for i in range(thr)]
    # The overshoot past thr is geometric with the crossing epoch's ratio.
    mean_exit = thr + r0**thr * la * p.delta0 + (1.0 - r0**thr) * la * p.delta
    return PathwiseEvents(
        burst[0],
        float(np.dot(weights, burst)),
        sum(last[i] for i in range(thr) if i < p.M / 2),
        mean_exit,
    )


@pytest.mark.parametrize("M", [4, 7, 20])
@pytest.mark.parametrize("lambda_h", [0.0, 0.5, 2.0])
def test_pathwise_events_match_dense_chain(M, lambda_h):
    for la, d0, d in ((1.0, 2.0, 0.5), (0.6, 0.4, 1.5), (3.0, 1.0, 1.0)):
        p = params(M=M, lambda_a=la, lambda_h=lambda_h, delta0=d0, delta=d)
        for rho in (0.0, 0.3, 1.0):
            got = pathwise_events(p, rho)
            want = dense_chain_events(p, rho)
            for field in PathwiseEvents.__dataclass_fields__:
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-10, abs=1e-13
                ), field


def mp_honest_race(p):
    """P{A_nu >= thr + j, H_nu < thr}, j = 0..n, at 35 digits.

    The lattice recurrences of ``_honest_race`` taken one attacker row A
    at a time and along H within it, where the sweep runs by anti-diagonals
    in floats.  Rows past thr + n - 1 are summed by their closed form.
    """
    with mpmath.workdps(35):
        rates = (p.lambda_a, p.lambda_h, p.delta0, p.delta)
        la, lh, d0, d = (mpmath.mpf(v) for v in rates)

        def step(mean):
            m = 1 + (la + lh) * mean
            return 1 / m, la * mean / m, lh * mean / m

        (c0, a0, b0), (c, a, b) = step(d0), step(d)
        thr, n = majority_threshold(p.M), p.candidates
        F = W = [mpmath.mpf(0)] * thr
        mass = []
        for A in range(thr + n):
            above_F, above_W, F, W = F, W, [], []
            for H in range(thr):
                f = a0 * above_F[H] + (b0 * F[-1] if H else c0 if A == 0 else 0)
                w = a * above_W[H] + (b * W[-1] if H else 0)
                if A < thr:  # pre-exit: W = c (F + W) + ...
                    w = (w + c * f) / (1 - c)
                F.append(f)
                W.append(w)
            if A >= thr:
                mass.append(mpmath.fsum(F) + mpmath.fsum(W))
        S = T = beyond = mpmath.mpf(0)
        for H in range(thr):
            S = (a0 * F[H] + b0 * S) / (1 - a0)
            T = (a * W[H] + b * T) / (1 - a)
            beyond += S + T
        mass.append(beyond)
        return [mpmath.fsum(mass[j:]) for j in range(n + 1)]


@pytest.mark.parametrize("M", [4, 5, 20, 61, 120])
def test_honest_race_matches_mpmath(M):
    # At lambda_a = 1e8, 1 - a0 cancels to about 1e-8 relative in floats.
    for la, lh, d0, d in ((1.0, 0.5, 1.0, 1.0), (1.0, 0.5, 2.0, 0.5),
                          (0.2, 5.0, 1.0, 1.0), (3.0, 0.1, 0.5, 2.0),
                          (1e8, 0.5, 2.0, 1e-3)):
        p = params(M=M, lambda_a=la, lambda_h=lh, delta0=d0, delta=d)
        want = mp_honest_race(p)
        got = _honest_race(p, majority_threshold(M), p.candidates)
        assert len(got) == len(want) == p.candidates + 1
        for j, (g, w) in enumerate(zip(got.tolist(), want)):
            assert g == pytest.approx(float(w), rel=3e-14, abs=0.0), (la, j)
        rho, n = 0.3, p.candidates
        with mpmath.workdps(35):
            safety = mpmath.fsum(mpmath.binomial(n, j) * mpmath.mpf(rho) ** j
                                 * (1 - mpmath.mpf(rho)) ** (n - j) * w
                                 for j, w in enumerate(want))
        events = pathwise_events(p, rho)
        assert events.burst_regular == pytest.approx(float(want[0]), rel=3e-14)
        assert events.burst_safety == pytest.approx(float(safety), rel=3e-14)


def test_pathwise_events_at_underflowing_rates():
    # (lambda_a + lambda_h) delta underflows, so 1 / (a + b) would overflow:
    # every epoch brings at most one event, attacker or honest alike, and
    # the race is an equal-rate one from (0, 0).
    for rate in (1e-160, 1e-200):
        p = params(lambda_a=rate, lambda_h=rate, delta0=1.0, delta=rate)
        for rho in (0.0, 0.3):
            events = pathwise_events(p, rho)
            assert events.burst_regular == pytest.approx(0.5, rel=1e-14)
            assert events.burst_safety == pytest.approx(
                0.5 * (1.0 - rho) ** p.candidates, rel=1e-14
            )


@pytest.mark.parametrize("M", [20, 121, 1000])
def test_pathwise_events_honest_chain_meets_closed_form(M):
    # As lambda_h -> 0 the (attacker, honest) chain tends to the
    # lambda_h = 0 closed form r0^thr g(r0) + (1 - r0^thr) g(r), g the
    # ally-count PGF; the two burst paths share no code.
    for rho in (0.2, 0.5, 0.9):
        p = params(M=M, lambda_a=1.0, delta0=2.0, delta=0.5)
        closed = pathwise_events(p, rho)
        chain = pathwise_events(params(M=M, lambda_a=1.0, lambda_h=1e-12,
                                       delta0=2.0, delta=0.5), rho)
        assert closed.burst_regular == 1.0
        assert chain.burst_regular == pytest.approx(1.0, abs=1e-9)
        assert chain.burst_safety == pytest.approx(closed.burst_safety, rel=1e-9)
        thr, n = majority_threshold(M), p.candidates
        r0, r = 2.0 / 3.0, 1.0 / 3.0
        expected = r0**thr * (1 - rho + rho * r0) ** n + (1 - r0**thr) * (
            1 - rho + rho * r
        ) ** n
        assert closed.burst_safety == pytest.approx(expected, rel=1e-12)


def test_pathwise_events_edges():
    quiet = pathwise_events(params(lambda_a=0.0, lambda_h=2.0), 0.5)
    assert quiet.burst_regular == quiet.burst_safety == 0.0
    assert quiet.prior_safe == 1.0
    assert math.isnan(quiet.mean_exit_count)
    p = params(lambda_h=1.0, delta0=2.0, delta=0.5)
    # Wald: E[A_nu] = lambda_a (delta0 + (E[nu] - 1) delta)
    assert pathwise_events(p).mean_exit_count == pytest.approx(
        p.lambda_a * (p.delta0 + (expected_exit_index(p) - 1.0) * p.delta), rel=1e-15
    )
    # rho = 0 brings no allies, so Safety is Regular
    events = pathwise_events(p, 0.0)
    assert events.burst_safety == pytest.approx(events.burst_regular, rel=1e-14)
    for rho in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            pathwise_events(p, rho)


def mp_exit_moments(p):
    """E[nu], prior_safe and E[A_nu] at xi = 1, by the short closed form.

    E[nu] = 1 + thr / (lambda_a delta) + (1 - delta0 / delta)(1 - r0^thr);
    its terms cancel to E[nu] from as much as 1e27, which 60 digits absorb.
    prior_safe is 1 at odd M and r0^thr + r (1 - r0^(thr - 1)) at even M,
    and E[A_nu] is Wald's lambda_a (delta0 + (E[nu] - 1) delta).
    """
    with mpmath.workdps(60):
        la, d0, d = (mpmath.mpf(v) for v in (p.lambda_a, p.delta0, p.delta))
        thr = majority_threshold(p.M)
        r0, r = la * d0 / (1 + la * d0), la * d / (1 + la * d)
        nu = 1 + thr / (la * d) + (1 - d0 / d) * (1 - r0**thr)
        prior_safe = 1 if p.M % 2 else r0**thr + r * (1 - r0 ** (thr - 1))
        return nu, mpmath.mpf(prior_safe), la * (d0 + (nu - 1) * d)


def _assert_exit_moments(p):
    want = mp_exit_moments(p)
    events = pathwise_events(p)
    got = (expected_exit_index(p), events.prior_safe, events.mean_exit_count)
    for name, g, w in zip(("nu", "prior_safe", "mean_exit_count"), got, want):
        if w > mpmath.mpf(np.finfo(float).max):
            assert g == math.inf, name
        else:
            assert g == pytest.approx(float(w), rel=1e-15, abs=0.0), name


@pytest.mark.parametrize("M", [4, 5, 20, 121, 1000, 10**6, 10**6 + 1, 10**9, 10**12])
def test_exit_moments_match_mpmath(M):
    for la in (1e-6, 1.0, 1e6):
        for d0 in (1e-6, 1.0, 1e3, 1e8, 1e14):
            for d in (1e-9, 1e-3, 1.0, 1e3):
                _assert_exit_moments(params(M=M, lambda_a=la, delta0=d0, delta=d))
    # prior_safe is about r = 1e-300; E[nu] overflows from M = 4e8 on
    _assert_exit_moments(params(M=M, lambda_a=1e-300, delta0=1e-10, delta=1.0))


@pytest.mark.parametrize("M", [4, 5, 20, 41])
def test_mpmath_exit_moments_meet_chain_oracles(M):
    # The oracle's short closed form against conditioning on the first
    # interval and against the dense attacker chain, which share no algebra.
    for la, d0, d in ((1.0, 2.0, 0.5), (0.6, 0.4, 1.5), (3.0, 1.0, 1.0),
                      (1e-3, 5.0, 1.0)):
        p = params(M=M, lambda_a=la, delta0=d0, delta=d)
        nu, prior_safe, mean_exit = (float(v) for v in mp_exit_moments(p))
        assert nu == pytest.approx(first_step_expected_nu(p), rel=1e-12)
        chain = dense_chain_events(p, 0.0)
        assert prior_safe == pytest.approx(chain.prior_safe, rel=1e-10)
        assert mean_exit == pytest.approx(chain.mean_exit_count, rel=1e-10)


def test_expected_exit_index_at_float_edges():
    # lambda_a delta0 underflows to 0 and E[nu], about 1.1e401, overflows
    assert expected_exit_index(params(lambda_a=1e-200, delta0=1e-200,
                                      delta=1e-200)) == math.inf
    # lambda_a delta0 overflows: the first interval exits
    p = params(lambda_a=1e300, delta0=1e10, delta=1e-300)
    assert expected_exit_index(p) == 1.0
    assert pathwise_events(p, 0.5).prior_safe == 1.0


def test_exit_moments_need_no_loop_at_any_swarm():
    # O(1) in M: an array of M/2 levels would not fit in memory here.
    p = params(M=10**12, lambda_a=1.0, delta0=2.0, delta=0.5)
    start = time.perf_counter()
    for _ in range(100):
        expected_exit_index(p)
        pathwise_events(p)
    assert (time.perf_counter() - start) / 100 < 1e-3
