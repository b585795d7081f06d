"""The benchmark's oracles against 50-digit mpmath at small M."""

import math

import mpmath
import pytest

from perfbench.oracles import CostOracle, first_step_expected_nu


def mp_tail(k, mean):
    """P{X >= k}, X ~ Poisson(mean), as 1 minus a 50-digit partial sum."""
    m = mpmath.mpf(mean)
    return 1 - sum(m**j / mpmath.factorial(j) for j in range(k)) * mpmath.exp(-m)


def mp_cdf(k, mean):
    return 1 - mp_tail(k + 1, mean)


@pytest.mark.parametrize(
    "M, lambda_a, delta0, delta, nu, rho",
    [(8, 1.0, 1.0, 1.0, 6.0, 0.3), (12, 1.5, 2.0, 0.5, 4.0, 0.7),
     (20, 0.8, 1.0, 1.2, 9.5, 1.0), (9, 2.0, 0.5, 0.5, 1.0, 0.0)],
)
def test_cost_oracle_matches_mpmath(M, lambda_a, delta0, delta, nu, rho):
    oracle = CostOracle(M, 1500.0, lambda_a, delta0, delta, nu, 3.0)
    got = {k: float(v[0]) for k, v in oracle.breakdown(rho).items()}
    with mpmath.workdps(50):
        mean = lambda_a * (delta0 + (nu - 1.0) * delta)
        thr, n = M // 2 + 1, M // 2 - 1
        q0 = mp_tail(thr, mean)
        r = mpmath.mpf(rho)
        q1 = sum(mpmath.binomial(n, j) * r**j * (1 - r) ** (n - j) * mp_tail(thr + j, mean)
                 for j in range(n + 1))
        cutoff = math.floor(M / 2 - lambda_a * delta)
        p = mp_cdf(cutoff, mean) if cutoff >= 0 else mpmath.mpf(0)
        c = mpmath.mpf(3.0) * (mpmath.mpf(M) / 2 - 1) * r
        V = mpmath.mpf(1500.0) * M
        total = (c * (1 - q1) + (c + V) * q1) * p + V * q0 * (1 - p)
    assert got["q0"] == pytest.approx(float(q0), abs=1e-15)
    assert got["q1"] == pytest.approx(float(q1), abs=1e-15)
    assert got["p_prior"] == pytest.approx(float(p), abs=1e-15)
    assert got["total"] == pytest.approx(float(total), rel=1e-13)


def mp_expected_nu(M, lambda_a, delta0, delta):
    """E[nu] = sum_k P{nu > k} by propagating the pre-exit count law.

    Captures per exponential interval of mean d are geometric with ratio
    lambda_a d / (1 + lambda_a d); the law is truncated below the
    threshold, so the kept mass is P{nu > k}.
    """
    thr = M // 2 + 1

    def geometric(d):
        q = mpmath.mpf(lambda_a) * d / (1 + mpmath.mpf(lambda_a) * d)
        return [(1 - q) * q**k for k in range(thr)]

    with mpmath.workdps(50):
        first, later = geometric(mpmath.mpf(delta0)), geometric(mpmath.mpf(delta))
        law = first
        total = mpmath.mpf(1)  # P{nu > 0}
        while True:
            mass = sum(law)
            total += mass
            if mass < mpmath.mpf(10) ** -40:
                return float(total)
            law = [sum(law[i] * later[k - i] for i in range(k + 1)) for k in range(thr)]


@pytest.mark.parametrize(
    "M, lambda_a, delta0, delta",
    [(8, 1.0, 1.0, 1.0), (8, 1.0, 2.0, 0.5), (12, 1.5, 0.5, 2.0), (20, 0.7, 3.0, 1.0)],
)
def test_first_step_expected_nu_matches_mpmath(M, lambda_a, delta0, delta):
    assert first_step_expected_nu(M, lambda_a, delta0, delta) == pytest.approx(
        mp_expected_nu(M, lambda_a, delta0, delta), rel=1e-13
    )


@pytest.mark.parametrize("M, lambda_a, delta", [(8, 1.0, 1.0), (40, 1.0, 0.5),
                                                (121, 2.5, 0.3), (1000, 1.0, 1.0)])
def test_first_step_reduces_to_closed_form_when_intervals_match(M, lambda_a, delta):
    expected = 1.0 + (M // 2 + 1) / (lambda_a * delta)
    assert first_step_expected_nu(M, lambda_a, delta, delta) == pytest.approx(
        expected, rel=1e-12
    )
