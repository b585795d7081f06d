import numpy as np
import pytest

from swarmgame.series import TruncSeries, d_operator, series_div, series_mul


def var(axis, degrees=(3, 3, 3)):
    exps = [0, 0, 0]
    exps[axis] = 1
    return TruncSeries.monomial(1.0, tuple(exps), degrees)


def random_series(rng, degrees=(3, 3, 3), unit_constant=False):
    coef = rng.normal(size=tuple(d + 1 for d in degrees))
    if unit_constant:
        coef[0, 0, 0] = 1.0
    return TruncSeries(coef)


def test_mul_hand_expansion():
    q, r = var(0), var(1)
    product = (1 + q) * (1 + r)
    expected = np.zeros((4, 4, 4))
    expected[0, 0, 0] = expected[1, 0, 0] = expected[0, 1, 0] = expected[1, 1, 0] = 1.0
    np.testing.assert_allclose(product.coefficients, expected, atol=1e-15)


def test_mul_identity():
    rng = np.random.default_rng(0)
    a = random_series(rng)
    one = TruncSeries.constant(1.0, a.degrees)
    np.testing.assert_allclose((a * one).coefficients, a.coefficients, atol=1e-14)


def test_mul_truncation_semantics():
    degrees = (2, 0, 0)
    q = TruncSeries.monomial(1.0, (1, 0, 0), degrees)
    a = 1 + q + q * q
    b = 1 - q
    product = a * b
    # (1+q+q^2)(1-q) = 1 - q^3, and q^3 falls off the truncation
    np.testing.assert_allclose(
        product.coefficients.ravel(), [1.0, 0.0, 0.0], atol=1e-15
    )


def test_mul_matches_fftconvolve():
    # scipy is a test-only oracle: the full linear convolution, truncated.
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(3)
    for degrees in [(0, 0, 0), (3, 3, 3), (11, 11, 11), (2, 0, 6), (1, 4, 0)]:
        for _ in range(5):
            a, b = random_series(rng, degrees), random_series(rng, degrees)
            full = fftconvolve(a.coefficients, b.coefficients)
            want = full[tuple(slice(d + 1) for d in degrees)]
            np.testing.assert_allclose(
                series_mul(a, b).coefficients, want, rtol=0.0, atol=1e-12
            )


def test_div_self():
    rng = np.random.default_rng(1)
    a = random_series(rng, unit_constant=True)
    one = TruncSeries.constant(1.0, a.degrees)
    np.testing.assert_allclose(
        series_div(a, a).coefficients, one.coefficients, atol=1e-10
    )


def test_div_geometric():
    degrees = (3, 0, 0)
    one = TruncSeries.constant(1.0, degrees)
    q = TruncSeries.monomial(1.0, (1, 0, 0), degrees)
    geo = series_div(one, one - q)
    np.testing.assert_allclose(geo.coefficients.ravel(), [1, 1, 1, 1], atol=1e-12)


def test_div_mul_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = random_series(rng)
        b = random_series(rng, unit_constant=True)
        back = series_mul(series_div(a, b), b)
        np.testing.assert_allclose(back.coefficients, a.coefficients, atol=1e-10)


def test_div_singular():
    a = TruncSeries.constant(1.0, (2, 2, 2))
    b = TruncSeries.monomial(1.0, (1, 0, 0), (2, 2, 2))
    with pytest.raises(ZeroDivisionError):
        series_div(a, b)


def test_degree_mismatch():
    a = TruncSeries.constant(1.0, (2, 2, 2))
    b = TruncSeries.constant(1.0, (3, 3, 3))
    with pytest.raises(ValueError):
        series_mul(a, b)


def test_ring_laws():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (random_series(rng) for _ in range(3))
        np.testing.assert_allclose(
            (a * b).coefficients, (b * a).coefficients, atol=1e-12
        )
        np.testing.assert_allclose(
            ((a * b) * c).coefficients, (a * (b * c)).coefficients, atol=1e-12
        )
        np.testing.assert_allclose(
            (a * (b + c)).coefficients, (a * b + a * c).coefficients, atol=1e-12
        )


def test_d_operator_constant():
    assert d_operator(TruncSeries.constant(2.5, (1, 1, 1))) == 2.5


def test_d_operator_hand_case():
    q, r = var(0, (1, 1, 1)), var(1, (1, 1, 1))
    assert d_operator(q + q * r) == pytest.approx(2.0, abs=1e-12)


def test_d_operator_geometric_partial_sum():
    degrees = (4, 0, 0)
    one = TruncSeries.constant(1.0, degrees)
    half_q = TruncSeries.monomial(0.5, (1, 0, 0), degrees)
    f = series_div(one, one - half_q)
    assert d_operator(f) == pytest.approx(1.9375, abs=1e-10)


def test_d_operator_linear():
    rng = np.random.default_rng(4)
    f, g = random_series(rng), random_series(rng)
    alpha, beta = 1.7, -0.3
    assert d_operator(alpha * f + beta * g) == pytest.approx(
        alpha * d_operator(f) + beta * d_operator(g), abs=1e-12
    )
