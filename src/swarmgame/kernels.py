"""Numerically stable Poisson and binomial probability kernels.

The single-rho burst probabilities and ally weights reduce to these four
functions; ``model._CostCurve`` calls ``pdtrc`` and ``gammaln`` on arrays
itself.  pmf evaluation happens in log space so that node counts in the
hundreds cannot overflow a float; the cdf and the tail are regularized
incomplete gamma functions (``scipy.special.pdtr`` and ``pdtrc``), which
neither underflow at large means nor cancel to zero in the far tail.
"""

import math

from scipy.special import pdtr, pdtrc

__all__ = ["pois_pmf", "pois_cdf", "pois_tail", "binom_pmf"]


def pois_pmf(k: int, mean: float) -> float:
    """P{X = k} for X ~ Poisson(mean)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


def pois_cdf(k: int, mean: float) -> float:
    """P{X <= k} for X ~ Poisson(mean); 0 for k < 0."""
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if k < 0:
        return 0.0
    return float(pdtr(k, mean))


def pois_tail(k: int, mean: float) -> float:
    """P{X >= k} for X ~ Poisson(mean), computed directly, not as 1 - cdf."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if k == 0:
        return 1.0
    return float(pdtrc(k - 1, mean))


def binom_pmf(j: int, n: int, p: float) -> float:
    """P{B = j} for B ~ Binomial(n, p)."""
    if j < 0 or n < 0:
        raise ValueError(f"j and n must be nonnegative, got j={j}, n={n}")
    if j > n:
        raise ValueError(f"j must not exceed n, got j={j}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 1.0 if j == 0 else 0.0
    if p == 1.0:
        return 1.0 if j == n else 0.0
    log_coef = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
    return math.exp(log_coef + j * math.log(p) + (n - j) * math.log1p(-p))
