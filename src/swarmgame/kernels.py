"""Numerically stable Poisson and binomial probability kernels.

The single-rho burst probabilities and ally weights reduce to the four
scalar functions; a cost curve and ``pathwise_events`` take their tails
vectors from ``pois_tails`` and average them over the allies with
``binomial_mixture``.  This is the package's only ``scipy.special``
import.  pmf evaluation happens in log space so that node counts in the
hundreds cannot overflow a float; the cdf and the tail are regularized
incomplete gamma functions (``scipy.special.pdtr`` and ``pdtrc``), which
neither underflow at large means nor cancel to zero in the far tail.
"""

import math
from typing import Callable

import numpy as np
from scipy.special import gammaln, pdtr, pdtrc

__all__ = [
    "pois_pmf",
    "pois_cdf",
    "pois_tail",
    "pois_tails",
    "binom_pmf",
    "binomial_mixture",
]

# Binomial weights a mixture evaluates at once: 8 MB of float64 per
# block, so its memory stays bounded at any n.
_BLOCK_ELEMENTS = 1 << 20


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


def pois_tails(k: np.ndarray, mean: float) -> np.ndarray:
    """``pois_tail`` at each count of an array of nonnegative integers."""
    k = np.asarray(k)
    return np.where(k == 0, 1.0, pdtrc(k - 1, mean))


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


def binomial_mixture(values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map rho -> E[values[B]], B ~ Binomial(len(values) - 1, rho).

    The rho-free log binomial coefficients are computed here, once; the
    returned function takes a 1-D array of rho in [0, 1].  For interior
    rho the weights come from log space, and each row is reduced on its
    own to its weighted sum and its weight mass, so one rho's result does
    not depend on the other rho of the call.  The result is their ratio:
    dividing by the mass cancels the rounding that the log coefficients
    share, which leaves it within about 1e-12 of exact at n = 5 * 10^4,
    where summing ``binom_pmf`` weights is about 5e-11 off.  At rho = 0
    and rho = 1 the single weight is exact, so the result is values[0]
    and values[-1].
    """
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    j = np.arange(n + 1)
    log_coef = gammaln(n + 1) - gammaln(j + 1) - gammaln(n + 1 - j)
    rows = max(1, _BLOCK_ELEMENTS // (n + 1))

    def mixture(rho: np.ndarray) -> np.ndarray:
        # Rows at rho = 0 and rho = 1 hold one weight, exactly 1.
        out = np.where(rho == 0.0, values[0], values[-1])
        inner = np.flatnonzero((rho > 0.0) & (rho < 1.0))
        for start in range(0, inner.size, rows):
            block = inner[start : start + rows]
            log_w = np.multiply.outer(np.log(rho[block]), j)
            log_w += np.multiply.outer(np.log1p(-rho[block]), n - j)
            log_w += log_coef
            w = np.exp(log_w, out=log_w)
            out[block] = (w * values).sum(axis=1) / w.sum(axis=1)
        return out

    return mixture
