"""Numerically stable Poisson and binomial probability kernels.

The single-rho burst probabilities and ally weights reduce to the four
scalar functions; a cost curve and ``pathwise_events`` take their tails
vectors from ``pois_tails`` and average them over the allies with
``binomial_mixture``.  Only ``math`` and numpy are used.

Every pmf is Loader's saddle-point form, the algorithm behind R's
``dpois`` and ``dbinom`` (C. Loader, "Fast and Accurate Computation of
Binomial Probabilities", 2000):

    P{X = k} = exp(-stirlerr(k) - bd0(k, mean)) / sqrt(2 pi k),

where stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k) is the error of
Stirling's formula and bd0(x, m) = x log(x/m) + m - x is summed as a
series near x = m, so no large terms cancel: it is within a few ulp at
any k, where k log(mean) - mean - lgamma(k + 1) is 1e-11 off at k = 10^5.

A Poisson cdf or tail is a sum of pmfs, taken directly on the side of
the mean where it is the smaller one, smallest terms first, and as 1
minus the other side's sum where it is not: so it neither underflows at
large means nor cancels to zero in the far tail.  One table per mean
holds both sums over a closed-form support, outside which every pmf is
0.0 in float64; calls share the table of the last mean asked, and counts
past the support need none.

A binomial cdf (``binom_cdfs``) is tabled the same way, over a window
of counts outside which every pmf is 0.0, from Loader's pmf at the mode,
and only where a count lies inside it.

A binomial mixture's weights fall away from their mode by the ratio
recurrence too, from a mode weight of 2^600, and are divided by their
mass: no log-space terms of size n round them.
"""

import functools
import math
from typing import Callable

import numpy as np

__all__ = [
    "pois_pmf",
    "pois_cdf",
    "pois_tail",
    "pois_tails",
    "binom_pmf",
    "binom_cdfs",
    "check_binom_cdfs",
    "binomial_mixture",
]

# Binomial weights a mixture evaluates at once: 8 MB of float64 per
# array of a block, so its memory stays bounded at any n.
_BLOCK_ELEMENTS = 1 << 20

# Most counts ``binom_cdfs`` tables, about 64 bytes each while it builds.
MAX_BINOM_TABLE = 1 << 20

# A binomial window that reaches further than this from its mode takes
# each step of its ratio recurrence as 1 minus the step's distance from 1.
_NEAR_MODE = 1 << 10

# The ratio recurrences run on pmfs times 2^600, so none they table falls
# to a subnormal, where a step by a ratio above 1/2 would round back to
# the same value; scaling by a power of two leaves normal values exact.
_SCALE = 2.0**600

# stirlerr(k) for k = 0..15 (Loader's table; k = 0 is never read).
_STIRLERR = np.array([
    0.0,
    0.0810614667953272582196702,
    0.0413406959554092940938221,
    0.02767792568499833914878929,
    0.02079067210376509311152277,
    0.01664469118982119216319487,
    0.01387612882307074799874573,
    0.01189670994589177009505572,
    0.010411265261972096497478567,
    0.009255462182712732917728637,
    0.008330563433362871256469318,
    0.007573675487951840794972024,
    0.006942840107209529865664152,
    0.006408994188004207068439631,
    0.005951370112758847735624416,
    0.005554733551962801371038690,
])


def _stirlerr(k: int) -> float:
    """stirlerr(k) at a count k >= 1: Loader's table up to 15, then five
    terms of the series in 1/k.  Pmfs call it in loops, so it takes no
    numpy call beyond the table's index."""
    if k <= 15:
        return float(_STIRLERR[k])
    k = float(k)
    kk = k * k
    return (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk
    ) / k


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x for x >= 0, m > 0, by Loader's series near x = m.

    The series runs where |x - m| < (x + m)/3, wider than R's 1/10: there
    x log(x/m) and x - m nearly cancel, and the series' error stays a few
    ulp of bd0 where that difference would lose about x * 2^-53.
    """
    d = x - m
    if 3.0 * abs(d) >= x + m:
        if x == 0.0:
            return m
        ratio = x / m
        # x / m overflows where m is tiny (subnormal, say); its logs do not.
        log_ratio = math.log(ratio) if ratio < math.inf else math.log(x) - math.log(m)
        return x * log_ratio + m - x
    # With v = d/(x + m): d*v + 2x (v^3/3 + v^5/5 + ...), in powers of v^2.
    v = d / (x + m)
    total = d * v
    term = 2.0 * x * v
    v *= v
    j = 3
    while True:
        term *= v
        bigger = total + term / j
        if bigger == total:
            return total
        total = bigger
        j += 2


def _pmf(k: int, mean: float) -> float:
    """Loader's P{X = k}, X ~ Poisson(mean), for k >= 0 and mean > 0."""
    if k == 0:
        return math.exp(-mean)
    return math.exp(-_stirlerr(k) - _bd0(k, mean)) / math.sqrt(2.0 * math.pi * k)


def pois_pmf(k: int, mean: float) -> float:
    """P{X = k} for X ~ Poisson(mean)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return _pmf(k, mean)


def _support_edges(mean: float) -> tuple[int, int]:
    """Counts below and above which every pmf of the mean is 0.0 in float64.

    A pmf is at most exp(-bd0(k, mean)), and exp(-750) is 0.0.  With u the
    count's distance from the mean relative to it, bd0 = mean h(u), and h
    is at least u^2 / (2 + 2u/3) above the mean (Bernstein's bound) and
    u^2 / (2 - 2u/3) below it (term by term in h = sum_j u^j / (j (j - 1))),
    so bd0 passes 750 by k = mean + 250 -+ sqrt(250^2 + 1500 mean).  Both
    are counted in integers from floor(mean) and rounded outwards, so they
    hold at any mean, even where a float cannot tell them from the mean.
    """
    m = math.floor(mean)
    s = math.isqrt(250**2 + 1500 * (m + 1)) + 1
    return max(m + 250 - s, 0), m + 251 + s


def _pois_table(mean: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(bottom, P{X < k}, P{X >= k} for k = bottom..top + 1), mean >= 0.

    [bottom, top] is ``_support_edges``: outside it every pmf is 0.0 in
    float64.  The pmfs are summed on each side of s = floor(mean) + 1
    (``_side_sums``).
    """
    if mean == 0.0:
        return 0, np.array([0.0, 1.0]), np.array([1.0, 0.0])
    s = math.floor(mean) + 1
    bottom, top = _support_edges(mean)
    n = s - bottom  # pmf[i] is P{X = bottom + i}; pmf[:n] lies below s
    # Exact at s - 1 and s, the pmfs fall away from the mean through the
    # ratio recurrence pmf(c + 1) = pmf(c) mean/(c + 1), downwards from
    # s - 1 and upwards from s, so a count's pmf depends only on the count
    # and the mean.  Two roundings a step add up like a random walk; an
    # exact pmf far out would carry its exponent's rounding, bd0 * 2^-53.
    pmf = np.empty(top + 1 - bottom)
    counts = np.arange(bottom + 1.0, top + 1.0)
    np.divide(counts[: n - 1], mean, out=pmf[: n - 1])
    np.divide(mean, counts[n:], out=pmf[n + 1 :])
    pmf[n - 1], pmf[n] = _pmf(s - 1, mean) * _SCALE, _pmf(s, mean) * _SCALE
    np.multiply.accumulate(pmf[n - 1 :: -1], out=pmf[n - 1 :: -1])
    np.multiply.accumulate(pmf[n:], out=pmf[n:])
    return bottom, *_side_sums(pmf, n)


def _side_sums(pmf: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P{X < k}, P{X >= k} for k = bottom..top + 1) from the pmfs of
    bottom..top times ``_SCALE``, the first n of them those below s =
    floor(mean) + 1.

    Those n are summed upwards from bottom, which gives P{X < k} for k <=
    s, and the rest downwards from top, which gives P{X >= k} for k >= s:
    each is the smaller side, smallest terms first, and the other side is
    1 minus it.  The sums are scaled back once, so a sum below the normal
    range is rounded once.
    """
    sums = np.zeros((2, pmf.size + 1))
    below, tail = sums
    np.add.accumulate(pmf[:n], out=below[1 : n + 1])
    np.add.accumulate(pmf[: n - 1 : -1], out=tail[-2 : n - 1 : -1])
    sums /= _SCALE
    np.subtract(1.0, below[:n], out=tail[:n])
    np.subtract(1.0, tail[n + 1 :], out=below[n + 1 :])
    return below, tail


# Calls ask one mean for many counts in a row (``burst_prob_safety`` asks
# for every tail of a curve, and a curve's set-up asks its mean three
# times), so all calls share the table of the last mean asked; a call for
# another mean builds its own, as in a fresh process.
_cached_table = functools.lru_cache(maxsize=1)(_pois_table)

_ZERO, _ONE = np.zeros(1), np.ones(1)


def _table(mean: float, lo: int, hi: int) -> tuple[int, np.ndarray, np.ndarray]:
    """A table in ``_pois_table``'s form for the counts lo..hi of the mean.

    Past ``_support_edges`` every pmf is 0.0, so where all the counts lie
    past one of them, their sums are 0 and 1, as in the mean's table, and
    a one-entry table gives them without building that one: at a mean of
    10^13 it would span 2.5 * 10^8 counts, while a swarm of 20 asks for
    counts far below them.
    """
    if not mean >= 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    mean = float(mean)
    if mean == math.inf:  # every count lies below it
        return 0, _ZERO, _ONE
    bottom, top = _support_edges(mean)
    if hi <= bottom:
        return 0, _ZERO, _ONE
    if lo > top:
        return 0, _ONE, _ZERO
    return _cached_table(mean)


def _scalar_sums(k: int, mean: float) -> tuple[float, float]:
    """(P{X < k}, P{X >= k}) for X ~ Poisson(mean)."""
    bottom, below, tail = _table(mean, k, k)
    i = min(max(k - bottom, 0), below.size - 1)
    return float(below[i]), float(tail[i])


def pois_cdf(k: int, mean: float) -> float:
    """P{X <= k} for X ~ Poisson(mean); 0 for k < 0."""
    return _scalar_sums(k + 1, mean)[0]


def pois_tail(k: int, mean: float) -> float:
    """P{X >= k} for X ~ Poisson(mean); above the mean a direct sum.

    Only at or below the mean, where it is at least about 1/2, is it
    1 - P{X < k}, so the far tail never cancels.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return _scalar_sums(k, mean)[1]


def pois_tails(k: np.ndarray, mean: float) -> np.ndarray:
    """``pois_tail`` at each count of an array of nonnegative integers."""
    k = np.asarray(k)
    lo, hi = (int(k.min()), int(k.max())) if k.size else (0, -1)
    bottom, _, tail = _table(mean, lo, hi)
    return tail.take(k - bottom, mode="clip")


def binom_pmf(j: int, n: int, p: float) -> float:
    """P{B = j} for B ~ Binomial(n, p), in Loader's saddle-point form."""
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
    q = 1.0 - p
    if j == 0:
        return math.exp(n * math.log1p(-p))
    if j == n:
        return math.exp(n * math.log(p))
    log_w = (
        _stirlerr(n)
        - _stirlerr(j)
        - _stirlerr(n - j)
        - _bd0(j, n * p)
        - _bd0(n - j, n * q)
    )
    return math.exp(log_w) * math.sqrt(n / j / (n - j) / (2.0 * math.pi))


def _binom_edges(n: int, p: float) -> tuple[int, int]:
    """Counts below and above which every pmf of Binomial(n, p) is 0.0 in
    float64.

    A pmf is at most the tail it ends, and by Bernstein's inequality a tail
    at t from the mean n p is at most exp(-t^2 / (2 (n p q + t/3))), below
    exp(-750), 0.0, once t > 250 + sqrt(250^2 + 1500 n p q), the constant
    of ``_support_edges``.  With p = a/b exactly, n p and n p q are counted
    in integers and rounded outwards, so both edges hold at any n.
    """
    a, b = p.as_integer_ratio()
    m = n * a // b
    s = math.isqrt(250**2 + 1500 * -(-n * a * (b - a) // (b * b))) + 1
    return max(m - 250 - s, 0), min(m + 251 + s, n)


@functools.lru_cache(maxsize=1)  # a simulator run asks one (n, p) throughout
def _binom_table(n: int, p: float) -> tuple[int, np.ndarray]:
    """(bottom, P{B < k} for k = bottom..top + 1), B ~ Binomial(n, p).

    [bottom, top] is ``_binom_edges``.  Loader's pmf at the mode, clipped
    into it, times ``_SCALE``, falls away through the ratio recurrence
    pmf(k + 1) = pmf(k) (n - k) p / ((k + 1) q) both ways, as
    ``_pois_table`` takes its pmfs, and they are summed on each side of
    floor(n p) + 1 (``_side_sums``).  Read only.

    The rounding of q = 1 - p would enter each step of that form alike, so
    a pmf's error would grow with its distance from the mode (1.1e-13 at
    the mean of Binomial(10^12, 1e-5)); Loader's pmf off the mode carries
    the same error, so no anchor can mend it.  Where the window reaches
    past ``_NEAR_MODE`` counts from the mode, each step is taken as 1 -
    (k - c) / (k q) above the mode and 1 - (c - k - 1) / ((n - k) p) below
    it, with c = (n + 1) p in two floats: q's rounding then scales only the
    step's distance from 1, and the steps' roundings no longer add up in
    one direction.  A window nearer the mode keeps the first form.
    """
    bottom, top = _binom_edges(n, p)
    a, b = p.as_integer_ratio()
    mode = min(max((n + 1) * a // b, bottom), top) - bottom
    q = 1.0 - p
    pmf = np.empty(top + 1 - bottom)
    steps = np.arange(pmf.size, dtype=float)
    counts, rest = bottom + steps, float(n - bottom) - steps  # k and n - k
    down, up = pmf[:mode], pmf[mode + 1 :]
    if max(down.size, up.size) <= _NEAR_MODE:
        np.divide((counts[:mode] + 1.0) * q, rest[:mode] * p, out=down)
        np.divide((rest[mode + 1 :] + 1.0) * p, counts[mode + 1 :] * q, out=up)
    else:
        # c = (n + 1) p = high + low, each an int ratio rounded once.
        exact = (n + 1) * a  # c times b
        high = exact / b
        h, d = high.as_integer_ratio()
        low = (exact * d - h * b) / (b * d)
        np.divide((high - (counts[:mode] + 1.0)) + low, rest[:mode] * p, out=down)
        np.divide((counts[mode + 1 :] - high) - low, counts[mode + 1 :] * q, out=up)
        np.subtract(1.0, down, out=down)
        np.subtract(1.0, up, out=up)
    pmf[mode] = binom_pmf(bottom + mode, n, p) * _SCALE
    np.multiply.accumulate(pmf[mode::-1], out=pmf[mode::-1])
    np.multiply.accumulate(pmf[mode:], out=pmf[mode:])
    below = _side_sums(pmf, min(n * a // b + 1, top + 1) - bottom)[0]
    below.flags.writeable = False
    return bottom, below


def check_binom_cdfs(n: int, p: float, largest: int) -> None:
    """Raise the ValueError ``binom_cdfs`` raises for Binomial(n, p) when
    asked a count no larger than ``largest`` inside its window, which is
    refused past ``MAX_BINOM_TABLE`` counts."""
    bottom, top = _binom_edges(n, p)
    if largest >= bottom and top - bottom >= MAX_BINOM_TABLE:
        raise ValueError(f"the cdf of Binomial({n}, {p}) spans {top + 1 - bottom} "
                         f"counts, more than the {MAX_BINOM_TABLE} it may table")


def binom_cdfs(k: np.ndarray, n: int, p: float) -> np.ndarray:
    """P{B <= k} for B ~ Binomial(n, p) at each count of an integer array.

    Each count below ``_binom_edges`` reads 0 and each above it 1; only
    where a count lies inside is the window tabled (``_binom_table``, whose
    ends read exactly 0 and 1), and one of more than ``MAX_BINOM_TABLE``
    counts is refused (``check_binom_cdfs``): at n = 2^62, p = 1/2 it would
    span 10^11.
    """
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"need n >= 0 and p in [0, 1], got n={n}, p={p}")
    k = np.asarray(k)
    bottom, top = _binom_edges(n, p)
    if not ((k >= bottom) & (k <= top)).any():
        return (k > top).astype(float)
    check_binom_cdfs(n, p, int(k.max()))
    bottom, below = _binom_table(n, float(p))
    return below.take(k + 1 - bottom, mode="clip")


def binomial_mixture(values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map rho -> E[values[B]], B ~ Binomial(len(values) - 1, rho).

    The returned function takes a 1-D array of rho in [0, 1].  A row's
    weights are its binomial pmfs times a constant, by the ratio
    recurrence w(j)/w(j - 1) = rho/g(j), g(j) = (1 - rho) j/(n + 1 - j),
    as ``_pois_table`` takes its pmfs.  With m = max(rho, g), the weights
    rise by rho/m into each column and fall by g/m out of it: every step
    is at most 1, so the weights fall away from the mode, whose weight is
    ``_SCALE`` exactly, and no step divides by 1 - rho.  At rho = 0 and
    rho = 1 every other weight is 0, so the result is values[0] and
    values[-1].  Each row is reduced on its own to its weighted sum and
    its weight mass, and the result is their ratio, so one rho's result
    does not depend on the other rho of its call.
    """
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    j = np.arange(1.0, n + 1.0)
    fall = j / (n + 1.0 - j)
    rows = max(1, _BLOCK_ELEMENTS // (n + 1))

    def mixture(rho: np.ndarray) -> np.ndarray:
        out = np.empty(rho.size)
        for start in range(0, rho.size, rows):
            r = rho[start : start + rows, None]
            g = (1.0 - r) * fall
            m = np.maximum(g, r)
            w = np.empty((r.size, n + 1))
            w[:, 0] = _SCALE
            np.divide(r, m, out=w[:, 1:])
            down = np.divide(g, m, out=g)
            np.multiply.accumulate(w, axis=1, out=w)
            np.multiply.accumulate(down[:, ::-1], axis=1, out=down[:, ::-1])
            w[:, :-1] *= down
            out[start : start + rows] = (w * values).sum(axis=1) / w.sum(axis=1)
        return out

    return mixture
