import ast
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import swarmgame
from swarmgame import kernels
from swarmgame.kernels import (
    MAX_BINOM_TABLE,
    _binom_edges,
    _pmf,
    _support_edges,
    binom_cdfs,
    binom_pmf,
    binomial_mixture,
    check_binom_cdfs,
    pois_cdf,
    pois_pmf,
    pois_tail,
    pois_tails,
)

mpmath.mp.dps = 50


def mp_pois_pmf(k, mean):
    """High-precision direct evaluation of mean^k/k! * exp(-mean)."""
    m = mpmath.mpf(mean)
    return m**k / mpmath.factorial(k) * mpmath.exp(-m)


def test_pmf_empty_process():
    assert pois_pmf(0, 0.0) == 1.0


def test_pmf_at_zero():
    assert pois_pmf(0, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-15)


def test_pmf_against_high_precision_oracle():
    for k, mean in [(2, 3.0), (0, 0.5), (7, 2.5), (150, 120.0), (400, 350.0)]:
        expected = float(mp_pois_pmf(k, mean))
        assert pois_pmf(k, mean) == pytest.approx(expected, rel=1e-12)


def test_pmf_k2_mean3_closed_form():
    assert pois_pmf(2, 3.0) == pytest.approx(4.5 * math.exp(-3.0), rel=1e-14)


@pytest.mark.parametrize("k", range(1, 16))
def test_pmf_at_each_tabled_stirling_error(k):
    # Counts up to 15 read Loader's table of Stirling-formula errors.
    for mean in (0.3, float(k), 40.0):
        expected = mp_pois_pmf(k, mean)
        assert pois_pmf(k, mean) == pytest.approx(float(expected), rel=1e-14)


@pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
def test_pmf_and_binom_pmf_match_mpmath_at_large_counts(n):
    """k log(mean) - mean - lgamma(k + 1) was 6.8e-10 off at k = 10^6."""
    for k, mean in [(n, n), (n + 3 * math.isqrt(n), n), (n, 0.75 * n), (n, 1.25 * n)]:
        expected = mp_pois_pmf(k, mean)
        assert pois_pmf(k, float(mean)) == pytest.approx(float(expected), rel=1e-13)
    for j, p in [(n // 2, 0.5), (n // 4 + 7, 0.25), (n // 10, 0.125)]:
        expected = mpmath.binomial(n, j) * mpmath.mpf(p) ** j * (1 - mpmath.mpf(p)) ** (n - j)
        assert binom_pmf(j, n, p) == pytest.approx(float(expected), rel=1e-13)


@pytest.mark.parametrize("e", [520, 1000])
def test_pmf_and_binom_pmf_at_counts_whose_square_overflows(e):
    """Past about 1.3e154 a count's square exceeds the float range, and
    2 pi j (n - j) overflows from n of about 1e154.  The counts are powers
    of two, so each is its float mean exactly: 10**160 against the float
    1e160 would be 6.5e63 standard deviations apart."""
    k = 2**e
    with mpmath.workdps(400):
        expected = mpmath.exp(k * mpmath.log(k) - k - mpmath.loggamma(k + 1))
        assert pois_pmf(k, float(k)) == pytest.approx(float(expected), rel=1e-15)
        for j, n, p in [(k, 2 * k, 0.5), (k // 4, k, 0.25), (k // 2, k, 0.25)]:
            expected = mpmath.exp(
                mpmath.loggamma(n + 1) - mpmath.loggamma(j + 1)
                - mpmath.loggamma(n - j + 1)
                + j * mpmath.log(p) + (n - j) * mpmath.log(1 - mpmath.mpf(p))
            )
            assert binom_pmf(j, n, p) == pytest.approx(float(expected), rel=1e-15)


def test_pmf_domain_errors():
    with pytest.raises(ValueError):
        pois_pmf(-1, 1.0)
    with pytest.raises(ValueError):
        pois_pmf(1, -0.5)


def test_cdf_trivials():
    assert pois_cdf(0, 0.0) == 1.0
    assert pois_cdf(10, 0.0) == 1.0


def test_cdf_term_by_term_oracle():
    expected = float(sum(mp_pois_pmf(j, 9) for j in range(11)))
    assert pois_cdf(10, 9.0) == pytest.approx(expected, rel=1e-13)


def test_cdf_monotone_in_k():
    for mean in (0.5, 3.0, 40.0):
        values = [pois_cdf(k, mean) for k in range(80)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_tail_trivials():
    assert pois_tail(0, 5.0) == 1.0
    assert pois_tail(1, 0.0) == 0.0


def test_tail_complement_identity():
    for mean in (0.0, 0.3, 1.0, 9.0, 55.0):
        for k in range(0, 70, 3):
            assert pois_cdf(k, mean) + pois_tail(k + 1, mean) == pytest.approx(
                1.0, abs=1e-14
            )


def test_tail_matches_summation_oracle():
    expected = 1.0 - float(sum(mp_pois_pmf(j, 9) for j in range(11)))
    assert pois_tail(11, 9.0) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("k, mean", [(2000, 800.0), (1000, 1000.0), (40, 5.0)])
def test_cdf_and_tail_match_mpmath_far_out(k, mean):
    # exp(-800) underflows and 1 - cdf cancels; neither may show here.
    m = mpmath.mpf(mean)
    cdf = mpmath.gammainc(k + 1, m, mpmath.inf, regularized=True)
    tail = mpmath.gammainc(k, 0, m, regularized=True)
    assert pois_cdf(k, mean) == pytest.approx(float(cdf), rel=1e-12, abs=0)
    assert pois_tail(k, mean) == pytest.approx(float(tail), rel=1e-12, abs=0)


def mp_tails(counts, mean):
    """P{X >= k} at each of the increasing counts: suffix sums of pmfs.

    The pmfs run down to the first count from 60 past the later of the
    last count and 40 standard deviations above the mean, or from where
    (k - mean)^2 / (2k) > 780 if that comes first: each pmf beyond, at
    most exp(-780), is far below anything float64 holds.  Nothing cancels.
    """
    top = max(counts[-1], int(mean + 40 * math.sqrt(mean))) + 60
    top = min(top, math.ceil(mean + 780 + math.sqrt(780**2 + 1560 * mean)))
    mean = mpmath.mpf(mean)
    pmf = mp_pois_pmf(top, mean)
    tails, total = {}, mpmath.mpf(0)
    for k in range(top, counts[0] - 1, -1):
        total += pmf
        tails[k] = total
        pmf = pmf * k / mean
    return [tails.get(k, mpmath.mpf(0)) for k in counts]


@pytest.mark.parametrize("M", [20, 120, 1000, 2000, 10**4, 10**5])
def test_pois_tails_match_mpmath_over_a_curve(M):
    """The tails a cost curve takes, counts thr..M, at means 0.6 to 1.4 thr.

    Below 1e-300 float64 holds too few digits for rel 1e-12: there the
    values only have to stay that small.
    """
    thr = M // 2 + 1
    counts = list(range(thr, M + 1))
    with mpmath.workdps(30):
        for share in (0.6, 0.8, 1.0, 1.2, 1.4):
            got = pois_tails(np.array(counts), share * thr).tolist()
            exact = [float(t) for t in mp_tails(counts, share * thr)]
            off = [
                (k, value, e)
                for k, value, e in zip(counts, got, exact)
                if abs(value - e) > 1e-12 * e + 1e-300
            ]
            assert not off, (share, off[:3])


def test_cdf_and_tail_domain_errors():
    with pytest.raises(ValueError):
        pois_cdf(3, -1.0)
    with pytest.raises(ValueError):
        pois_tail(-1, 1.0)
    for k in (0, 3):
        with pytest.raises(ValueError):
            pois_tail(k, -1.0)
        with pytest.raises(ValueError):
            pois_tail(k, math.nan)


def test_pmf_mass_converges_to_one():
    for mean in (0.0, 1.0, 9.0, 100.0):
        K = int(mean + 40 * math.sqrt(mean + 1))
        total = sum(pois_pmf(k, mean) for k in range(K + 1))
        assert abs(total - 1.0) < 1e-12


def test_binom_trivials():
    assert binom_pmf(0, 9, 0.0) == 1.0
    assert binom_pmf(9, 9, 1.0) == 1.0
    assert binom_pmf(3, 9, 1.0) == 0.0


def test_binom_against_rational_oracle():
    expected = float(84 * Fraction(2, 5) ** 3 * Fraction(3, 5) ** 6)
    assert binom_pmf(3, 9, 0.4) == pytest.approx(expected, rel=1e-13)


def test_binom_sums_to_one():
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        for n in (1, 9, 40):
            assert sum(binom_pmf(j, n, p) for j in range(n + 1)) == pytest.approx(
                1.0, abs=1e-12
            )


def test_binom_domain_error():
    with pytest.raises(ValueError):
        binom_pmf(10, 9, 0.5)
    with pytest.raises(ValueError):
        binom_pmf(1, 2, 1.5)


def test_outputs_in_unit_interval():
    for mean in (0.0, 0.7, 12.0, 300.0):
        for k in range(0, 50, 7):
            for value in (pois_pmf(k, mean), pois_cdf(k, mean), pois_tail(k, mean)):
                assert 0.0 <= value <= 1.0


def test_pois_tails_is_pois_tail_bitwise():
    k = np.arange(60)
    for mean in (0.0, 0.7, 12.0, 300.0):
        assert pois_tails(k, mean).tolist() == [pois_tail(i, mean) for i in range(60)]


def test_scalar_sums_past_the_support_match_the_table_bitwise():
    # Counts run past both ends of each mean's support, where the scalar
    # calls answer without building the mean's table, and across its edges.
    for mean, top in [(0.0, 700), (0.7, 700), (12.0, 900), (300.0, 2500), (1e4, 20000)]:
        low, high = _support_edges(mean)
        edges = [c for c in range(low - 1, low + 2) if c >= 0] + [high, high + 1, high + 2]
        k = np.array(sorted(set(range(0, top, 7)) | set(edges)))
        tails = pois_tails(k, mean)
        assert tails.tolist() == [pois_tail(i, mean) for i in k.tolist()]
        cdf = np.array([pois_cdf(i - 1, mean) for i in k.tolist()])
        assert np.allclose(cdf + tails, 1.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("mean", [1e-3, 0.5, 5.5, 1500.0, 1e4, 1e6, 1e9, 1e12, 1e15])
def test_every_pmf_past_the_support_is_zero(mean):
    bottom, top = _support_edges(mean)
    assert bottom <= math.floor(mean) < top
    if bottom > 0:
        assert _pmf(bottom - 1, mean) == 0.0
    assert _pmf(top + 1, mean) == 0.0


def test_support_edges_are_integers_at_any_mean():
    # At 1e300 the edges lie about 10^151 from the mean, far below its ulp.
    bottom, top = _support_edges(1e300)
    assert type(bottom) is int and type(top) is int
    assert bottom < math.floor(1e300) < top


@pytest.mark.parametrize("mean", [1500.0, 1e4, 1e6])
def test_sums_below_the_normal_range_match_mpmath(mean):
    """Tails and cdfs under 1e-312, a few bits in float64, round once.

    The pmfs run from 60 counts past each edge of the support towards the
    mean, summed in order of size.  Each computed sum must be within one
    subnormal step, 5e-324, of the sum in 40 digits.
    """
    bottom, top = _support_edges(mean)
    with mpmath.workdps(40):
        m = mpmath.mpf(mean)
        k = top + 60
        pmf, tail = mp_pois_pmf(k, m), mpmath.mpf(0)
        while tail + pmf < 1e-312:
            tail += pmf
            assert abs(pois_tail(k, mean) - tail) <= 5e-324, (k, tail)
            pmf = pmf * k / m
            k -= 1
        k = max(bottom - 60, 0)
        pmf = mp_pois_pmf(k, m)
        cdf = pmf
        while cdf < 1e-312:
            assert abs(pois_cdf(k, mean) - cdf) <= 5e-324, (k, cdf)
            k += 1
            pmf = pmf * m / k
            cdf += pmf


def test_huge_means_need_no_table():
    """Counts far from a huge mean: a table would need 77 sqrt(mean) entries."""
    for mean in (1e13, 1e40, 1e300, math.inf):
        assert pois_tail(10, mean) == 1.0
        assert pois_cdf(10, mean) == 0.0
        assert pois_tails(np.arange(11, 22), mean).tolist() == [1.0] * 11
    assert pois_tail(10**13 + 2 * 10**8, 1e13) == 0.0
    assert pois_cdf(10**13 + 2 * 10**8, 1e13) == 1.0


def test_subnormal_mean():
    """x / mean overflows in bd0 at a subnormal mean; its logs do not."""
    assert pois_pmf(1, 1e-310) == pytest.approx(1e-310, rel=1e-12)
    assert pois_tail(1, 1e-310) == pytest.approx(1e-310, rel=1e-12)
    assert pois_cdf(0, 1e-310) == 1.0
    assert binom_pmf(1, 2, 5e-311) == pytest.approx(1e-310, rel=1e-12)


@pytest.mark.parametrize("n", [1, 5, 30])
def test_binomial_mixture_against_exact_oracle(n):
    values = [0.9**j / (j + 1) for j in range(n + 1)]
    # Subnormal rho and rho = 1 - 2**-53: no step may divide by 1 - rho.
    rho = [5e-324, 1e-300, 1e-17, 0.01, 0.1, 0.37, 0.5, 0.93, 0.999, 1 - 2**-53]
    got = binomial_mixture(values)(np.array(rho))
    for r, value in zip(rho, got.tolist()):
        p = Fraction(r)
        exact = sum(
            math.comb(n, j) * p**j * (1 - p) ** (n - j) * Fraction(v)
            for j, v in enumerate(values)
        )
        assert value == pytest.approx(float(exact), rel=1e-13, abs=0.0), (n, r)


def mp_binom_cdf(k, n, p):
    """P{B <= k}, B ~ Binomial(n, p), in 50 digits: the pmfs from k away
    from the mean n p, summed until they stop counting; at or above the
    mean, 1 minus the pmfs from k + 1 up."""
    if k < 0 or p == 1 and k < n:
        return mpmath.mpf(0)
    if k >= n or p == 0:
        return mpmath.mpf(1)
    p = mpmath.mpf(p)
    q = 1 - p
    below = k < n * p
    j = k if below else k + 1
    term = mpmath.exp(
        mpmath.loggamma(n + 1) - mpmath.loggamma(j + 1) - mpmath.loggamma(n - j + 1)
        + j * mpmath.log(p) + (n - j) * mpmath.log(q)
    )
    total = term
    while term > total * mpmath.mpf(10) ** -45 and 0 < j < n:
        if below:
            term *= j * q / ((n - j + 1) * p)
            j -= 1
        else:
            term *= (n - j) * p / ((j + 1) * q)
            j += 1
        total += term
    return total if below else 1 - total


def no_table(*args):
    raise AssertionError("a table was built")


@pytest.mark.parametrize("n", [0, 1, 9, 59, 499, 10**6, 10**12])
@pytest.mark.parametrize("p", [0.0, 1e-5, 0.5, 0.9, 1.0])
def test_binom_cdfs_match_mpmath(monkeypatch, n, p):
    """Counts at both ends of the window, just inside it, at the mean and
    near 5, against 50 digits: within 1e-14 relative, or below the normal
    range.  (At n = 10^6, p = 1e-5, k = 5, scipy's binom.cdf is 4.6e-11
    relative off, this 2e-16; near the mean at n = 10^12, where the ratio
    recurrence runs 10^5 steps, this is 5e-15 off, and was 1.1e-13 before
    the steps were taken by their distance from 1.)
    Every pmf just outside the window is 0.0.  At n = 10^12, p = 0.5 and
    0.9, the window spans 2 * 10^7 counts or more, so only counts outside
    it are asked, and they build no table."""
    bottom, top = _binom_edges(n, p)
    assert type(bottom) is int and type(top) is int
    assert 0 <= bottom <= n * p <= top <= n
    if bottom > 0:
        assert binom_pmf(bottom - 1, n, p) == 0.0
    if top < n:
        assert binom_pmf(top + 1, n, p) == 0.0
    if top - bottom > 10**6:
        monkeypatch.setattr(kernels, "_binom_table", no_table)
        assert binom_cdfs(np.array([-1, 0, 5, bottom - 1]), n, p).tolist() == [0.0] * 4
        assert binom_cdfs(np.array([top + 1, n, n + 5]), n, p).tolist() == [1.0] * 3
        return
    counts = sorted({bottom - 1, bottom, bottom + 1, top - 1, top, top + 1,
                     math.floor(n * p), 5})
    got = binom_cdfs(np.array(counts), n, p)
    with mpmath.workdps(50):
        want = [float(mp_binom_cdf(k, n, p)) for k in counts]
    for k, g, w in zip(counts, got.tolist(), want):
        assert g == pytest.approx(w, rel=1e-14, abs=2.0**-1022), (k, g, w)


def test_binom_cdfs_past_the_window_build_no_table(monkeypatch):
    """A Binomial(2^62, 1/2) window would span 10^11 counts; counts below
    or above it read 0 and 1 without it, at any n."""
    monkeypatch.setattr(kernels, "_binom_table", no_table)
    for n in (2**62, 2**63 - 1, 10**30):
        bottom, top = _binom_edges(n, 0.5)
        assert bottom > 10**6
        assert binom_pmf(bottom - 1, n, 0.5) == binom_pmf(top + 1, n, 0.5) == 0.0
        assert binom_cdfs(np.arange(-5, 10**6), n, 0.5).max() == 0.0
        assert binom_cdfs(np.array([bottom - 1]), n, 0.5).tolist() == [0.0]
        assert binom_cdfs(np.array([top + 1, top + 2]), n, 0.5).tolist() == [1.0, 1.0]
    with pytest.raises(ValueError):
        binom_cdfs(np.array([1]), 5, 1.5)
    with pytest.raises(ValueError):
        binom_cdfs(np.array([1]), -1, 0.5)


@pytest.mark.parametrize("n, p", [(2**62, 0.5), (5 * 10**12 - 1, 0.5), (5 * 10**15 - 1, 0.2)])
def test_binom_cdfs_straddling_the_window_build_no_table(monkeypatch, n, p):
    """Counts on both sides of a wide window, none inside it, as the
    simulator asks them (negative counts off Regular, overshoots past n p),
    read 0 and 1 each in one call, with no table."""
    monkeypatch.setattr(kernels, "_binom_table", no_table)
    bottom, top = _binom_edges(n, p)
    k = np.array([[-3, 0, bottom - 1], [top + 1, n, 2**62]])
    assert binom_cdfs(k, n, p).tolist() == [[0.0] * 3, [1.0] * 3]


@pytest.mark.parametrize("n, p", [(9, 0.5), (59, 0.9), (59, 1.0), (10**6, 0.3)])
def test_binom_cdfs_read_exactly_0_and_1_past_a_tabled_window(n, p):
    """Where a count lies inside, the table also reads the counts past its
    ends: exactly 0 below and 1 above, as in a call without it."""
    bottom, top = _binom_edges(n, p)
    k = np.array([-2, bottom - 1, (bottom + top) // 2, top + 1, n + 3])
    got = binom_cdfs(k, n, p)
    assert got[[0, 1]].tolist() == [0.0, 0.0] and got[[3, 4]].tolist() == [1.0, 1.0]
    assert 0.0 < got[2] < 1.0 or p == 1.0


def test_binom_cdfs_refuse_a_window_past_the_bound(monkeypatch):
    """A count inside a window of more than MAX_BINOM_TABLE counts is
    refused before any table is built; ``check_binom_cdfs`` says whether
    counts up to a bound would be."""
    monkeypatch.setattr(kernels, "_binom_table", no_table)
    n = 5 * 10**12 - 1
    bottom, top = _binom_edges(n, 0.5)
    assert top + 1 - bottom > MAX_BINOM_TABLE
    check_binom_cdfs(n, 0.5, bottom - 1)
    check_binom_cdfs(10**6, 0.5, 10**6)  # a window of 39 236 counts
    with pytest.raises(ValueError, match=f"more than the {MAX_BINOM_TABLE} it may table"):
        check_binom_cdfs(n, 0.5, bottom)
    with pytest.raises(ValueError, match=f"more than the {MAX_BINOM_TABLE} it may table"):
        binom_cdfs(np.array([-1, bottom, top + 1]), n, 0.5)


def test_binom_cdfs_work_out_the_window_once(monkeypatch):
    """A call with counts inside the window works out its edges once, for
    the refusal check and the table built on a cache miss alike."""
    calls = []
    edges = kernels._binom_edges

    def counted(n, p):
        calls.append((n, p))
        return edges(n, p)

    monkeypatch.setattr(kernels, "_binom_edges", counted)
    kernels._binom_table.cache_clear()
    got = binom_cdfs(np.array([-1, 4, 59]), 59, 0.3)
    assert calls == [(59, 0.3)]
    assert got[0] == 0.0 and 0.0 < got[1] < 1.0 and got[2] == 1.0


def test_binomial_mixture_endpoints_are_exact():
    values = [0.3, 0.123456789, 1e-300, 0.7]
    got = binomial_mixture(values)(np.array([0.0, 1.0, 0.0]))
    assert got.tolist() == [values[0], values[-1], values[0]]


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_binomial_mixture_moments_at_large_n(n):
    """E[B/n] = rho and E[(B/n)^2] = rho^2 + rho (1 - rho)/n.

    Weights exp(log C(n, j) + j log rho + ...) put them 1.2e-11 off at
    n = 10^6, rho = 1e-6: log C(n, j) carries the rounding of terms of
    size n.
    """
    rho = np.array([1e-6, 1e-4, 0.1, 0.9])
    share = np.arange(n + 1) / n
    mean = binomial_mixture(share)(rho)
    square = binomial_mixture(share * share)(rho)
    np.testing.assert_allclose(mean, rho, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(square, rho**2 + rho * (1 - rho) / n, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("value", [1e-310, 3e-320])
def test_binomial_mixture_of_a_subnormal_constant_is_exact(value):
    """Weights times a subnormal value stay normal, so none rounds away."""
    got = binomial_mixture(np.full(41, value))(np.array([0.1, 0.37, 0.9]))
    assert got.tolist() == [value] * 3


def test_binomial_mixture_rows_do_not_depend_on_their_call():
    # n + 1 = 2^19 + 1 weights fill one row block, so the five rho below
    # run in five blocks, each on its own.
    n = 1 << 19
    values = np.linspace(1.0, 0.0, n + 1) ** 3
    mixture = binomial_mixture(values)
    rho = np.array([0.3, 0.0, 0.5000001, 1.0, 0.7])
    singles = [mixture(np.array([r]))[0] for r in rho.tolist()]
    assert mixture(rho).tolist() == singles


def _scipy_imports(path):
    """Each scipy module a file imports, at module level or in a function."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names
                  if name == "scipy" or name.startswith("scipy.")]
    return found


def test_no_module_imports_scipy():
    """numpy is the only runtime dependency: no module imports scipy, not
    even inside a function."""
    for path in Path(swarmgame.__file__).parent.glob("*.py"):
        assert _scipy_imports(path) == [], path.name
