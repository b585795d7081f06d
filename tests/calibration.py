"""The seed rule for Monte Carlo checks against an exact value.

One seed's estimate within 3 SE cannot see a bias below about 1 SE, and on
a heavy-tailed estimator it passes or fails by luck.  ``assert_calibrated``
asks k seeds' z-scores to look like draws of a standard normal instead.
"""

import math

import numpy as np


def assert_calibrated(estimates, ses, exact: float) -> None:
    """Estimates of ``exact`` from k independent seeds, with their SEs.

    Every SE is > 0 where the exact value is not 0 or 1; there a seed with
    SE 0 must read the exact value and has no z.  The z-scores (estimate -
    exact) / SE have a mean within 3 / sqrt(k) of 0, a bias bound sqrt(k)
    times tighter than one seed's 3 SE, and a sample sd in [0.5, 1.6]: at
    k = 20 a calibrated set leaves that band with chi^2_19 probabilities
    near 4e-4 below and 2e-4 above.  Below it the SEs overstate the error;
    above it they understate it, or the estimator's tail is heavy.
    """
    estimates, ses = np.asarray(estimates, dtype=float), np.asarray(ses, dtype=float)
    assert estimates.shape == ses.shape
    exactly = ses == 0.0
    assert exact in (0.0, 1.0) or not exactly.any(), f"an SE of 0 at {exact}"
    assert (estimates[exactly] == exact).all(), estimates[exactly]
    z = (estimates[~exactly] - exact) / ses[~exactly]
    if z.size < 2:
        return
    mean, sd = z.mean(), z.std(ddof=1)
    assert abs(mean) <= 3 / math.sqrt(z.size), f"mean z {mean:.3g} over {z.size} seeds"
    assert 0.5 <= sd <= 1.6, f"sd of z {sd:.3g} over {z.size} seeds"
