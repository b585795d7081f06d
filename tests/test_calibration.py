import numpy as np
import pytest
from calibration import assert_calibrated

EXACT = 0.25


def estimates(z, se=0.01):
    """Estimates of EXACT whose z-scores are ``z``, each with SE ``se``."""
    z = np.asarray(z, dtype=float)
    return EXACT + se * z, np.full(z.size, se)


def normal_z(k=20, seed=1):
    """k z-scores of mean 0 and sample sd 1 exactly."""
    z = np.random.default_rng(seed).standard_normal(k)
    return (z - z.mean()) / z.std(ddof=1)


def test_a_calibrated_set_passes():
    assert_calibrated(*estimates(normal_z()), EXACT)
    # The band's ends pass: a mean z of 3 / sqrt(k), sds of 0.5 and 1.6.
    assert_calibrated(*estimates(normal_z() + 3 / np.sqrt(20) - 1e-9), EXACT)
    for sd in (0.5 + 1e-9, 1.6 - 1e-9):
        assert_calibrated(*estimates(sd * normal_z()), EXACT)


@pytest.mark.parametrize(
    "z, message",
    [
        pytest.param(normal_z() + 0.7, "mean z", id="biased"),
        pytest.param(1.8 * normal_z(), "sd of z", id="over-dispersed"),
        pytest.param(0.4 * normal_z(), "sd of z", id="under-dispersed"),
        # Mostly low by a few SE, with one large overshoot: a heavy tail.
        pytest.param([-2.0] * 19 + [38.0], "sd of z", id="heavy-tailed"),
    ],
)
def test_a_miscalibrated_set_fails(z, message):
    with pytest.raises(AssertionError, match=message):
        assert_calibrated(*estimates(z), EXACT)


def test_an_se_of_zero_is_refused_unless_the_value_is_certain():
    values, ses = estimates(normal_z())
    ses[3] = 0.0
    with pytest.raises(AssertionError, match="an SE of 0"):
        assert_calibrated(values, ses, EXACT)
    # At an exact value of 1, a seed that reads 1 with SE 0 has no z, and
    # one that reads anything else with SE 0 fails.
    assert_calibrated([1.0] * 5, [0.0] * 5, 1.0)
    with pytest.raises(AssertionError):
        assert_calibrated([1.0, 0.999], [0.0, 0.0], 1.0)
