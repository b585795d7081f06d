import math

import pytest

from swarmgame.config import ConfigError, RunConfig, parse_config
from swarmgame.model import SwarmParams, total_cost

TABLE_CONFIG = """\
# swarm of twenty drones
M = 20
drone_value = 1500
lambda_a = 1
delta0 = 1
delta = 1
"""


def test_parse_table_config_defaults():
    config = parse_config(TABLE_CONFIG)
    assert config.M == 20
    assert config.drone_value == 1500.0
    assert config.lambda_h == 0.0
    assert config.expected_nu == 3.0
    assert config.episodes == 100_000
    assert config.seed == 42
    assert config.grid_size == 101
    assert config.tolerance == 1e-5
    params = config.to_params()
    assert params.swarm_value == 30000.0


def test_empty_input_requires_m():
    with pytest.raises(ConfigError, match="M"):
        parse_config("")


def test_small_swarm_rejected():
    with pytest.raises(ConfigError, match="M"):
        parse_config(TABLE_CONFIG.replace("M = 20", "M = 3"))


def test_int_m_beyond_float_range_rejected():
    with pytest.raises(ConfigError, match="M must be at most the largest float"):
        parse_config(TABLE_CONFIG.replace("M = 20", "M = 1" + "0" * 400))


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 7.*'warp_speed'"):
        parse_config(TABLE_CONFIG + "warp_speed = 9\n")


def test_malformed_number_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 2.*'M'"):
        parse_config("# c\nM = twenty\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(TABLE_CONFIG + "M = 22\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("M 20\n")


def test_expected_nu_auto():
    # "auto" leaves nu unset; the analytic commands resolve it.
    config = parse_config(TABLE_CONFIG + "expected_nu = auto\n")
    assert config.expected_nu == "auto"
    assert config.to_params().expected_nu is None


def test_expected_nu_number():
    config = parse_config(TABLE_CONFIG + "expected_nu = 4.5\n")
    assert config.to_params().expected_nu == 4.5


def test_expected_nu_garbage():
    with pytest.raises(ConfigError, match="expected_nu"):
        parse_config(TABLE_CONFIG + "expected_nu = soon\n")


def test_invariant_violations_surface_as_config_errors():
    with pytest.raises(ConfigError, match="rho"):
        parse_config(TABLE_CONFIG + "rho = 1.5\n")
    with pytest.raises(ConfigError, match="episodes"):
        parse_config(TABLE_CONFIG + "episodes = 0\n")
    with pytest.raises(ConfigError, match="grid_size"):
        parse_config(TABLE_CONFIG + "grid_size = 1\n")
    with pytest.raises(ConfigError, match="delta0"):
        parse_config(TABLE_CONFIG.replace("delta0 = 1", "delta0 = -2"))
    with pytest.raises(ConfigError, match="M must be an integer, got 20.5"):
        RunConfig(M=20.5, drone_value=1.0, lambda_a=1.0, delta0=1.0, delta=1.0)


@pytest.mark.parametrize(
    "key",
    [
        "drone_value",
        "lambda_a",
        "lambda_h",
        "delta0",
        "delta",
        "expected_nu",
        "ally_unit_cost",
        "rho",
        "tolerance",
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_rejected(key, value):
    lines = [l for l in TABLE_CONFIG.splitlines() if not l.startswith(f"{key} ")]
    text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
    with pytest.raises(ConfigError, match=rf"line {len(lines) + 1}: key '{key}' must be finite"):
        parse_config(text)


@pytest.mark.parametrize(
    "key", ["drone_value", "lambda_a", "delta0", "delta", "expected_nu"]
)
def test_swarm_params_reject_non_finite(key):
    base = dict(M=20, drone_value=1500.0, lambda_a=1.0)
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        SwarmParams(**{**base, key: math.nan})


@pytest.mark.parametrize("key", ["drone_value", "ally_unit_cost"])
def test_overflowing_money_rejected(key):
    lines = [l for l in TABLE_CONFIG.splitlines() if not l.startswith(f"{key} ")]
    text = "\n".join(lines + [f"{key} = 1e308"]) + "\n"
    with pytest.raises(ConfigError, match=rf"{key}.* must be finite, got inf"):
        parse_config(text)


def test_largest_money_gives_finite_costs():
    p = SwarmParams(M=20, drone_value=8e306, lambda_a=1.5, ally_unit_cost=1e306)
    breakdown = total_cost(p, 0.5)
    assert math.isfinite(breakdown.total) and breakdown.total > 0
    with pytest.raises(ValueError, match="must be finite"):
        SwarmParams(M=20, drone_value=9e306, lambda_a=1.5, ally_unit_cost=1e306)
