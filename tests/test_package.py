"""The package's public names: every one resolves to its defining module's
own object, whether it is imported with the package or loaded on first use."""

import importlib

import pytest

import swarmgame
from swarmgame import cli, fluctuation, series, sim

# By module name: the package's ``optimize`` attribute is the function.
DEFINED_IN = {
    "config": ("ConfigError", "RunConfig", "parse_config"),
    "fluctuation": (
        "PathwiseEvents", "TransformPoint", "exit_index_pgf", "expected_exit_index",
        "interval_transform", "pathwise_events", "phi",
    ),
    "kernels": ("binom_pmf", "pois_cdf", "pois_pmf", "pois_tail"),
    "model": (
        "AllyRequirement", "CostBreakdown", "CostMatrix", "StrategyChoice",
        "SwarmParams", "ally_cost", "burst_prob_regular", "burst_prob_safety",
        "choose_strategy", "exit_mean_count", "majority_threshold", "min_allies",
        "prior_safe_prob", "total_cost",
    ),
    "optimize": ("OptimalRho", "optimize", "sweep"),
    "sim": ("REGULAR", "SAFETY", "SimStats", "estimate"),
}


def test_every_public_name_is_its_modules_own_object():
    names = [name for names in DEFINED_IN.values() for name in names]
    assert sorted(names) == sorted(swarmgame.__all__)
    for module_name, names in DEFINED_IN.items():
        module = importlib.import_module(f"swarmgame.{module_name}")
        for name in names:
            assert getattr(swarmgame, name) is getattr(module, name), name


def test_dir_and_star_import_cover_all():
    assert set(swarmgame.__all__) <= set(dir(swarmgame))
    namespace = {}
    exec("from swarmgame import *", namespace)
    assert set(swarmgame.__all__) <= namespace.keys()
    for name in swarmgame.__all__:
        assert namespace[name] is getattr(swarmgame, name), name


@pytest.mark.parametrize("module", [swarmgame, cli, fluctuation, sim])
def test_unknown_name_raises_attribute_error(module):
    assert not hasattr(module, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_lazily_resolved_names_are_the_defining_objects():
    # The benchmark's tracer patches both by name (perfbench/tracer.py).
    assert cli.estimate is sim.estimate
    assert fluctuation.d_operator is series.d_operator
