"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
from pathlib import Path

from perfbench import workloads
from perfbench.run import END_TO_END, PER_LAYER

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _, _) in PER_LAYER.items()
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
