"""BENCHMARK.json names exactly the metrics and workloads the code reports."""
import json
import os

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_pools_are_seeded():
    for name in run.WORKLOAD_NAMES:
        catalogue = workloads.load_catalogue(name)
        first = [e["id"] for e in workloads.select_pool(catalogue, 1)]
        assert first == [e["id"] for e in workloads.select_pool(catalogue, 1)]
        assert first != [e["id"] for e in workloads.select_pool(catalogue, 2)]
        assert len(first) == len(catalogue["fixed"]) + len(catalogue["pairs"])
