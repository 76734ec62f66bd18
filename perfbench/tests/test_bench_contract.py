import collections
import json

import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END_UNITS)
    for metric in BENCHMARK["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    traced = set(spans.layer_metrics([], collections.Counter()))
    traced |= {"corpus.distinct_instances", "trace.overhead_s"}
    assert traced == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert run.per_layer_unit(metric["name"]) == metric["unit"]


def test_workloads_and_seed_zero_digests_are_recorded():
    meta = json.loads(run.META.read_text())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(meta["digests"]) == set(run.WORKLOADS)
