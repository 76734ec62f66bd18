"""Every committed ``BENCH_*.json`` and ``PAIR_*.json`` has the schema
``scripts/bench_record.py`` writes, with the workloads and metric names of
``BENCHMARK.json``.

The records are read, never re-measured: the benchmark takes minutes."""

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"commit", "dirty", "python", "cores", "seeds", "seconds", "trace_seed", "workloads"}
PAIRS = sorted(ROOT.glob("PAIR_*.json"))
PAIR_KEYS = {"parent", "change", "workload", "seed", "seconds", "python", "cores", "runs", "metrics"}


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_has_the_schema_of_the_benchmark(path):
    assert re.fullmatch(r"BENCH_\d+\.json", path.name)
    record = json.loads(path.read_text())
    assert set(record) == KEYS
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"]) and record["dirty"] is False
    assert re.fullmatch(r"3\.\d+\.\d+", record["python"]) and record["cores"] >= 1
    assert record["seeds"] == list(range(10)) and record["seconds"] == SPEC["run_seconds"]
    assert record["trace_seed"] == 0
    assert list(record["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for workload in record["workloads"].values():
        assert set(workload) == {"end_to_end", "per_layer"}
        assert list(workload["end_to_end"]) == sorted(m["name"] for m in SPEC["end_to_end"])
        for stats in workload["end_to_end"].values():
            assert set(stats) == {"median", "q1", "q3"}
            assert stats["q1"] <= stats["median"] <= stats["q3"]
        assert list(workload["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
        assert all(isinstance(value, (int, float)) for value in workload["per_layer"].values())
        assert workload["end_to_end"]["success_rate"]["median"] == 1.0  # every run was correct


def test_compare_prints_every_end_to_end_metric():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--compare", str(RECORDS[0]), str(RECORDS[0])],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0 and not run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[2:]]
    spec_rows = [(w["name"], m["name"]) for w in SPEC["workloads"] for m in SPEC["end_to_end"]]
    assert sorted((row[0], row[1]) for row in rows) == sorted(spec_rows)
    bounds = {m["name"]: f"{m['bound']:.0%}" for m in SPEC["end_to_end"]}
    assert all(row[4] == "1.000" and row[5] == "+0.0%" and row[6] == bounds[row[1]] for row in rows)


@pytest.mark.parametrize("path", PAIRS, ids=lambda path: path.name)
def test_pair_record_has_the_schema_of_the_benchmark(path):
    # the summary is recomputed from the pairs it holds
    assert re.fullmatch(r"PAIR_\d+\.json", path.name)
    record = json.loads(path.read_text())
    assert set(record) == PAIR_KEYS
    assert all(re.fullmatch(r"[0-9a-f]{40}", record[side]) for side in ("parent", "change"))
    assert record["parent"] != record["change"]
    assert record["workload"] in [w["name"] for w in SPEC["workloads"]]
    assert isinstance(record["seed"], int) and record["seconds"] >= 1
    assert re.fullmatch(r"3\.\d+\.\d+", record["python"]) and record["cores"] >= 1
    names = sorted(m["name"] for m in SPEC["end_to_end"])
    runs = record["runs"]
    assert len(runs) >= 2
    assert [run["first"] for run in runs] == [("parent", "change")[k % 2] for k in range(len(runs))]
    for run in runs:
        assert set(run) == {"first", "parent", "change"}
        assert sorted(run["parent"]) == sorted(run["change"]) == names
        assert run["parent"]["success_rate"] == run["change"]["success_rate"] == 1.0
    assert sorted(record["metrics"]) == names
    for metric in SPEC["end_to_end"]:
        name, stats = metric["name"], record["metrics"][metric["name"]]
        assert set(stats) == {"parent", "change", "change_better", "parent_iqr"}
        for side in ("parent", "change"):
            q1, median, q3 = statistics.quantiles([run[side][name] for run in runs], n=4)
            assert stats[side] == pytest.approx({"median": median, "q1": q1, "q3": q3})
        sign = 1 if metric["better"] == "lower" else -1
        assert stats["change_better"] == sum(sign * (run["parent"][name] - run["change"][name]) > 0 for run in runs)
        assert stats["parent_iqr"] == pytest.approx(stats["parent"]["q3"] - stats["parent"]["q1"])
