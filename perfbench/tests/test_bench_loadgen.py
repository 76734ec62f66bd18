import os

import run
import workloads


def _plan(workload, seed, ops):
    plan = workloads.generate(workload, seed)
    plan["ops"] = plan["ops"][:ops]
    return plan


def test_one_process_per_pass_one_operation_at_a_time_without_threads(tmp_path):
    for workload in ("campaign", "session"):
        plan = _plan(workload, 0, 8)
        workloads.write_files(plan, tmp_path)
        first = run.run_pass(plan, tmp_path)["records"]
        second = run.run_pass(plan, tmp_path)["records"]
        assert [r["error"] for r in first + second] == [None] * 16
        assert len({r["pid"] for r in first}) == 1
        assert first[0]["pid"] not in (second[0]["pid"], os.getpid())
        assert all(r["threads"] == 1 for r in first + second)
        assert all(a["end"] <= b["start"] for a, b in zip(first, first[1:]))
        assert [r["output"] for r in first] == [r["output"] for r in second]


def test_failed_pass_counts_every_operation_as_failed(tmp_path):
    plan = _plan("session", 0, 3)
    plan["files"] = {}  # loading the session objects fails before the first operation
    result = run.run_pass(plan, tmp_path)
    assert len(result["records"]) == 3
    assert all(r["error"] for r in result["records"])


def test_inputs_are_a_function_of_the_seed():
    assert workloads.generate("campaign", 5) == workloads.generate("campaign", 5)
    assert workloads.generate("session", 5) == workloads.generate("session", 5)
    assert workloads.generate("campaign", 5)["files"] != workloads.generate("campaign", 6)["files"]
    assert workloads.generate("wide", 5)["files"] != workloads.generate("wide", 6)["files"]


def test_campaign_at_seed_zero_is_the_script_campaign():
    plan = workloads.generate("campaign", 0)
    names = [f.removesuffix(".poset") for f in plan["files"]]
    assert names == ["fig1", "fig2a", "fig2b", "fig3", "fig4"] + [f"seed{i}" for i in range(1, 201)]
    assert run.distinct_instances(plan) < len(names)
