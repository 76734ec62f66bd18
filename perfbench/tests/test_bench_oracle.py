import collections
import json

import oracle
import run
import workloads


def _report(tmp_path, text):
    plan = {"workload": "wide", "files": {"x.poset": text}, "objects": [],
            "ops": [{"key": "analyze:x.poset", "kind": "analyze", "file": "x.poset"}]}
    workloads.write_files(plan, tmp_path)
    return plan["ops"][0], run.run_pass(plan, tmp_path)["records"][0]


def test_correct_report_passes_and_broken_reports_fail(tmp_path):
    text = oracle.antichain(3)
    op, rec = _report(tmp_path, text)
    order = oracle.Order(text)
    assert oracle.check(op, order, rec["code"], rec["output"]) is None
    lines = rec["output"].splitlines()
    dropped = "\n".join(l for l in lines if not l.startswith("ideal: set={0}"))
    assert "ideal rows" in oracle.check(op, order, 0, dropped)
    swapped = rec["output"].replace("ideal: set={0,x1}", "ideal: set={0,x2}", 1)
    assert oracle.check(op, order, 0, swapped) is not None
    cex = rec["output"].replace("counterexample=none", "counterexample=a:b", 1)
    assert "counterexample" in oracle.check(op, order, 0, cex)
    assert "exit code" in oracle.check(op, order, 3, rec["output"])


def test_classification_and_separation_checks_reject_a_wrong_field():
    plan = workloads.generate("session", 0)
    orders = {f: oracle.Order(plan["files"][f]) for f in plan["objects"]}
    checked = collections.Counter()
    for op in plan["ops"]:
        order = orders.get(op.get("obj"))
        if op["kind"] == "classify":
            want = order.classification(op["mask"])
            wrong = dict(want, c_condition=not want["c_condition"])
        elif op["kind"] == "separate":
            want = order.separation(op["ideal"], op["filter"], op["mode"])
            wrong = dict(want, failure="NotAntitone" if want["failure"] != "NotAntitone" else None)
        else:
            continue
        assert oracle.check(op, order, None, json.dumps(want)) is None
        assert oracle.check(op, order, None, json.dumps(wrong)) is not None
        checked[op["kind"]] += 1
    assert checked["classify"] and checked["separate"]
