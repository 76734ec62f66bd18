import importlib

import pytest

import spans
import workloads
from cideals import cli, harness, io as cio, poset, substructures

FIG = "name: t\nelements: 0 a b 1\nle: 0 < a\nle: 0 < b\nle: a < 1\nle: b < 1\n" \
      "comp: 0 -> 1\ncomp: a -> b\ncomp: b -> a\ncomp: 1 -> 0\n"


def _originals():
    return {
        "harness.run_all": harness.run_all,
        "io.run_all": cio.run_all,
        "cli.build_report": cli.build_report,
        "walk": substructures._enumerate_downsets,
        "Poset.__init__": poset.Poset.__dict__["__init__"],
        "checkers": dict(harness._CHECKERS),
    }


def _outputs():
    cp = cio.load_instance(FIG).cp
    return [workloads._theorem(r) for r in harness.run_all(cp)]


def test_install_wraps_every_namespace_and_restore_puts_originals_back():
    before = _originals()
    plain = _outputs()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.run_all is not before["harness.run_all"]
        assert cio.run_all is harness.run_all  # the copy io imported is wrapped too
        assert substructures._enumerate_downsets is not before["walk"]
        assert all(harness._CHECKERS[k] is not v for k, v in before["checkers"].items())
        traced = _outputs()
    finally:
        tracer.restore()
    assert tracer.restored()
    assert _originals() == before
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"io.load_instance", "harness.run_all", "substructures._enumerate_downsets"} <= names
    assert "harness.stmt.LEM_BOOLEAN" in names
    recorded = len(tracer.spans)
    _outputs()
    assert len(tracer.spans) == recorded  # nothing records once restored


def test_restored_detects_a_wrapper_left_behind():
    tracer = spans.Tracer()
    tracer.install()
    tracer.restore()
    leftover = next(iter(tracer._wrappers.values()))
    saved = harness.separate
    harness.separate = leftover
    try:
        assert not tracer.restored()
    finally:
        harness.separate = saved
    assert tracer.restored()


def test_layer_metrics_use_self_time_and_cover_every_layer():
    tracer = spans.Tracer()
    tracer.install()
    try:
        _outputs()
    finally:
        tracer.restore()
    summary = spans.summarize([list(s) for s in tracer.spans])
    metrics = spans.layer_metrics([summary], tracer.counts)
    assert set(spans.LAYERS) <= set(metrics)
    assert metrics["substructures.enumerate_calls"] == 2
    assert metrics["substructures.downsets"] > 0
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent == -1)
    self_total = sum(summary["self"].values())
    assert self_total == pytest.approx(total)
    assert metrics["harness.run_all_s"] <= total


def test_every_target_exists():
    for module_name, qualnames in spans.TARGETS.items():
        module = importlib.import_module(module_name)
        for qual in qualnames:
            owner, _, attr = qual.rpartition(".")
            assert callable(getattr(getattr(module, owner) if owner else module, attr))
