"""Reporting paths that healthy instances never exercise.

Every catalog statement holds on valid instances, so the counterexample
branches of the renderers and the CLI exit-code plumbing are driven here
with fabricated results and stubbed checkers instead.
"""

import pytest

from cideals import Instance, StatementId, TheoremCheckResult, build_report
from cideals.cli import main
from cideals.io import machine_theorem_row, parse_machine_report, render_machine, render_text


def fake_failure():
    return TheoremCheckResult(
        statement=StatementId.THM5_I_II,
        hypotheses_met=True,
        conclusion_holds=False,
        counterexample={"ideal": "{0,a}", "equivalences": "(True,False,False)"},
    )


def test_machine_theorem_row_with_counterexample_round_trips():
    row = machine_theorem_row(fake_failure())
    parsed = parse_machine_report(f"report: x\nelements: a\n{row}\n")
    (theorem,) = parsed.theorem_rows
    assert theorem["tag"] == "THM5_I_II"
    assert theorem["hypotheses"] is True
    assert theorem["conclusion"] is False
    assert theorem["counterexample"] == {
        "ideal": "{0,a}",
        "equivalences": "(True,False,False)",
    }


def test_render_text_counterexample_line(fig1):
    report = build_report(Instance("fig1", fig1.poset, fig1.cp))
    doctored = report.__class__(**{**report.__dict__, "theorems": (fake_failure(),)})
    text = render_text(doctored)
    assert "THM5_I_II: COUNTEREXAMPLE ideal={0,a}" in text
    assert "1 counterexamples" in text


def test_check_exit_4_on_counterexample(monkeypatch, tmp_path, capsys):
    import cideals.cli as cli

    path = tmp_path / "fig1.poset"
    assert main(["corpus", "--emit", str(tmp_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "run_all", lambda cp: [fake_failure()])
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 4
    assert "COUNTEREXAMPLE" in out


def test_run_checker_wraps_failure_without_probe():
    from cideals.harness import _run_checker

    calls = {}

    def stub(ctx):
        calls["ran"] = True
        return True, "", False, {"witness": "{0}"}

    class DummyCtx:
        pass

    from cideals import harness

    original = harness._CHECKERS[StatementId.LEM_BOOLEAN]
    harness._CHECKERS[StatementId.LEM_BOOLEAN] = stub
    try:
        result = _run_checker(DummyCtx(), StatementId.LEM_BOOLEAN)
    finally:
        harness._CHECKERS[StatementId.LEM_BOOLEAN] = original
    assert calls["ran"]
    assert result.hypotheses_met and result.conclusion_holds is False
    assert result.counterexample == {"witness": "{0}"}
    assert result.probe is None


def test_machine_render_deterministic(fig3):
    one = render_machine(build_report(Instance("fig3", fig3.poset, fig3.cp)))
    two = render_machine(build_report(Instance("fig3", fig3.poset, fig3.cp)))
    assert one == two


def test_readme_documents_every_statement_tag():
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    for sid in StatementId:
        assert f"`{sid.value}`" in readme, sid


def test_separate_unknown_element_exit_3(tmp_path, capsys):
    assert main(["corpus", "--emit", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(
        ["separate", str(tmp_path / "fig1.poset"), "--ideal", "zz", "--filter", "b"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "unknown element" in err
