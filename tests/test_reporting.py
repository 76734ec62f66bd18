"""Reporting paths that healthy instances never exercise.

Every catalog statement holds on valid instances, so the counterexample
branches of the renderers and the CLI exit-code plumbing are driven here
with fabricated results and stubbed checkers instead.
"""

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
    parsed = parse_machine_report(f"report: x\nelements: 0 a\n{row}\n")
    (theorem,) = parsed.theorem_rows
    assert theorem["tag"] == "THM5_I_II"
    assert theorem["hypotheses"] is True
    assert theorem["conclusion"] is False
    assert theorem["counterexample"] == {
        "ideal": "{0,a}",
        "equivalences": "(True,False,False)",
    }


def test_counterexample_naming_colon_and_plus_names_round_trips():
    # ':' and '+' are legal in names: a value is split off its key at the
    # first ':', and set lists are joined at '}+{'
    res = TheoremCheckResult(
        statement=StatementId.LEM_BOOLEAN,
        hypotheses_met=True,
        conclusion_holds=False,
        counterexample={"element": "a:b+c", "ideal": "{0,a:b+c}"},
    )
    row = machine_theorem_row(res)
    assert row.endswith("counterexample=element:a:b+c;ideal:{0,a:b+c}")
    (theorem,) = parse_machine_report(f"report: x\nelements: 0 a:b+c\n{row}\n").theorem_rows
    assert theorem["counterexample"] == res.counterexample


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
        return "", {"witness": "{0}"}

    class DummyCtx:
        pass

    result = _run_checker(DummyCtx(), StatementId.LEM_BOOLEAN, stub)
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
    # the catalog table lists exactly the tags, in catalog order
    section = readme.split("## Statement catalog", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("| `")]
    assert rows == [f"`{sid.value}`" for sid in StatementId]



def test_readme_documents_every_machine_record_field():
    import pathlib

    from cideals.io import MACHINE_RECORDS

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    section = readme.split("## Machine report format", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("|")[1].strip(): line for line in section.splitlines() if line.startswith("| `")}
    assert set(rows) == {f"`{kind}:`" for kind in MACHINE_RECORDS}
    for kind, record in MACHINE_RECORDS.items():
        # each field in order, as "`key=` type", or ": type" for a bare field
        cells = [f"`{key}=` {t.name}" if key else f": {t.name}" for key, t in record]
        row = rows[f"`{kind}:`"]
        assert all(cell in row for cell in cells), kind
        assert [row.index(cell) for cell in cells] == sorted(row.index(cell) for cell in cells), kind


def test_readme_library_example_runs_and_names_every_export():
    """The Library section's example runs as written, and its "The package
    exports" list names exactly the public names of ``cideals`` that are
    not modules."""
    import inspect
    import pathlib
    import re

    import cideals

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    namespace = {}
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    assert [res.statement for res in namespace["results"]] == list(StatementId)
    exports = section.split("The package exports:", 1)[1].split("\n\n", 2)[1]
    named = re.findall(r"`([^`]*)`", exports)
    public = {name for name, value in vars(cideals).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(named) == len(set(named))
    assert set(named) == public


def test_separate_and_corpus_machine_lines_follow_their_records(tmp_path, capsys):
    """``separate`` and ``corpus`` print their machine lines from
    ``MACHINE_RECORDS``: each line holds its record's keys in order, and each
    token reads back with its field's type over its instance's names."""
    from cideals import builtin_corpus
    from cideals.io import MACHINE_RECORDS

    assert main(["corpus", "--emit", str(tmp_path)]) == 0
    fig4 = str(tmp_path / "fig4.poset")
    runs = [
        (["separate", fig4, "--ideal", "e'", "--filter", "b", "--mode", "second"], 0),  # a witness
        (["separate", fig4, "--ideal", "L(0)", "--filter", "U(1)", "--mode", "first"], 4),  # NoCCondition
        (["corpus"], 0),  # fig3 diverges from its published prime filters
    ]
    lines = []
    for argv, code in runs:
        capsys.readouterr()
        assert main([*argv, "--format", "machine"]) == code
        lines += capsys.readouterr().out.splitlines()
    elements = {entry.name: frozenset(entry.poset.names) for entry in builtin_corpus()}
    for line in lines:
        kind, rest = line.split(": ", 1)
        tokens = dict(field.split("=", 1) for field in rest.split(" "))
        assert list(tokens) == [key for key, _ in MACHINE_RECORDS[kind]], line
        instance = tokens.get("instance", tokens.get("name", "fig4"))
        for key, t in MACHINE_RECORDS[kind]:
            t.read(tokens[key], elements[instance])  # raises on a token not of its type
    assert {line.split(":", 1)[0] for line in lines} == {"separation", "corpus", "divergence"}
    assert ["witness=none" in line for line in lines[:2]] == [False, True]


def test_separate_unknown_element_exit_3(tmp_path, capsys):
    assert main(["corpus", "--emit", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(
        ["separate", str(tmp_path / "fig1.poset"), "--ideal", "zz", "--filter", "b"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "unknown element" in err
