"""Smoke tests of ``scripts/random_campaign.py``, ``scripts/mutants.py`` and ``scripts/scaling.py``."""

import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

from cideals import StatementId

ROOT = Path(__file__).resolve().parents[1]


def test_random_campaign_prints_every_statement_and_no_counterexample():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "random_campaign.py")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0 and not run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("205 instances, ")  # fig1-fig4 and 200 seeds
    rows = [line.split() for line in lines[2:21]]
    assert [row[0] for row in rows] == [sid.value for sid in StatementId]
    assert all(len(row) == 3 and int(row[1]) + int(row[2]) == 205 for row in rows)
    assert lines[-1] == "no counterexamples"


def _mutants_script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_matches_its_file_once_and_names_existing_tests():
    mutants = _mutants_script()
    assert mutants.mismatches() == []
    for entry in mutants.MUTANTS:
        assert entry.old != entry.new and entry.killers
        for killer in entry.killers:
            path, _, name = killer.partition("::")
            assert f"def {name.partition('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8"), killer
    for entry in mutants.EQUIVALENT:
        assert entry.old != entry.new and entry.proof


def test_mutation_gate_kills_a_mutant_and_fails_on_a_survivor_or_a_stale_entry():
    """One listed mutant against one of its killers, then the same edit made
    harmless (a survivor) and an entry whose old text no longer matches."""
    mutants = _mutants_script()
    listed = next(m for m in mutants.MUTANTS if m.file == "src/cideals/cli.py")
    killer = ("tests/test_cli.py::test_argument_forms_answer_as_recorded"
              "[gen --size 6 --seed 1 --density x]",)
    entries = (
        listed._replace(killers=killer),
        listed._replace(new=listed.old + " ", killers=killer),
        listed._replace(old=listed.old + "#stale"),
    )
    out = io.StringIO()
    assert mutants.run(entries, out=out) == 1
    rows = out.getvalue().splitlines()
    assert rows[0] == "#3 src/cideals/cli.py: old text found 0 times"
    assert rows[1].startswith("#1  killed   src/cideals/cli.py: ")
    assert rows[2].startswith("#2  survived src/cideals/cli.py: ")
    assert rows[-1] == "3 mutants: 1 killed, 1 survived, 0 errors, 1 not matched"


def test_mutation_gate_lists_the_equivalent_mutants_and_fails_on_a_stale_one():
    """The equivalent entries are listed with their proofs and not run; one
    whose old text no longer matches fails the run."""
    mutants = _mutants_script()
    listed = mutants.EQUIVALENT[0]
    out = io.StringIO()
    assert mutants.run((), out=out, equivalent=(listed,)) == 0
    assert out.getvalue().splitlines() == [
        f"=1  equivalent {listed.file}: {listed.proof}",
        "0 mutants: 0 killed, 0 survived, 0 errors, 0 not matched",
    ]
    out = io.StringIO()
    assert mutants.run((), out=out, equivalent=(listed._replace(old=listed.old + "#stale"),)) == 1
    assert out.getvalue().splitlines()[0] == f"equivalent #1 {listed.file}: old text found 0 times"


def test_scaling_times_each_stage_on_the_smallest_sizes():
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "scripts" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    firsts = scaling.families(1)
    assert {family: [(label, len(build()[0])) for label, build in sizes] for family, sizes in firsts.items()} == {
        "boolean": [("B4", 16)], "antichain": [("k=16", 18)]}
    for (label, build), in firsts.values():
        for name, stage in scaling.STAGES.items():
            assert scaling.best(stage, label, build) >= 0
            calls, members, lanes = scaling.counted(stage, label, build)
            assert scaling.counted(stage, label, build) == (calls, members, lanes)
            # the walk decides its n + (incomparable pairs) sets as lanes, with no is_ideal call
            assert lanes == {"B4": 2 * 71, "k=16": 2 * 138}[label]
            assert (calls == members == 0) if name == "principal" else (0 < calls < members)
    rows = [("B4", 16, (0.001, 0, 0, 142)), ("B5", 32, (0.004, 0, 0, 634))]
    assert scaling.slope_line("boolean", "principal", rows) == "slope boolean principal: time 2.00, lanes 2.16 (B4 -> B5)"
