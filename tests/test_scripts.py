"""Smoke tests of ``scripts/random_campaign.py``, ``scripts/mutants.py`` and ``scripts/scaling.py``."""

import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

from cideals import StatementId

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
    )


def test_random_campaign_prints_every_statement_and_no_counterexample():
    run = run_script("random_campaign.py", "--seeds", "8")
    assert run.returncode == 0 and not run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("13 instances, ")  # fig1-fig4 and 8 seeds
    rows = [line.split() for line in lines[2:21]]
    assert [row[0] for row in rows] == [sid.value for sid in StatementId]
    assert all(len(row) == 3 and int(row[1]) + int(row[2]) == 13 for row in rows)
    assert lines[-1] == "no counterexamples"


def test_random_campaign_rejects_a_bad_max_size_as_a_usage_error():
    for bad in ("1", "0", "-3", "25"):
        run = run_script("random_campaign.py", "--seeds", "2", "--skip-corpus", "--max-size", bad)
        assert run.returncode == 2 and not run.stdout
        assert "Traceback" not in run.stderr
        assert f"max_size must be between 2 and 24, got {bad}" in run.stderr


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
        for stage in scaling.STAGES.values():
            assert scaling.best(stage, label, build) >= 0
