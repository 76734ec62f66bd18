"""Smoke tests of ``scripts/random_campaign.py`` and ``scripts/corpus_report.py``."""

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


def test_corpus_report_machine_names_each_instance_and_the_fig3_divergence():
    run = run_script("corpus_report.py", "--format", "machine")
    assert run.returncode == 0 and not run.stderr
    lines = run.stdout.splitlines()
    headers = [line for line in lines if line.startswith("report: ")]
    assert headers == [f"report: {name}" for name in ("fig1", "fig2a", "fig2b", "fig3", "fig4")]
    notes = [line for line in lines if line.startswith("# NOTE")]
    assert notes == [
        "# NOTE fig3: computed prime_filters {a,d} diverges from the published list {a,b}"
    ]
