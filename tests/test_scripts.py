"""Smoke tests of ``scripts/random_campaign.py``."""

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

