"""Smoke test of ``scripts/machine_digests.py`` on the built-in corpus."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ("fig1", "fig2a", "fig2b", "fig3", "fig4")
COMMANDS = ("analyze", "check", "ideals", "filters")


def run_script(*groups):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "machine_digests.py"), *groups],
        env=env,
        capture_output=True,
        text=True,
    )


def test_corpus_digests_are_reproducible():
    first, second = run_script("corpus"), run_script("corpus")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and not first.stderr
    rows = [line.split() for line in first.stdout.splitlines()]
    assert [row[:2] for row in rows] == [[c, name] for name in CORPUS for c in COMMANDS]
    assert all(len(row) == 3 and len(row[2]) == 64 for row in rows)
    assert len({row[2] for row in rows}) == len(rows)


def test_unknown_group_is_refused():
    result = run_script("corpus", "nope")
    assert result.returncode == 2 and not result.stdout
    assert "unknown group 'nope'" in result.stderr
