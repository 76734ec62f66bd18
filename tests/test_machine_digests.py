"""Smoke test of ``scripts/machine_digests.py`` on the built-in corpus and
its read-many ``api`` replay."""

import os
import subprocess
import sys
from collections import Counter
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


def test_api_replay_is_reproducible():
    first, second = run_script("api"), run_script("api")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and not first.stderr
    rows = [line.split() for line in first.stdout.splitlines()]
    assert all(len(row) == 3 and row[0] == "api" and len(row[2]) == 64 for row in rows)
    keys = [row[1].split(":") for row in rows]
    assert [int(key[0]) for key in keys] == list(range(len(rows)))
    objects = {*CORPUS, "B4", "antichain10"}
    calls = Counter(key[1] for key in keys)
    assert calls == {"check": 19 * len(objects), "separate": 4 * 3 * len(objects), "classify": 12 * len(objects)}
    assert {key[2] for key in keys} == objects
    assert [key[1] for key in keys] != sorted(key[1] for key in keys)  # shuffled
