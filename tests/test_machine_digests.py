"""Smoke test of ``scripts/machine_digests.py`` on the built-in corpus, its
read-many ``api`` replay and its ``separate`` runs, and the byte-identity
gate: each group's output hashes to its line in ``machine_digests.sha256``.

Each group runs once per session, in ``shared_run``, and the gate and the
coverage tests read that run; the reproducibility tests compare it with one
fresh run."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from functools import cache

from cideals import builtin_corpus
from conftest import ROOT, SCRIPT

CORPUS = ("fig1", "fig2a", "fig2b", "fig3", "fig4")
COMMANDS = ("analyze", "check", "ideals", "filters")
MODES = ("first", "prime", "second")
FORMATS = ("text", "machine")


def run_script(*groups):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "machine_digests.py"), *groups],
        env=env,
        capture_output=True,
        text=True,
    )


#: one run per group, made on first request and shared by the tests below
shared_run = cache(run_script)


def test_corpus_digests_are_reproducible():
    first, second = shared_run("corpus"), run_script("corpus")
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
    first, second = shared_run("api"), run_script("api")
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


def test_separate_group_covers_every_cone_pair(fig4, tmp_path, monkeypatch):
    result = shared_run("separate")
    assert result.returncode == 0 and not result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert all(len(row) == 3 and row[0] == "separate" and len(row[2]) == 64 for row in rows)
    corpus = {entry.name: entry.poset.names for entry in builtin_corpus()}
    assert [row[1] for row in rows] == [
        f"{name}:{mode}:{fmt}:L({x}):U({y})"
        for name in CORPUS
        for mode in MODES
        for fmt in FORMATS
        for x in corpus[name]
        for y in corpus[name]
    ]
    assert len(rows) == 2484
    # a fresh in-process run of a sample of the same commands gives the
    # same digests, and the text and machine outputs of a run differ
    monkeypatch.chdir(tmp_path)
    digests = {key: sha for _command, key, sha in rows}
    path = SCRIPT.write_instance(SCRIPT.Instance("fig4", fig4.poset, fig4.cp))
    for mode in MODES:
        for x, y in (("e'", "b"), ("0", "1"), ("b", "b")):
            key = f"fig4:{mode}:{{}}:L({x}):U({y})"
            for fmt in FORMATS:
                argv = ["separate", path, "--ideal", f"L({x})", "--filter", f"U({y})", "--mode", mode, "--format", fmt]
                assert SCRIPT.digest(argv) == digests[key.format(fmt)]
            assert digests[key.format("text")] != digests[key.format("machine")]


def test_every_group_matches_its_recorded_digest():
    """Every machine output, exit code, stderr and library answer the
    script covers is byte-identical to the recorded one.  When output
    changes on purpose, re-record the file as README's Scripts section says.
    A group the script runs by default needs a recorded digest."""
    recorded = {}
    for line in (ROOT / "tests" / "machine_digests.sha256").read_text().splitlines():
        sha, group = line.split()
        recorded[group] = sha
    assert list(recorded) == list(SCRIPT.GROUPS)
    for group, sha in recorded.items():
        result = shared_run(group)
        assert result.returncode == 0 and not result.stderr
        got = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
        assert got == sha, f"group {group!r} differs from its recorded digest"


def test_gen_group_covers_every_run():
    result = shared_run("gen")
    assert result.returncode == 0 and not result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert all(len(row) == 3 and len(row[2]) == 64 for row in rows)
    profiles = ("-", "antitone", "involution", "antitone,involution")
    assert [row[:2] for row in rows] == (
        [["gen", f"{n}:{seed}:{p}:-"] for n in range(2, 25) for seed in range(8) for p in profiles]
        + [["gen", f"{n}:0:-:{d}"] for n in range(2, 25) for d in ("0", "1")]
        + [["corpus", fmt] for fmt in FORMATS]
    )
    assert len(rows) == 784
    # an odd size admits no involution: exit 4, nothing on stdout, one line on stderr
    for _gen, key, sha in rows[:-2]:
        n, seed, require, _density = key.split(":")
        if int(n) % 2 and "involution" in require:
            err = f"no complementation found for size={n} seed={seed} require={require}\n"
            payload = f"exit=4\n--stdout--\n--stderr--\n{err}"
            assert sha == hashlib.sha256(payload.encode("utf-8")).hexdigest()
