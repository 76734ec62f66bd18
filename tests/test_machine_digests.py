"""Smoke test of ``scripts/machine_digests.py`` on the built-in corpus, its
read-many ``api`` replay and its ``separate`` runs, and the byte-identity
gate: each group's output hashes to its line in ``machine_digests.sha256``.

Every group runs once per session, all of them in one interpreter, in
``shared_runs``, and the gate and the coverage tests read that run; the
reproducibility tests compare it with one fresh run of the script on one
group, which also shows that a group's output does not depend on the groups
run before it in the same interpreter."""

import hashlib
import json
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
SCRIPT_PATH = str(ROOT / "scripts" / "machine_digests.py")
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

#: imports the script once and calls its ``main`` once per group named on
#: the command line, as a run of the script on that group alone would;
#: prints {group: [exit code, stdout, stderr]} as JSON
DRIVER = """
import contextlib, io, json, runpy, sys, traceback
path, groups = sys.argv[1], sys.argv[2:]
main, results = runpy.run_path(path)["main"], {}
for group in groups:
    sys.argv, out, err = [path, group], io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main()
        except Exception:
            traceback.print_exc()
            code = 1
    results[group] = code, out.getvalue(), err.getvalue()
json.dump(results, sys.stdout)
"""


def run_script(*groups):
    return subprocess.run([sys.executable, SCRIPT_PATH, *groups], env=ENV, capture_output=True, text=True)


@cache
def shared_runs():
    """Every group of the script, run once per session in one interpreter:
    group -> its exit code, stdout and stderr, as a run of that group alone
    reports them."""
    driver = subprocess.run([sys.executable, "-c", DRIVER, SCRIPT_PATH, *SCRIPT.GROUPS],
                            env=ENV, capture_output=True, text=True)
    assert driver.returncode == 0 and not driver.stderr, driver.stderr
    return {group: subprocess.CompletedProcess([SCRIPT_PATH, group], *result)
            for group, result in json.loads(driver.stdout).items()}


def shared_run(group):
    return shared_runs()[group]


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
        assert result.returncode == 0 and not result.stderr, f"group {group!r} failed: {result.stderr}"
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


def test_large_group_runs_every_command_on_the_four_large_instances():
    result = shared_run("large")
    assert result.returncode == 0 and not result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    names = ("B6", "B7", "antichain20", "antichain40")
    assert [row[:2] for row in rows] == [[c, name] for name in names for c in COMMANDS]
    assert all(len(row) == 3 and len(row[2]) == 64 for row in rows)
