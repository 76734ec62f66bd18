#!/usr/bin/env python3
"""Record the benchmark's numbers at one commit, compare two records, or
record paired runs of two commits.

Run from anywhere in a checkout:

    python3 scripts/bench_record.py --out BENCH_<n>.json
    python3 scripts/bench_record.py --compare BENCH_<a>.json BENCH_<b>.json
    python3 scripts/bench_record.py --pair PARENT CHANGE --workload W --seed S \
        [--claim METRIC] --out PAIR_<n>.json

Recording runs ``perfbench/run.py`` of this checkout, unchanged, on each
workload: once untraced for every seed in ``SEEDS`` at ``SECONDS`` seconds,
then once traced at ``TRACE_SEED``.  The file holds, per workload, the
median and quartiles of each end-to-end metric over the untraced runs and
the per-layer metrics of the traced run, with the seeds, the Python version,
the core count and the commit.  It takes about 13 minutes on 2 cores.  The
script exits 1, and writes nothing, unless every run reports
``"correct": true``.

Comparing prints, per workload and end-to-end metric, the two medians, the
ratio b/a, the change in the worse direction and the metric's bound from
``BENCHMARK.json``; it exits 1 when a ratio passes its bound.  Two records
are taken at different times, so host drift alone can move a ratio: the
exit code is a drift alarm, not a regression gate, and a speed claim still
cites at least 10 alternating parent/change pairs of runs.

Pairing extracts the committed files of both revisions (``git archive``)
into a temporary directory and refuses to run when their ``perfbench/`` or
``BENCHMARK.json`` differ.  Each of ``PAIRS`` pairs runs both sides' own
``perfbench/run.py`` untraced at ``SECONDS`` seconds, one after the other,
with every ``__pycache__`` removed before each run; the side that runs
first alternates, the parent first in the first pair.  The record holds both
commits, each pair's end-to-end metrics and, per metric, both sides'
median and quartiles, the number of pairs the change won and the parent's
interquartile range.  ``--claim METRIC`` prints whether a gain in METRIC
holds: the change better in at least 9 of every 10 pairs, and its median
better by more than the parent's interquartile range.  The script exits 1,
and writes nothing, unless every run reports ``"correct": true``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
SEEDS = tuple(range(10))
SECONDS = 15
TRACE_SEED = 0
#: the paired runs of ``--pair``, the fewest a speed claim cites
PAIRS = 10


def bench(workload: str, seed: int, trace: int, root: Path = ROOT) -> dict:
    """The metrics of one run of ``root``'s benchmark; exits on a failed or wrong run."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if result.get("correct") is not True:
        sys.exit(f"{workload} seed {seed} trace {trace}: not correct (exit {done.returncode}): "
                 + (done.stderr.strip() or "; ".join(line for line in lines if line.startswith("# problems"))))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def better(metric: dict, change: float, parent: float) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def pair(parent: str, change: str, workload: str, seed: int, claim: str | None, path: Path) -> int:
    spec = json.loads(SPEC.read_text())
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in
               (("parent", parent), ("change", change))}
    if not all(commits.values()):
        sys.exit(f"not a commit: {parent if not commits['parent'] else change}")
    if git("diff", "--name-only", commits["parent"], commits["change"], "--", "perfbench", "BENCHMARK.json"):
        sys.exit("perfbench/ or BENCHMARK.json differ between the revisions: a change to the benchmark claims no gain")
    names = [metric["name"] for metric in spec["end_to_end"]]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in commits}
        for side, root in roots.items():
            root.mkdir()
            archive = subprocess.run(["git", "archive", commits[side]], cwd=ROOT, capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", str(root)], input=archive.stdout, check=True)
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            run = {"first": order[0]}
            for side in order:
                for cache in list(roots[side].rglob("__pycache__")):
                    shutil.rmtree(cache)
                metrics = bench(workload, seed, 0, roots[side])
                run[side] = {name: metrics[name] for name in names}
            runs.append(run)
            print(f"pair {k + 1}: wall_s parent {run['parent']['wall_s']:.4f} change {run['change']['wall_s']:.4f}",
                  file=sys.stderr)
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sides = {side: quartiles([run[side][name] for run in runs]) for side in commits}
        summary[name] = {
            **sides,
            "change_better": sum(better(metric, run["change"][name], run["parent"][name]) for run in runs),
            "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
        }
    out = {
        "parent": commits["parent"],
        "change": commits["change"],
        "workload": workload,
        "seed": seed,
        "seconds": SECONDS,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "runs": runs,
        "metrics": summary,
    }
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for name, stats in summary.items():
        old, new = stats["parent"]["median"], stats["change"]["median"]
        print(f"{name:<13} {old:>10.4g} {new:>10.4g} {new / old if old else 1.0:>7.3f} "
              f"{stats['change_better']:>3}/{PAIRS} better, parent IQR {stats['parent_iqr']:.4g}")
    if claim:
        print(f"claim {claim}: {'holds' if claim_holds(spec, summary, claim) else 'does not hold'}")
    return 0


def claim_holds(spec: dict, summary: dict, name: str) -> bool:
    """A gain in ``name``: the change better in at least 9 of every 10
    pairs, and its median better by more than the parent's IQR."""
    metric = next(m for m in spec["end_to_end"] if m["name"] == name)
    stats = summary[name]
    gap = stats["parent"]["median"] - stats["change"]["median"]
    gap = gap if metric["better"] == "lower" else -gap
    return 10 * stats["change_better"] >= 9 * PAIRS and gap > stats["parent_iqr"]


def record(path: Path) -> int:
    spec = json.loads(SPEC.read_text())
    workloads = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = []
        for seed in SEEDS:
            runs.append(bench(name, seed, 0))
            print(f"{name} seed {seed}: wall_s {runs[-1]['wall_s']:.4f}", file=sys.stderr)
        workloads[name] = {
            "end_to_end": {m["name"]: quartiles([run[m["name"]] for run in runs]) for m in spec["end_to_end"]},
            "per_layer": bench(name, TRACE_SEED, 1),
        }
    out = {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "trace_seed": TRACE_SEED,
        "workloads": workloads,
    }
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def compare(a_path: Path, b_path: Path) -> int:
    spec = json.loads(SPEC.read_text())
    a, b = json.loads(a_path.read_text()), json.loads(b_path.read_text())
    print(f"{a_path.name} ({a['commit'][:7]}) -> {b_path.name} ({b['commit'][:7]})")
    print(f"{'workload':<10} {'metric':<13} {'a':>10} {'b':>10} {'b/a':>7} {'worse':>7} {'bound':>6}")
    status = 0
    for workload in a["workloads"]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = a["workloads"][workload]["end_to_end"][name]["median"]
            new = b["workloads"][workload]["end_to_end"][name]["median"]
            ratio = new / old if old else 1.0
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            flag = "" if worse <= metric["bound"] else "  PAST BOUND"
            status |= bool(flag)
            print(f"{workload:<10} {name:<13} {old:>10.4g} {new:>10.4g} {ratio:>7.3f} {worse:>+7.1%} "
                  f"{metric['bound']:>6.0%}{flag}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, metavar="PATH", help="write the record, or with --pair the pair record, to PATH")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare record B with record A")
    mode.add_argument("--pair", nargs=2, metavar=("PARENT", "CHANGE"), help="paired runs of two revisions")
    parser.add_argument("--workload", help="the workload of --pair")
    parser.add_argument("--seed", type=int, help="the seed of --pair")
    parser.add_argument("--claim", metavar="METRIC", help="print whether --pair shows a gain in METRIC")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("--out is required unless --compare is given")
    if not args.pair:
        return record(args.out)
    spec = json.loads(SPEC.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]] or args.seed is None:
        parser.error("--pair needs --workload of BENCHMARK.json and --seed")
    if args.claim and args.claim not in [m["name"] for m in spec["end_to_end"]]:
        parser.error(f"--claim: no end-to-end metric {args.claim!r}")
    return pair(*args.pair, args.workload, args.seed, args.claim, args.out)


if __name__ == "__main__":
    sys.exit(main())
