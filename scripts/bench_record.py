#!/usr/bin/env python3
"""Record the benchmark's numbers at one commit, or compare two records.

Run from anywhere in a checkout:

    python3 scripts/bench_record.py --out BENCH_<n>.json
    python3 scripts/bench_record.py --compare BENCH_<a>.json BENCH_<b>.json

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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"
SPEC = ROOT / "BENCHMARK.json"
SEEDS = tuple(range(10))
SECONDS = 15
TRACE_SEED = 0


def bench(workload: str, seed: int, trace: int) -> dict:
    """The JSON result of one benchmark run; exits on a failed or wrong run."""
    argv = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
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
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, metavar="PATH", help="record every workload into PATH")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare record B with record A")
    args = parser.parse_args()
    return record(args.out) if args.out else compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
