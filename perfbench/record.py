#!/usr/bin/env python3
"""Record the seed-0 output digests and the environment in meta.json.

Run from the root of a checkout:

    python3 perfbench/record.py

Runs one untraced pass of every workload at seed 0, checks every output with
the oracle, and rewrites the ``digests`` and ``environment`` entries of
``meta.json``, keeping the rest.  Re-record only for a reviewed change of
output; the benchmark fails every run whose outputs differ from the record.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import shutil
import sys

import run


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.machine()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    meta = json.loads(run.META.read_text())
    scratch = run.ROOT / ".perfbench" / f"record-{os.getpid()}"
    digests = {}
    try:
        for workload in run.WORKLOADS:
            inputs = scratch / workload
            plan = run.in_child(functools.partial(run.setup_unit, workload, 0, inputs, False))["plan"]
            records = run.run_pass(plan, inputs)["records"]
            verifier = run.Verifier(plan)
            problems = [(op["key"], verifier(op, rec)) for op, rec in zip(plan["ops"], records)]
            problems = [p for p in problems if p[1]]
            if problems:
                print(f"{workload}: {len(problems)} wrong outputs, first {problems[0]}", file=sys.stderr)
                return 1
            ops = {op["key"]: run.op_digest(rec) for op, rec in zip(plan["ops"], records)}
            digests[workload] = {"ops": ops}
            print(f"{workload}: {len(ops)} outputs recorded")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    import cideals

    meta["environment"] = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "enumeration_budget": cideals.DEFAULT_BUDGET,
    }
    meta["digests"] = digests
    run.META.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
