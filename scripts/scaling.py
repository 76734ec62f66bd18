#!/usr/bin/env python3
"""Seconds per size of the LEM_CL_PRINCIPAL check and of ``analyze``.

Two instance families, each run on its first ``SIZES`` sizes:

- ``boolean``: the Boolean lattices B4, B5, ..., B8, with set complement;
- ``antichain``: bounds plus a k-antichain, k = 16, 32, ..., 256, whose
  complement shifts each middle element to the next.

On each instance two stages are timed:

- ``principal``: the LEM_CL_PRINCIPAL verdict on the poset and on its order
  dual, ``OrderFacts.principal_walk``: the witness family and one
  ``is_ideal`` pass per member;
- ``analyze``: ``build_report`` and ``render_machine``, the work of
  ``cideals analyze --format machine`` past parsing.

Every verdict is kept on the object it describes, so each run builds the
instance afresh, outside the timed part; a time is the least of
``REPEAT`` runs.  The script prints one row per size, then per family
and stage the log-log slope between the two largest sizes,
log(t2/t1) / log(n2/n1) with n the number of elements: 2 means the stage
grows as n^2.

Usage: PYTHONPATH=src python3 scripts/scaling.py
"""

import importlib.util
import math
import sys
import time
from pathlib import Path

from cideals import build_report, render_machine

_spec = importlib.util.spec_from_file_location("machine_digests", Path(__file__).with_name("machine_digests.py"))
_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_digests)


def principal(instance):
    p = instance.poset
    return p.facts.principal_walk, p.dual().facts.principal_walk


def analyze(instance):
    return render_machine(build_report(instance))


STAGES = {"principal": principal, "analyze": analyze}
REPEAT = 3
SIZES = 5


def families(sizes):
    """family -> [(size label, builder of (elements, covers, complement))]."""
    return {
        "boolean": [(f"B{4 + e}", lambda d=4 + e: _digests.boolean_lattice(d)) for e in range(sizes)],
        "antichain": [(f"k={16 << e}", lambda k=16 << e: _digests.bounded_antichain(k)) for e in range(sizes)],
    }


def best(stage, label, spec):
    """Least seconds of ``REPEAT`` runs of ``stage``, each on a fresh instance."""
    times = []
    for _ in range(REPEAT):
        instance = _digests._instance(label, *spec())
        start = time.perf_counter()
        stage(instance)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    print(f"{'family':<10}{'size':<8}{'n':>5}" + "".join(f"{stage + '_s':>14}" for stage in STAGES))
    points = {}
    for family, sizes in families(SIZES).items():
        for label, spec in sizes:
            n = len(spec()[0])
            row = {stage: best(run, label, spec) for stage, run in STAGES.items()}
            print(f"{family:<10}{label:<8}{n:>5}" + "".join(f"{row[stage]:>14.6f}" for stage in STAGES))
            for stage, seconds in row.items():
                points.setdefault((family, stage), []).append((label, n, seconds))
    for (family, stage), rows in points.items():
        (l1, n1, t1), (l2, n2, t2) = rows[-2:]
        print(f"slope {family} {stage}: {math.log(t2 / t1) / math.log(n2 / n1):.2f} ({l1} -> {l2})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
