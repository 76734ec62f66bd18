#!/usr/bin/env python3
"""Seconds and counted calls per size of the LEM_CL_PRINCIPAL check and of
``analyze``.

Two instance families, each run on its first ``SIZES`` sizes:

- ``boolean``: the Boolean lattices B4, B5, ..., B9, with set complement;
- ``antichain``: bounds plus a k-antichain, k = 16, 32, ..., 512, whose
  complement shifts each middle element to the next.

On each instance two stages are timed and counted:

- ``principal``: the LEM_CL_PRINCIPAL verdict on the poset and on its order
  dual, ``OrderFacts.principal_walk``: the witness family as lanes and one
  ``ideal_lanes`` call per side;
- ``analyze``: ``build_report`` and ``render_machine``, the work of
  ``cideals analyze --format machine`` past parsing.

Every verdict is kept on the object it describes, so each run builds the
instance afresh, outside the timed part; a time is the least of
``REPEAT`` runs.  One more run counts the definition-level ``is_ideal``
calls, through ``substructures`` and ``harness``, with the members of the
sets they test, which bound the loop iterations, and the lanes that
``ideal_lanes`` decides, the sets its columns hold.  The counts repeat
exactly from run to run and host to host, where the times do not.  The
script prints one row per size, then per family and stage the log-log
slope of the time and of each count between the two largest sizes,
log(t2/t1) / log(n2/n1) with n the number of elements: 2 means the stage
grows as n^2.  A count that is zero at either size has no slope, and is
left out of the line.

Usage: PYTHONPATH=src python3 scripts/scaling.py
"""

import functools
import importlib.util
import math
import operator
import sys
import time
from pathlib import Path

from cideals import build_report, harness, render_machine, substructures

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
SIZES = 6


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


def counted(stage, label, spec):
    """(``is_ideal`` calls, members of the sets tested, lanes decided by
    ``ideal_lanes``) of one run of ``stage`` on a fresh instance."""
    calls = members = lanes = 0
    original, original_lanes = substructures.is_ideal, substructures.ideal_lanes

    def counting(p, mask):
        nonlocal calls, members
        calls, members = calls + 1, members + mask.bit_count()
        return original(p, mask)

    def counting_lanes(p, columns):
        nonlocal lanes
        lanes += functools.reduce(operator.or_, columns, 0).bit_count()
        return original_lanes(p, columns)

    instance = _digests._instance(label, *spec())
    substructures.is_ideal = harness.is_ideal = counting
    substructures.ideal_lanes = counting_lanes
    try:
        stage(instance)
    finally:
        substructures.is_ideal = harness.is_ideal = original
        substructures.ideal_lanes = original_lanes
    return calls, members, lanes


def slope_line(family, stage, rows) -> str:
    """The slopes of ``stage`` between the last two of ``rows``, each
    (label, n, (seconds, *counts)), leaving out a count that is zero at
    either size."""
    (l1, n1, v1), (l2, n2, v2) = rows[-2:]
    slopes = [f"{name} {math.log(b / a) / math.log(n2 / n1):.2f}"
              for name, a, b in zip(("time", "calls", "members", "lanes"), v1, v2) if a and b]
    return f"slope {family} {stage}: {', '.join(slopes)} ({l1} -> {l2})"


def main() -> int:
    print(f"{'family':<10}{'size':<8}{'n':>5}"
          + "".join(f"{stage + '_s':>14}{'calls':>9}{'members':>12}{'lanes':>9}" for stage in STAGES))
    points = {}
    for family, sizes in families(SIZES).items():
        for label, spec in sizes:
            n = len(spec()[0])
            row = {stage: (best(run, label, spec), *counted(run, label, spec)) for stage, run in STAGES.items()}
            print(f"{family:<10}{label:<8}{n:>5}"
                  + "".join(f"{t:>14.6f}{calls:>9}{members:>12}{lanes:>9}" for t, calls, members, lanes in row.values()))
            for stage, values in row.items():
                points.setdefault((family, stage), []).append((label, n, values))
    for (family, stage), rows in points.items():
        print(slope_line(family, stage, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
