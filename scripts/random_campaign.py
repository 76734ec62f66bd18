#!/usr/bin/env python3
"""Statement-verification campaign over seeded random complemented posets.

Runs the whole statement catalog on deterministic random instances and
prints a per-statement summary (verified / not-applicable counts).  Exits
nonzero if any counterexample is found.

Usage: python scripts/random_campaign.py [--seeds 200] [--max-size 10] [--skip-corpus]
"""

import argparse
import collections
import sys
import time

from cideals import BadSize, StatementId, builtin_corpus, random_complemented_poset, run_all


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--max-size", type=int, default=10)
    parser.add_argument("--skip-corpus", action="store_true")
    args = parser.parse_args()

    instances = []
    if not args.skip_corpus:
        instances += [(e.name, e.cp) for e in builtin_corpus()]
    try:
        for seed in range(1, args.seeds + 1):
            cp, profile = random_complemented_poset(seed, max_size=args.max_size)
            instances.append((f"seed{seed}({'+'.join(sorted(profile)) or 'free'})", cp))
    except BadSize as exc:
        parser.error(str(exc))

    verified = collections.Counter()
    skipped = collections.Counter()
    failures = []
    started = time.perf_counter()
    for label, cp in instances:
        for result in run_all(cp):
            if result.conclusion_holds is False:
                failures.append((label, result))
            elif result.hypotheses_met:
                verified[result.statement] += 1
            else:
                skipped[result.statement] += 1
    elapsed = time.perf_counter() - started

    print(f"{len(instances)} instances, {elapsed:.2f}s")
    print(f"{'statement':<22} {'verified':>9} {'n/a':>6}")
    for sid in StatementId:
        print(f"{sid.value:<22} {verified[sid]:>9} {skipped[sid]:>6}")
    if failures:
        print(f"\n{len(failures)} COUNTEREXAMPLES:")
        for label, result in failures:
            print(f"  {label} {result.statement.value}: {result.counterexample}")
        return 1
    print("\nno counterexamples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
