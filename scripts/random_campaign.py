#!/usr/bin/env python3
"""Statement-verification campaign over seeded random complemented posets.

Runs the whole statement catalog on fig1-fig4 and on the deterministic
random instances of campaign seeds 1-200, and prints a per-statement
summary (verified / not-applicable counts).  Exits nonzero if any
counterexample is found.

Usage: python scripts/random_campaign.py
"""

import collections
import sys
import time

from cideals import StatementId, builtin_corpus, random_complemented_poset, run_all

SEEDS = range(1, 201)


def main() -> int:
    instances = [(e.name, e.cp) for e in builtin_corpus()]
    for seed in SEEDS:
        cp, profile = random_complemented_poset(seed)
        instances.append((f"seed{seed}({'+'.join(sorted(profile)) or 'free'})", cp))

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
