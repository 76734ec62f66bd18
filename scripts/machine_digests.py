#!/usr/bin/env python3
"""One sha256 per machine-format CLI output over a fixed instance set.

For each instance, runs ``analyze``, ``check``, ``ideals`` and ``filters``
with ``--format machine`` in process and prints one line per output::

    <command> <instance> <sha256 of the exit code, stdout and stderr>

Instance groups, in output order:

- ``corpus``: the built-in instances fig1, fig2a, fig2b, fig3, fig4;
- ``campaign``: ``random_complemented_poset(seed)`` for seeds 1-200;
- ``boolean``: the Boolean lattices B2-B5 with set complement;
- ``antichain``: bounds plus a k-antichain, k = 8-16, whose complement
  shifts each middle element to the next.

All four groups give 218 instances and 872 outputs.  Two commits produce
the same machine outputs, exit codes and stderr included, exactly when
the outputs of this script run at each of them are identical::

    PYTHONPATH=src python3 scripts/machine_digests.py > digests.txt
    PYTHONPATH=src python3 scripts/machine_digests.py corpus boolean

Instance files are written to a temporary directory and named by relative
path, so the output does not depend on where that directory is.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

from cideals import Instance, attach_complementation, build_poset, builtin_corpus
from cideals import emit_instance, random_complemented_poset
from cideals.cli import main as cli_main

COMMANDS = ("analyze", "check", "ideals", "filters")
CAMPAIGN_SEEDS = range(1, 201)
BOOLEAN_DIMS = range(2, 6)
ANTICHAIN_KS = range(8, 17)


def _instance(name, elements, covers, comp):
    poset = build_poset(elements, covers)
    return Instance(name, poset, attach_complementation(poset, comp))


def boolean_lattice(dim):
    """All subsets of a dim-set under inclusion, with set complement."""
    elements = [f"s{m:0{dim}b}" for m in range(1 << dim)]
    full = (1 << dim) - 1
    covers = [
        (elements[m], elements[m | 1 << b])
        for m in range(1 << dim)
        for b in range(dim)
        if not m >> b & 1
    ]
    comp = {elements[m]: elements[full ^ m] for m in range(1 << dim)}
    return _instance(f"B{dim}", elements, covers, comp)


def bounded_antichain(k):
    """Bounds plus a k-antichain; the complement shifts x_i to x_{i+1 mod k}."""
    mids = [f"x{i}" for i in range(k)]
    covers = [("0", m) for m in mids] + [(m, "1") for m in mids]
    comp = {"0": "1", "1": "0", **{m: mids[(i + 1) % k] for i, m in enumerate(mids)}}
    return _instance(f"antichain{k}", ["0", *mids, "1"], covers, comp)


def _campaign():
    for seed in CAMPAIGN_SEEDS:
        cp, _profile = random_complemented_poset(seed)
        yield Instance(f"seed{seed}", cp.poset, cp)


GROUPS = {
    "corpus": lambda: (Instance(e.name, e.poset, e.cp) for e in builtin_corpus()),
    "campaign": _campaign,
    "boolean": lambda: (boolean_lattice(d) for d in BOOLEAN_DIMS),
    "antichain": lambda: (bounded_antichain(k) for k in ANTICHAIN_KS),
}


def digest(argv):
    """sha256 of the exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    payload = f"exit={code}\n--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run(groups):
    """Yield one output line per (instance, command); instance files are
    written to the current directory."""
    for group in groups:
        for instance in GROUPS[group]():
            path = f"{instance.name}.poset"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(emit_instance(instance))
            for command in COMMANDS:
                yield f"{command} {instance.name} {digest([command, path, '--format', 'machine'])}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"instance groups to run, of {', '.join(GROUPS)} (default: all)")
    args = parser.parse_args()
    unknown = sorted(set(args.groups).difference(GROUPS))
    if unknown:
        parser.error(f"unknown group {unknown[0]!r}")
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for line in run(args.groups or list(GROUPS)):
                print(line)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
