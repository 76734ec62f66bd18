#!/usr/bin/env python3
"""One sha256 per CLI output or library answer over a fixed instance set.

For each instance, runs ``analyze``, ``check``, ``ideals`` and ``filters``
with ``--format machine`` in process and prints one line per output::

    <command> <instance> <sha256 of the exit code, stdout and stderr>

Instance groups, in output order:

- ``corpus``: the built-in instances fig1, fig2a, fig2b, fig3, fig4;
- ``campaign``: ``random_complemented_poset(seed)`` for seeds 1-200;
- ``boolean``: the Boolean lattices B2-B5 with set complement;
- ``antichain``: bounds plus a k-antichain, k = 8-16, whose complement
  shifts each middle element to the next.

These four groups give 218 instances and 872 outputs.  One more group runs
the same four commands on instances larger than those, each decided
exactly in well under a second:

- ``large``: the Boolean lattices B6 and B7 and bounds plus a 20- and a
  40-antichain, 16 outputs.  Kept apart from ``boolean`` and ``antichain``
  so that their recorded digests stay as they are.

One more group reads
many answers from objects loaded once, which one-call-per-process CLI runs
cannot: a stale or cross-contaminated cache shows only there.

- ``api``: the corpus, B4 and bounds plus a 10-antichain, each loaded once,
  then a fixed, seeded, shuffled sequence of ``check_statement``,
  ``separate`` and ``classify`` calls on them; one line per call::

      api <index>:<call>:<instance>:<argument> <sha256 of its result or exception>

One more group covers the ``separate`` command, which the groups above
never run, and its text format, the only place its ``(= L(g))`` witness
label is printed.

- ``separate``: CLI ``separate`` on every instance of the corpus, with each
  ideal cone ``L(x)`` and each filter cone ``U(y)``, in every mode and in both
  text and machine format, 2,484 outputs; one line per output::

      separate <instance>:<mode>:<format>:L(x):U(y) <sha256 of the exit code, stdout and stderr>

One more group covers the seeded generator and the built-in corpus report,
which no group above runs from the command line.

- ``gen``: CLI ``gen`` for sizes 2-24 and seeds 0-7 under each ``--require``
  profile (none, antitone, involution, both), then at seed 0 with
  ``--density 0`` and ``1``, then ``corpus`` in text and machine format,
  784 outputs; one line per output::

      gen <size>:<seed>:<require>:<density> <sha256 of the exit code, stdout and stderr>
      corpus <format> <sha256 of the exit code, stdout and stderr>

  where ``-`` stands for no ``--require`` and for the default density.

One more group covers the text reports and the DOT rendering, which no
group above runs; ``dot`` is the one command besides ``gen`` that prints
the cover relation.

- ``text``: CLI ``analyze --format text``, ``check --format text`` and
  ``dot`` on the 218 instances of the first four groups, 654 outputs; one
  line per output::

      text <command>:<instance> <sha256 of the exit code, stdout and stderr>

One more group covers the argument forms and options that no group above
passes: the ``--class`` listings, an explicit ``--statement``, set literals
and bare tokens, ``--highlight`` and ``corpus --emit``.

- ``cli``: ``ideals``/``filters`` with every ``--class`` in both formats on
  the corpus and on fig1 without its ``comp:`` lines (the complementation
  classes exit 3 there); ``check --statement`` with each tag, and a two-tag
  list, on the corpus in both formats, then an unknown tag and the
  poset-only file; ``separate`` on fig4 with ``{...}`` literals and bare
  tokens in every mode and format; ``dot --highlight`` on fig4 with cones,
  a bare token, a literal and two highlights; ``corpus --emit`` into a
  relative directory, then the emitted files, then into a path that is a
  file; one line per output::

      cli <command>:<key> <sha256 of the exit code, stdout and stderr>
      cli emitted:<file> <sha256 of the file>

Two commits produce the same machine outputs, text reports and DOT
renderings, exit codes and stderr included, and the same library answers,
exactly when the outputs of this script run at each of them are
identical::

    PYTHONPATH=src python3 scripts/machine_digests.py > digests.txt
    PYTHONPATH=src python3 scripts/machine_digests.py corpus boolean separate

Instance files are written to a temporary directory and named by relative
path, so the output does not depend on where that directory is.

``GROUPS`` is the one table of groups, in output order: each entry yields
its group's lines.  The four instance groups run ``run_machine`` on their
entry of ``SOURCES``, the instance table that ``api``, ``separate``,
``text`` and ``cli`` read too.  ``boolean_lattice`` and
``bounded_antichain`` are the test suite's builders as well:
``tests/conftest.py`` loads them from here.  ``tests/test_machine_digests.py``
runs every group once per session, all in one interpreter that calls
``main`` once per group, and shares that run among its tests.
"""

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from functools import partial

from cideals import Instance, NotFilter, NotIdeal, StatementId, attach_complementation, build_poset
from cideals import builtin_corpus, check_statement, classify, emit_instance, random_complemented_poset, separate
from cideals.substructures import CLASSES
from cideals.cli import main as cli_main

COMMANDS = ("analyze", "check", "ideals", "filters")
CAMPAIGN_SEEDS = range(1, 201)
BOOLEAN_DIMS = range(2, 6)
ANTICHAIN_KS = range(8, 17)
LARGE_DIMS = (6, 7)
LARGE_KS = (20, 40)
API_SEED = 0
API_SEPARATION_PAIRS = 4
API_CLASSIFY = 12
SEPARATION_MODES = ("first", "prime", "second")
FORMATS = ("text", "machine")
GEN_SIZES = range(2, 25)
GEN_SEEDS = range(8)
GEN_PROFILES = ("", "antitone", "involution", "antitone,involution")
GEN_DENSITIES = ("0", "1")
CHECK_TAG_LISTS = (*(sid.value for sid in StatementId), "THM5_I_II, LEM_BOOLEAN")
SEPARATE_IDEALS = ("a", "{0,a}", "{ 0 }", "{0,a,b}", "{}")
SEPARATE_FILTERS = ("b", "{ 1, a', c', d', e, b }", "a'", "{1,a'}", "{1}")
DOT_HIGHLIGHTS = (("L(e)",), ("U(c)",), ("b",), ("{a, e'}",), ("L(e)", "U(a)"), ("{}", "1"), ("q",))
EMIT_DIR = "emitted"


def _instance(name, elements, covers, comp):
    poset = build_poset(elements, covers)
    return Instance(name, poset, attach_complementation(poset, comp))


def boolean_lattice(dim):
    """(elements, cover pairs, complement) of all subsets of a dim-set under
    inclusion, with set complement."""
    elements = [f"s{m:0{dim}b}" for m in range(1 << dim)]
    full = (1 << dim) - 1
    covers = [
        (elements[m], elements[m | 1 << b])
        for m in range(1 << dim)
        for b in range(dim)
        if not m >> b & 1
    ]
    comp = {elements[m]: elements[full ^ m] for m in range(1 << dim)}
    return elements, covers, comp


def bounded_antichain(k):
    """(elements, cover pairs, complement) of bounds plus a k-antichain; the
    complement shifts x_i to x_{i+1 mod k}."""
    mids = [f"x{i}" for i in range(k)]
    covers = [("0", m) for m in mids] + [(m, "1") for m in mids]
    comp = {"0": "1", "1": "0", **{m: mids[(i + 1) % k] for i, m in enumerate(mids)}}
    return ["0", *mids, "1"], covers, comp


def _campaign():
    for seed in CAMPAIGN_SEEDS:
        cp, _profile = random_complemented_poset(seed)
        yield Instance(f"seed{seed}", cp.poset, cp)


#: the instance sources of the four instance groups, which the other groups read too
SOURCES = {
    "corpus": lambda: (Instance(e.name, e.poset, e.cp) for e in builtin_corpus()),
    "campaign": _campaign,
    "boolean": lambda: (_instance(f"B{d}", *boolean_lattice(d)) for d in BOOLEAN_DIMS),
    "antichain": lambda: (_instance(f"antichain{k}", *bounded_antichain(k)) for k in ANTICHAIN_KS),
}


def _large():
    yield from (_instance(f"B{d}", *boolean_lattice(d)) for d in LARGE_DIMS)
    yield from (_instance(f"antichain{k}", *bounded_antichain(k)) for k in LARGE_KS)


def run_machine(source):
    """Yield one output line per machine-format command on each instance of
    ``source``."""
    for instance in source():
        path = write_instance(instance)
        for command in COMMANDS:
            yield f"{command} {instance.name} {digest([command, path, '--format', 'machine'])}"


def api_queries(objects, rng):
    """(key, call) pairs: every statement on every object, separations on
    cone pairs and arbitrary masks in every mode, and classifications of
    cones and arbitrary masks, shuffled by ``rng``."""
    queries = [
        (f"check:{name}:{sid.value}", partial(check_statement, cp, sid))
        for name, cp in objects.items()
        for sid in StatementId
    ]
    for name, cp in objects.items():
        p = cp.poset

        def pick():
            return rng.choice((p.down[rng.randrange(p.n)], p.up[rng.randrange(p.n)],
                               rng.randrange(p.all_mask + 1)))

        for _ in range(API_SEPARATION_PAIRS):
            i, f = pick(), pick()
            queries += [
                (f"separate:{name}:{mode},{i},{f}", partial(separate, cp, i, f, mode))
                for mode in SEPARATION_MODES
            ]
        for _ in range(API_CLASSIFY):
            mask = pick()
            queries.append((f"classify:{name}:{mask}", partial(classify, cp, mask)))
    rng.shuffle(queries)
    return queries


def run_api():
    """Yield one output line per call of the seeded read-many replay."""
    instances = [*SOURCES["corpus"](), _instance("B4", *boolean_lattice(4)),
                 _instance("antichain10", *bounded_antichain(10))]
    objects = {instance.name: instance.cp for instance in instances}
    for index, (key, call) in enumerate(api_queries(objects, random.Random(API_SEED))):
        try:
            payload = repr(call())
        except (NotIdeal, NotFilter) as exc:  # separate on masks outside the families
            payload = f"{type(exc).__name__}: {exc}"
        yield f"api {index:03d}:{key} {hashlib.sha256(payload.encode('utf-8')).hexdigest()}"


def write_instance(instance):
    """Write the instance file to the current directory; return its path."""
    path = f"{instance.name}.poset"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(emit_instance(instance))
    return path


def run_separate():
    """Yield one output line per CLI ``separate`` run on a pair of cones."""
    for instance in SOURCES["corpus"]():
        path = write_instance(instance)
        for mode in SEPARATION_MODES:
            for fmt in FORMATS:
                for x in instance.poset.names:
                    for y in instance.poset.names:
                        argv = ["separate", path, "--ideal", f"L({x})", "--filter", f"U({y})",
                                "--mode", mode, "--format", fmt]
                        yield f"separate {instance.name}:{mode}:{fmt}:L({x}):U({y}) {digest(argv)}"


def run_gen():
    """Yield one output line per CLI ``gen`` run and per ``corpus`` format."""
    runs = [(size, seed, require, None) for size in GEN_SIZES for seed in GEN_SEEDS for require in GEN_PROFILES]
    runs += [(size, 0, "", density) for size in GEN_SIZES for density in GEN_DENSITIES]
    for size, seed, require, density in runs:
        argv = ["gen", "--size", str(size), "--seed", str(seed)]
        argv += ["--require", require] if require else []
        argv += ["--density", density] if density else []
        yield f"gen {size}:{seed}:{require or '-'}:{density or '-'} {digest(argv)}"
    for fmt in FORMATS:
        yield f"corpus {fmt} {digest(['corpus', '--format', fmt])}"


def run_text():
    """Yield one output line per text-format ``analyze``/``check`` run and
    per ``dot`` run on the instances of the four instance groups."""
    for instances in SOURCES.values():
        for instance in instances():
            path = write_instance(instance)
            for argv in (["analyze", path, "--format", "text"], ["check", path, "--format", "text"], ["dot", path]):
                yield f"text {argv[0]}:{instance.name} {digest(argv)}"


def run_cli():
    """Yield one output line per CLI run of the option and argument forms
    that the other groups never pass, and one per file ``corpus --emit``
    writes."""
    corpus = {instance.name: instance for instance in SOURCES["corpus"]()}
    paths = {name: write_instance(instance) for name, instance in corpus.items()}
    order_only = Instance("fig1-order", corpus["fig1"].poset, None)
    paths[order_only.name] = write_instance(order_only)
    for name, path in paths.items():
        for kind, classes in CLASSES.items():
            for klass in classes:
                for fmt in FORMATS:
                    argv = [f"{kind}s", path, "--class", klass, "--format", fmt]
                    yield f"cli {kind}s:{klass}:{fmt}:{name} {digest(argv)}"
    for name in corpus:
        for fmt in FORMATS:
            for tags in CHECK_TAG_LISTS:
                argv = ["check", paths[name], "--statement", tags, "--format", fmt]
                yield f"cli check:{tags.replace(' ', '')}:{fmt}:{name} {digest(argv)}"
    for name, tags in (("fig1", "NOPE"), ("fig1", "LEM_BOOLEAN,NOPE"), ("fig1-order", "LEM_BOOLEAN")):
        yield f"cli check:{tags}:text:{name} {digest(['check', paths[name], '--statement', tags])}"
    for mode in SEPARATION_MODES:
        for fmt in FORMATS:
            for ideal in SEPARATE_IDEALS:
                for filt in SEPARATE_FILTERS:
                    argv = ["separate", paths["fig4"], "--ideal", ideal, "--filter", filt,
                            "--mode", mode, "--format", fmt]
                    yield f"cli separate:{mode}:{fmt}:{ideal.replace(' ', '')}:{filt.replace(' ', '')} {digest(argv)}"
    for highlights in DOT_HIGHLIGHTS:
        argv = ["dot", paths["fig4"], *(arg for spec in highlights for arg in ("--highlight", spec))]
        yield f"cli dot:{'+'.join(spec.replace(' ', '') for spec in highlights)}:fig4 {digest(argv)}"
    for fmt in FORMATS:
        yield f"cli corpus:emit:{fmt} {digest(['corpus', '--emit', EMIT_DIR, '--format', fmt])}"
    for name in sorted(os.listdir(EMIT_DIR)):
        with open(os.path.join(EMIT_DIR, name), "rb") as handle:
            yield f"cli emitted:{name} {hashlib.sha256(handle.read()).hexdigest()}"
    yield f"cli corpus:emit:file {digest(['corpus', '--emit', paths['fig1']])}"


def digest(argv):
    """sha256 of the exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    payload = f"exit={code}\n--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: every group, in output order
GROUPS = {**{name: partial(run_machine, source) for name, source in SOURCES.items()},
          "api": run_api, "separate": run_separate, "gen": run_gen, "text": run_text, "cli": run_cli,
          "large": partial(run_machine, _large)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"groups to run, of {', '.join(GROUPS)} (default: all)")
    args = parser.parse_args()
    unknown = sorted(set(args.groups).difference(GROUPS))
    if unknown:
        parser.error(f"unknown group {unknown[0]!r}")
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for group in args.groups or GROUPS:
                for line in GROUPS[group]():
                    print(line)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
