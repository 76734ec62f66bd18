"""Benchmark workloads: seeded inputs and the operations run on them.

``generate`` builds a workload's inputs from its seed: instance texts, and
for ``session`` the shuffled query list.  ``load`` and ``execute`` run in the
process that performs a unit of operations; ``execute`` times only the call
into the package and serialises its result afterwards.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import time
from pathlib import Path

from cideals import cli, corpus, harness, substructures
from cideals import io as cio

import oracle

CAMPAIGN_RANDOM = 200
CAMPAIGN_RUN_SEED = 1  # the seed scripts/random_campaign.py passes to run_all
WIDE_K = range(8, 17)
LATTICE_DIMS = (2, 3, 4, 5)
SESSION_SEPARATION_PAIRS = 2
SESSION_CLASSIFY = 95
SEPARATION_MODES = ("first", "prime", "second")


def _figures() -> dict[str, str]:
    return {
        e.name: cio.emit_instance(cio.Instance(e.name, e.poset, e.cp))
        for e in corpus.builtin_corpus()
    }


def _campaign(seed: int) -> dict:
    files = {f"{name}.poset": text for name, text in _figures().items()}
    for i in range(1, CAMPAIGN_RANDOM + 1):
        cp, _profile = corpus.random_complemented_poset(seed + i)
        name = f"seed{seed + i}"
        files[f"{name}.poset"] = cio.emit_instance(cio.Instance(name, cp.poset, cp))
    ops = [{"key": f"run_all:{f}", "kind": "run_all", "file": f} for f in files]
    return {"files": files, "ops": ops, "objects": []}


def _analyze(texts: dict[str, str], seed: int, workload: str) -> dict:
    files = {
        f"{name}.poset": oracle.relabel(text, random.Random(f"{workload}:{seed}:{name}"))
        for name, text in texts.items()
    }
    ops = [{"key": f"analyze:{f}", "kind": "analyze", "file": f} for f in files]
    return {"files": files, "ops": ops, "objects": []}


def _session(seed: int) -> dict:
    texts = {**_figures(), "B4": oracle.boolean_lattice(4), "antichain-k10": oracle.antichain(10)}
    files = {
        f"{name}.poset": oracle.relabel(text, random.Random(f"session:{seed}:{name}"))
        for name, text in texts.items()
    }
    objects = list(files)
    orders = {f: oracle.Order(files[f]) for f in objects}
    rng = random.Random(f"session:{seed}")
    queries = [{"kind": "check", "obj": f, "tag": tag} for f in objects for tag in oracle.TAGS]
    for f in objects:
        order = orders[f]
        for _ in range(SESSION_SEPARATION_PAIRS):
            x, y = rng.randrange(order.n), rng.randrange(order.n)
            queries += [
                {"kind": "separate", "obj": f, "ideal": order.down[x], "filter": order.up[y], "mode": mode}
                for mode in SEPARATION_MODES
            ]
    for j in range(SESSION_CLASSIFY):
        f = objects[j % len(objects)]
        order = orders[f]
        pick = rng.randrange(order.n)
        mask = (order.down[pick], order.up[pick], rng.randrange(1 << order.n))[j % 3]
        queries.append({"kind": "classify", "obj": f, "mask": mask})
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        detail = q.get("tag") or q.get("mode") or q["mask"]
        q["key"] = f"{i:03d}:{q['kind']}:{q['obj']}:{detail}"
    return {"files": files, "ops": queries, "objects": objects}


def generate(workload: str, seed: int) -> dict:
    """All inputs of one workload at one seed."""
    if workload == "campaign":
        plan = _campaign(seed)
    elif workload == "wide":
        plan = _analyze({f"antichain-k{k:02d}": oracle.antichain(k) for k in WIDE_K}, seed, workload)
    elif workload == "lattice":
        texts = {f"B{d}": oracle.boolean_lattice(d) for d in LATTICE_DIMS}
        plan = _analyze({**texts, **_figures()}, seed, workload)
    elif workload == "session":
        plan = _session(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, **plan}


def write_files(plan: dict, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, text in plan["files"].items():
        (run_dir / name).write_text(text, encoding="utf-8")


def load(plan: dict) -> dict:
    """The session objects, built once per process from their text."""
    return {f: cio.load_instance(plan["files"][f]).cp for f in plan["objects"]}


def _theorem(result) -> str:
    return json.dumps(
        [
            result.statement.value,
            result.hypotheses_met,
            result.conclusion_holds,
            result.counterexample,
            result.detail,
            result.probe,
        ]
    )


def execute(op: dict, plan: dict, run_dir: Path, objects: dict) -> tuple[float, int | None, str]:
    """Run one operation: (seconds spent in the package, exit code, output text)."""
    kind = op["kind"]
    clock = time.perf_counter
    if kind == "analyze":
        out, err = io.StringIO(), io.StringIO()
        path = str(run_dir / op["file"])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = clock()
            code = cli.main(["analyze", path, "--format", "machine"])
            seconds = clock() - start
        return seconds, code, out.getvalue()
    if kind == "run_all":
        start = clock()
        cp = cio.load_instance(plan["files"][op["file"]]).cp
        results = harness.run_all(cp, seed=CAMPAIGN_RUN_SEED)
        seconds = clock() - start
        return seconds, None, "".join(_theorem(r) + "\n" for r in results)
    cp = objects[op["obj"]]
    start = clock()
    if kind == "check":
        result = harness.check_statement(cp, op["tag"])
    elif kind == "separate":
        result = harness.separate(cp, op["ideal"], op["filter"], op["mode"])
    elif kind == "classify":
        result = substructures.classify(cp, op["mask"])
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    seconds = clock() - start
    if kind == "check":
        return seconds, None, _theorem(result)
    return seconds, None, json.dumps(dataclasses.asdict(result), sort_keys=True)
