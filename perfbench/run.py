#!/usr/bin/env python3
"""The cideals benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 20 --trace 0

One client drives the package in a closed loop: one operation at a time, no
threads.  Each pass over a workload's operations runs in a fresh process
forked from this one, which never imports the package itself; the pass
process imports it, so no state carries from one pass to the next.  Set-up
runs several times, each in a fresh process that imports the package and
builds the inputs; its median is ``setup_s``.

The speed of a shared host drifts by tens of percent within minutes, so the
pass process runs a fixed calibration job (``calibrate``) between operations
and every time is reported at a reference host speed: measured seconds times
REFERENCE_CALIBRATION_S over the calibration time around them.  The summary
lines before the result give the unscaled medians too.

Every output is checked against ``oracle`` and against the seed-0 digests in
``meta.json``.  With ``--trace 0`` the result holds the end-to-end metrics of
untraced passes; with ``--trace 1`` traced and untraced passes alternate and
the result holds the per-layer metrics.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import functools
import gc
import hashlib
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
META = HERE / "meta.json"
WORKLOADS = ("campaign", "wide", "lattice", "session")
SETUP_REPS = 5
MIN_PASSES = 3
MIN_SAMPLES = 100  # pooled operations, so that p90 has ten samples beyond it
LAST_PASS_START_S = 130  # keeps a run inside its 180 s limit
UNIT_TIMEOUT_S = 120
CALIBRATION_TEXT = oracle.boolean_lattice(4)
REFERENCE_CALIBRATION_S = 0.02
CALIBRATE_EVERY_S = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class ChildFailed(Exception):
    pass


def calibrate() -> float:
    """Seconds of a fixed pure-Python job shaped like the package's work: the
    oracle's closure and distributivity scan of B4.  No change to the package
    touches it, so its time follows only the speed of the host."""
    start = time.perf_counter()
    oracle.Order(CALIBRATION_TEXT).distributive
    return time.perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two calibrations into
    seconds on a host where the calibration job takes the reference time."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


def in_child(fn, timeout: float = UNIT_TIMEOUT_S):
    """Run ``fn`` in a forked child process and return its JSON result."""
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()  # the child's collector then skips, and so never copies, inherited objects
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            payload = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        while True:
            ready, _, _ = select.select([read_fd], [], [], max(deadline - time.monotonic(), 0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                raise ChildFailed(f"no result within {timeout} s")
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise ChildFailed(f"worker process exited with status {status}")
    return json.loads(b"".join(chunks))


def setup_unit(workload: str, seed: int, inputs: Path, traced: bool) -> dict:
    """One set-up, in a fresh process: import the package, build the inputs,
    write the instance files and load the session objects."""
    before = calibrate()
    start = time.perf_counter()
    import workloads

    tracer = _tracer() if traced else None
    plan = workloads.generate(workload, seed)
    workloads.write_files(plan, inputs)
    workloads.load(plan)
    seconds = time.perf_counter() - start
    scale = host_scale(before, calibrate())
    if tracer is None:
        return {"seconds": seconds, "scale": scale, "plan": plan}
    return _untrace(tracer, {"scale": scale})


def _tracer():
    import spans

    tracer = spans.Tracer()
    tracer.install()
    return tracer


def _untrace(tracer, result: dict) -> dict:
    tracer.restore()
    return {**result, "spans": tracer.spans, "counts": tracer.counts, "restored": tracer.restored()}


def pass_unit(plan: dict, inputs: Path, traced: bool) -> dict:
    """One pass in a fresh process: import the package, load the session
    objects, then run the operations one after another, timing each.  The
    calibration job runs before the first operation and again whenever
    CALIBRATE_EVERY_S has passed; each operation gets the scale of the two
    calibrations around it."""
    import workloads

    tracer = _tracer() if traced else None
    objects = workloads.load(plan)
    records, pending = [], []
    previous, calibrated = calibrate(), time.monotonic()
    for index, op in enumerate(plan["ops"]):
        if tracer is not None:
            tracer.op = index
        record = {"pid": os.getpid(), "threads": threading.active_count(), "start": time.monotonic()}
        try:
            seconds, code, output = workloads.execute(op, plan, inputs, objects)
            record.update(seconds=seconds, code=code, output=output, error=None)
        except Exception as exc:  # a failed operation is counted, not fatal
            record.update(seconds=0.0, code=None, output="", error=f"{type(exc).__name__}: {exc}")
        record["end"] = time.monotonic()
        records.append(record)
        pending.append(record)
        if record["end"] - calibrated >= CALIBRATE_EVERY_S or index == len(plan["ops"]) - 1:
            current, calibrated = calibrate(), time.monotonic()
            for waiting in pending:
                waiting["scale"] = host_scale(previous, current)
            previous, pending = current, []
    result = {"records": records}
    return result if tracer is None else _untrace(tracer, result)


def run_pass(plan: dict, inputs: Path, traced: bool = False) -> dict:
    """One pass over the plan's operations, in its own process."""
    try:
        return in_child(functools.partial(pass_unit, plan, inputs, traced))
    except ChildFailed as exc:
        failed = {"seconds": 0.0, "scale": 1.0, "code": None, "output": "", "error": str(exc)}
        return {"records": [dict(failed) for _ in plan["ops"]], "spans": [], "counts": {}, "restored": True}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-th percentile; refuses unless ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q} needs ten samples beyond it; {len(ordered)} samples")
    return ordered[rank - 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def op_digest(record: dict) -> str:
    return digest(f"{record['code']}\n{record['output']}")[:16]


def distinct_instances(plan: dict) -> int:
    """Distinct (poset, complement) pairs among the plan's instance texts."""
    return len({text.partition("\n")[2] for text in plan["files"].values()})


class Verifier:
    """Checks each operation's output once with the oracle, then requires
    every later pass to reproduce it byte for byte."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.orders: dict[str, oracle.Order] = {}
        self.seen: dict[str, tuple[str, str | None]] = {}

    def __call__(self, op: dict, record: dict) -> str | None:
        if record["error"]:
            return record["error"]
        key = op["key"]
        if key in self.seen:
            known, problem = self.seen[key]
            return problem if op_digest(record) == known else "output differs from an earlier pass"
        name = op.get("file") or op["obj"]
        if name not in self.orders:
            self.orders[name] = oracle.Order(self.plan["files"][name])
        problem = oracle.check(op, self.orders[name], record["code"], record["output"])
        self.seen[key] = (op_digest(record), problem)
        return problem


class Run:
    """One benchmark run: set-up, timed passes, reference check, metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.problems: list[str] = []
        self.failures: dict[tuple[str, str], str] = {}
        self.attempted = 0

    def check(self, where: str, plan: dict, result: dict, verifier: Verifier) -> dict[str, str]:
        """Verify one pass; returns each operation's output digest."""
        records = result["records"]
        self.attempted += len(records)
        if not result.get("restored", True):
            self.problems.append(f"{where}: a wrapped function was not restored")
        for op, rec in zip(plan["ops"], records):
            problem = verifier(op, rec)
            if problem:
                self.failures[(where, op["key"])] = problem
        return {op["key"]: op_digest(rec) for op, rec in zip(plan["ops"], records)}

    def reference(self, first_pass: dict[str, str]) -> str:
        """Compare every output at seed 0 with the digests in meta.json; a run
        at another seed first makes one untimed pass at seed 0."""
        if self.seed != 0:
            inputs = self.dir / "seed0"
            plan = in_child(functools.partial(setup_unit, self.workload, 0, inputs, False))["plan"]
            first_pass = self.check("seed0", plan, run_pass(plan, inputs), Verifier(plan))
        expected = json.loads(META.read_text())["digests"].get(self.workload, {}).get("ops", {})
        for key in expected.keys() | first_pass.keys():
            if expected.get(key) != first_pass.get(key):
                self.failures[("seed0", key)] = "output differs from the digest recorded in meta.json"
        return digest("".join(f"{k} {first_pass[k]}\n" for k in sorted(first_pass)))

    def done(self, elapsed: float, untraced: int, traced: int, ops: int) -> bool:
        if elapsed > LAST_PASS_START_S:
            return True
        if elapsed < self.seconds:
            return False
        if self.trace:
            return untraced > 0 and traced > 0
        return untraced >= MIN_PASSES and untraced * ops >= MIN_SAMPLES

    def execute(self) -> dict:
        import spans  # tracing helpers only; spans imports the package lazily

        inputs = self.dir / "inputs"
        setup = functools.partial(setup_unit, self.workload, self.seed, inputs, False)
        setups = [in_child(setup) for _ in range(SETUP_REPS)]
        plan = setups[0]["plan"]
        if any(s["plan"] != plan for s in setups):
            self.problems.append("set-up gave different inputs for the same seed")
        n_ops = len(plan["ops"])
        verifier = Verifier(plan)
        # per pass: each operation's seconds at the reference host speed
        untraced, traced, layer_reps, all_spans = [], [], [], []
        raw_walls = []
        first_pass = None
        start = time.perf_counter()
        while not self.done(time.perf_counter() - start, len(untraced), len(traced), n_ops):
            if self.trace and len(traced) < len(untraced):
                traced_setup = in_child(functools.partial(setup_unit, self.workload, self.seed, inputs, True))
                result = run_pass(plan, inputs, traced=True)
                if not traced_setup["restored"]:
                    self.problems.append("set-up: a wrapped function was not restored")
                self.check(f"traced{len(traced) + 1}", plan, result, verifier)
                span_lists = [traced_setup["spans"], result["spans"]]
                counts = collections.Counter(traced_setup["counts"]) + collections.Counter(result["counts"])
                layers = spans.layer_metrics([spans.summarize(s) for s in span_lists], counts)
                scale = statistics.median(r["scale"] for r in result["records"])
                layer_reps.append({k: v * scale if k.endswith("_s") else v for k, v in layers.items()})
                all_spans.append(span_lists)
                traced.append([r["seconds"] * r["scale"] for r in result["records"]])
            else:
                result = run_pass(plan, inputs)
                digests = self.check(f"pass{len(untraced) + 1}", plan, result, verifier)
                first_pass = first_pass or digests
                untraced.append([r["seconds"] * r["scale"] for r in result["records"]])
                raw_walls.append(sum(r["seconds"] for r in result["records"]))
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        output_digest = self.reference(first_pass)
        shutil.rmtree(self.dir, ignore_errors=True)

        walls = [sum(p) for p in untraced]
        op_ms = [s * 1e3 for p in untraced for s in p]
        failed = len(self.failures)
        if self.trace:
            metrics = {name: statistics.median(rep[name] for rep in layer_reps) for name in layer_reps[0]}
            metrics["corpus.distinct_instances"] = distinct_instances(plan)
            metrics["trace.overhead_s"] = statistics.median(sum(p) for p in traced) - statistics.median(walls)
            units = {name: per_layer_unit(name) for name in metrics}
            self.write_spans(all_spans)
        else:
            metrics = {
                "setup_s": statistics.median(s["seconds"] * s["scale"] for s in setups),
                "wall_s": statistics.median(walls),
                "op_p50_ms": percentile(op_ms, 50),
                "op_p90_ms": percentile(op_ms, 90),
                "peak_rss_mb": peak_kb / 1024,
                "success_rate": 1 - failed / self.attempted,
            }
            units = END_TO_END_UNITS
        self.summary = {
            "workload": self.workload,
            "seed": self.seed,
            "passes": len(untraced),
            "traced_passes": len(traced),
            "op_samples": len(op_ms),
            "raw_wall_s": statistics.median(raw_walls),
            "raw_setup_s": statistics.median(s["seconds"] for s in setups),
            "input_digest": digest(json.dumps(plan, sort_keys=True))[:16],
            "output_digest_seed0": output_digest[:16],
            "distinct_instances": distinct_instances(plan),
            "error_rate": failed / self.attempted,
            "python": sys.version.split()[0],
            "cores": os.cpu_count(),
            "problems": self.problems + [f"{w} {k}: {p}" for (w, k), p in sorted(self.failures.items())][:20],
        }
        return {
            "correct": not self.problems and not failed,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }

    def write_spans(self, all_spans: list) -> None:
        """All spans of the run, kept in memory until now: per traced
        repetition, the set-up process's spans and the pass process's."""
        path = ROOT / ".perfbench" / f"spans-{self.workload}-{self.seed}.json"
        path.write_text(json.dumps({"workload": self.workload, "seed": self.seed, "repetitions": all_spans}))


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_yield") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cideals benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "cideals" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'cideals'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    except ValueError as exc:  # too few samples for a percentile: no result
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for key, value in run.summary.items():
        print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
