"""Span tracing of the package from outside, for the benchmark's traced run.

``Tracer.install`` wraps the entry points of every module: the listed
functions in every namespace that imported them, methods of the core classes,
the downset walk and each entry of the statement table.  Each call records a
span (name, start, end, parent, op) in memory.  ``restore`` puts every
original back and ``restored`` proves it.  ``layer_metrics`` turns spans into
the per-layer metrics, using self time: a span's duration minus the time its
child spans cover.  Time in functions that are not wrapped, such as the hot
``is_ideal`` and cone helpers, counts toward the nearest wrapped caller.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time

import oracle

#: entry points by defining module; "Class.method" names a method
TARGETS = {
    "cideals.poset": (
        "build_poset",
        "Poset.__init__",
        "Poset.is_distributive",
        "Poset.is_dual_distributive",
        "Poset.semilattice_flags",
        "Poset.dual",
    ),
    "cideals.complement": (
        "attach_complementation",
        "ComplementedPoset.__init__",
        "ComplementedPoset.dual",
    ),
    "cideals.substructures": (
        "_enumerate_downsets",
        "enumerate_ideals",
        "enumerate_filters",
        "classify",
        "principal_generator",
        "is_prime_ideal",
        "is_prime_filter",
        "is_maximal_ideal",
        "is_ultrafilter",
        "find_c_ideal_witness",
        "find_c_filter_witness",
    ),
    "cideals.harness": (
        "run_all",
        "check_statement",
        "_Context.__post_init__",
        "separate",
        "separate_first",
        "separate_second",
    ),
    "cideals.io": (
        "parse_instance",
        "build_instance",
        "load_instance",
        "build_report",
        "render_machine",
        "render_text",
        "machine_class_row",
        "machine_theorem_row",
        "emit_instance",
        "emit_dot",
    ),
    "cideals.corpus": (
        "builtin_corpus",
        "corpus_entry",
        "computed_lists",
        "published_divergences",
        "random_poset",
        "random_complementation",
        "random_complemented_poset",
        "_template_instance",
    ),
    "cideals.cli": (
        "main",
        "make_parser",
        "_load",
        "parse_set_spec",
        "_cmd_analyze",
        "_cmd_ideals",
        "_cmd_filters",
        "_cmd_check",
        "_cmd_separate",
        "_cmd_dot",
        "_cmd_corpus",
        "_cmd_gen",
    ),
}

#: wrapped functions whose result length is added to a counter
RESULT_COUNTS = {
    "substructures._enumerate_downsets": "downsets",
    "substructures.enumerate_ideals": "found",
    "substructures.enumerate_filters": "found",
}


def _names(module: str, prefix: str = "") -> tuple[str, ...]:
    short = module.rpartition(".")[2]
    return tuple(f"{short}.{q}" for q in TARGETS[f"cideals.{module}"] if q.startswith(prefix))


def _stmt(tag: str) -> str:
    return f"harness.stmt.{tag}"


ENUMERATE = ("substructures._enumerate_downsets", "substructures.enumerate_ideals", "substructures.enumerate_filters")
SEPARATE = ("harness.separate", "harness.separate_first", "harness.separate_second")

#: per-layer metric -> (measure, span names); "self" sums self time, "incl"
#: and "calls" take the duration and count of spans not nested in the group
LAYERS = {
    "substructures.enumerate_s": ("self", ENUMERATE),
    "substructures.enumerate_calls": ("calls", ENUMERATE[1:]),
    "substructures.classify_s": (
        "self",
        tuple(n for n in _names("substructures") if n not in ENUMERATE),
    ),
    "poset.distributive_s": ("self", ("poset.Poset.is_distributive", "poset.Poset.is_dual_distributive")),
    "poset.distributive_calls": ("calls", ("poset.Poset.is_distributive", "poset.Poset.is_dual_distributive")),
    "poset.semilattice_s": ("self", ("poset.Poset.semilattice_flags",)),
    "poset.dual_calls": ("calls", ("poset.Poset.dual",)),
    "poset.build_s": ("self", ("poset.build_poset", "poset.Poset.__init__")),
    "complement.attach_s": ("self", _names("complement")),
    "corpus.generate_s": ("self", _names("corpus")),
    "harness.run_all_s": ("incl", ("harness.run_all",)),
    "harness.context_s": (
        "self",
        ("harness.run_all", "harness.check_statement", "harness._Context.__post_init__"),
    ),
    **{f"harness.stmt.{tag}_s": ("self", (_stmt(tag),)) for tag in oracle.TAGS},
    "harness.separate_s": ("self", SEPARATE),
    "harness.separate_calls": ("calls", SEPARATE),
    "io.parse_s": ("self", ("io.parse_instance", "io.build_instance", "io.load_instance")),
    "io.build_report_s": ("self", ("io.build_report",)),
    "io.render_s": ("self", _names("io", "render") + _names("io", "machine") + _names("io", "emit")),
    "cli.main_s": ("self", _names("cli")),
}


class Tracer:
    """Wraps the package's entry points and records spans while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1  # index of the operation in progress; -1 during set-up
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        self._wrappers: dict[int, object] = {}  # keeps wrappers alive so ids stay unique

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count:
                counts[count] += len(result)
            return result

        self._wrappers[id(traced)] = traced
        return traced

    def _patch(self, owner, key, original, wrapper, item: bool = False) -> None:
        self._patched.append((owner, key, original, item))
        if item:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        by_id: dict[int, tuple[object, object]] = {}
        for module_name, qualnames in TARGETS.items():
            module = importlib.import_module(module_name)
            short = module_name.rpartition(".")[2]
            for qual in qualnames:
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    cls = getattr(module, owner_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrap(f"{short}.{qual}", original))
                else:
                    original = getattr(module, attr)
                    by_id[id(original)] = (original, self._wrap(f"{short}.{qual}", original))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for key, value in list(namespace.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, value, hit[1])
        checkers = importlib.import_module("cideals.harness")._CHECKERS
        for sid, fn in list(checkers.items()):
            self._patch(checkers, sid, fn, self._wrap(_stmt(sid.value), fn), item=True)

    def restore(self) -> None:
        for owner, key, original, item in reversed(self._patched):
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def restored(self) -> bool:
        """Every patched place holds its original again and no wrapper is
        reachable from any loaded module, class or the statement table."""
        for owner, key, original, item in self._patched:
            current = owner[key] if item else getattr(owner, key)
            if current is not original:
                return False
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for value in list(namespace.values()):
                if id(value) in self._wrappers:
                    return False
                if isinstance(value, type) and any(
                    id(v) in self._wrappers for v in vars(value).values()
                ):
                    return False
        checkers = importlib.import_module("cideals.harness")._CHECKERS
        return not any(id(fn) in self._wrappers for fn in checkers.values())


def summarize(spans: list) -> dict[str, collections.Counter]:
    """Per span name: self time, and duration/count of spans by parent name.

    ``spans`` come from one process, so parents index the same list.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {"self": collections.Counter(), "by_parent": collections.Counter(), "calls_by_parent": collections.Counter()}
    for i, (name, start, end, parent, _op) in enumerate(spans):
        out["self"][name] += end - start - child[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        out["by_parent"][(name, parent_name)] += end - start
        out["calls_by_parent"][(name, parent_name)] += 1
    return out


def layer_metrics(summaries: list[dict], counts: collections.Counter) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (several processes)."""
    self_time, incl, calls = collections.Counter(), collections.Counter(), collections.Counter()
    for s in summaries:
        self_time.update(s["self"])
        incl.update(s["by_parent"])
        calls.update(s["calls_by_parent"])
    out = {}
    for metric, (measure, group) in LAYERS.items():
        if measure == "self":
            out[metric] = sum(self_time[n] for n in group)
        else:
            source = incl if measure == "incl" else calls
            out[metric] = sum(v for (n, parent), v in source.items() if n in group and parent not in group)
    out["substructures.downsets"] = counts["downsets"]
    out["substructures.ideal_yield"] = counts["found"] / counts["downsets"] if counts["downsets"] else 0.0
    return out
