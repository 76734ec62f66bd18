"""Command-line front end.

Exit codes: 0 success; 1 usage error (including a --density outside
[0, 1], an unknown gen --require constraint, or a corpus --emit path that is
a file or not writable); 2 parse error (including unreadable input files and
files that are not valid UTF-8); 3 validation failure (not a poset, axiom
violation, malformed ideal/filter argument, a gen --size outside 2-24); 4 a
requested check found a counterexample, an explicitly requested statement
was not applicable or not verified (LEM_CL_PRINCIPAL past the downset
walk's cap), a separation hypothesis failed, or gen found no complementation
of its poset with the required constraints (stdout empty).

``main`` may be called repeatedly in one process.  It builds its argument
parser on the first call, keeps it in the module and reuses it; the parser
holds options only, no handler or instance data.  Each call maps the parsed
subcommand to its ``_cmd_<name>`` function at call time, so a handler
replaced after the first call is the one that runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import corpus as corpus_mod
from .complement import ComplementedPoset, attach_complementation
from .errors import ParseError, PosetError
from .harness import SEPARATION_MODES, StatementId, check_statement, run_all, separate
from .io import (
    Instance,
    build_report,
    emit_dot,
    emit_instance,
    load_instance,
    machine_class_row,
    machine_line,
    machine_theorem_row,
    render_machine,
    render_text,
    text_class_label,
    text_theorem_row,
)
from .poset import Poset
from .substructures import CLASSES, family_rows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_FINDING = 4


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse is done with the call (``--help``); ``args[0]`` is the status."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)

    def exit(self, status=0, message=None):  # main returns the status, no SystemExit
        sys.stderr.write(message or "")
        raise _Exit(status)


def _probability(text: str) -> float:
    value = float(text)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _constraints(text: str) -> list[str]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    unknown = sorted(set(tokens).difference(corpus_mod.SUPPORTED_CONSTRAINTS))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown constraint {unknown[0]!r}")
    return tokens


def _load(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return load_instance(text)


def _require_comp(instance: Instance) -> ComplementedPoset:
    if instance.cp is None:
        raise PosetError(
            f"instance {instance.name!r} has no comp section; "
            "this command needs a complementation"
        )
    return instance.cp


def parse_set_spec(p: Poset, spec: str, kind: str) -> int:
    """CLI set arguments: '{x,y}' literal, 'L(a)'/'U(a)' cones, or a bare
    token meaning the principal ideal/filter of that element (a singleton
    for highlights)."""
    spec = spec.strip()
    if spec.startswith("{") and spec.endswith("}"):
        inner = spec[1:-1].strip()
        names = [tok.strip() for tok in inner.split(",")] if inner else []
        return p.mask_of(names)
    if spec.startswith("L(") and spec.endswith(")"):
        return p.down[p.index(spec[2:-1])]
    if spec.startswith("U(") and spec.endswith(")"):
        return p.up[p.index(spec[2:-1])]
    if kind == "ideal":
        return p.down[p.index(spec)]
    if kind == "filter":
        return p.up[p.index(spec)]
    return 1 << p.index(spec)


# -- subcommand implementations ------------------------------------------------


def _cmd_analyze(args) -> int:
    instance = _load(args.file)
    report = build_report(instance)
    out = render_machine(report) if args.format == "machine" else render_text(report)
    print(out, end="")
    return EXIT_OK


def _list_family(args, kind: str) -> int:
    instance = _load(args.file)
    p, with_comp = instance.poset, instance.cp is not None
    rows, flag = family_rows(p, instance.cp, kind), CLASSES[kind][args.klass]
    if flag and getattr(rows[0], flag) is None:  # the column needs a complementation
        _require_comp(instance)
    for row in rows:
        if flag and not getattr(row, flag):
            continue
        if args.format == "machine":
            print(machine_class_row(p, row, kind, with_comp))
        else:
            print(f"{text_class_label(p, row, kind)} = {p.format_set(row.mask)}")
    return EXIT_OK


def _cmd_ideals(args) -> int:
    return _list_family(args, "ideal")


def _cmd_filters(args) -> int:
    return _list_family(args, "filter")


def _cmd_check(args) -> int:
    instance = _load(args.file)
    cp = _require_comp(instance)
    explicit = args.statement is not None
    if explicit:
        tags = []
        for tok in args.statement.split(","):
            tok = tok.strip()
            try:
                tags.append(StatementId(tok))
            except ValueError:
                raise _UsageError(f"unknown statement tag {tok!r}") from None
        results = [check_statement(cp, tag) for tag in tags]
    else:
        results = run_all(cp)
    worst = EXIT_OK
    for res in results:
        print(machine_theorem_row(res) if args.format == "machine" else text_theorem_row(res))
        if res.conclusion_holds is False:
            worst = EXIT_FINDING
        elif explicit and not res.hypotheses_met:
            worst = max(worst, EXIT_FINDING)
    return worst


def _cmd_separate(args) -> int:
    instance = _load(args.file)
    cp = _require_comp(instance)
    p = instance.poset
    ideal_mask = parse_set_spec(p, args.ideal, "ideal")
    filter_mask = parse_set_spec(p, args.filter, "filter")
    result = separate(cp, ideal_mask, filter_mask, args.mode)
    if args.format == "machine":
        print(machine_line("separation", p, args.mode, ideal_mask, filter_mask, result.witness, result.failure))
    elif result.witness is not None:
        g = p.facts.down_generator.get(result.witness)
        label = f" (= L({p.names[g]}))" if g is not None else ""
        print(f"J = {p.format_set(result.witness)}{label}")
    else:
        print(f"separation hypothesis failed: {result.failure}")
    return EXIT_OK if result.witness is not None else EXIT_FINDING


def _cmd_dot(args) -> int:
    instance = _load(args.file)
    highlights = [
        (spec, parse_set_spec(instance.poset, spec, "plain")) for spec in args.highlight or []
    ]
    print(emit_dot(instance.poset, instance.name, highlights), end="")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    entries = corpus_mod.builtin_corpus()
    if args.emit:
        try:
            os.makedirs(args.emit, exist_ok=True)
            for entry in entries:
                path = os.path.join(args.emit, f"{entry.name}.poset")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(emit_instance(Instance(entry.name, entry.poset, entry.cp)))
        except OSError as exc:
            raise _UsageError(f"cannot write instances to {args.emit}: {exc}") from None
        print(f"wrote {len(entries)} instances to {args.emit}", file=sys.stderr)
    for entry in entries:
        p = entry.poset
        if args.format == "machine":
            print(machine_line("corpus", p, entry.name, p.n))
        else:
            print(f"{entry.name}: {p.n} elements")
        for field_name, published, computed in corpus_mod.published_divergences(entry):
            pub, com = p.mask_of(published), p.mask_of(computed)
            if args.format == "machine":
                print(machine_line("divergence", p, entry.name, field_name, pub, com))
            else:
                print(f"  DIVERGES {field_name}: published {p.format_set(pub)} but computed {p.format_set(com)}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    poset = corpus_mod.random_poset(args.size, args.seed, density=args.density)
    table = corpus_mod.random_complementation(poset, args.seed, constraints=args.require)
    if table is None:
        print(
            f"no complementation found for size={args.size} seed={args.seed} "
            f"require={','.join(args.require) or '-'}",
            file=sys.stderr,
        )
        return EXIT_FINDING
    cp = attach_complementation(poset, table)
    print(emit_instance(Instance(f"gen-{args.size}-{args.seed}", poset, cp)), end="")
    return EXIT_OK


def make_parser() -> _Parser:
    parser = _Parser(prog="cideals", description="finite complemented posets: ideals, filters, statement checks")
    parser.add_argument(
        "--format", dest="format_global", choices=("text", "machine"), default=None
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"), default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("analyze", parents=[common], help="full classification and statement report")
    cmd.add_argument("file")

    for kind, classes in CLASSES.items():
        cmd = sub.add_parser(f"{kind}s", parents=[common], help=f"list {kind}s of a class")
        cmd.add_argument("file")
        cmd.add_argument("--class", dest="klass", choices=tuple(classes), default="all")

    cmd = sub.add_parser("check", parents=[common], help="verify statements on the instance")
    cmd.add_argument("file")
    cmd.add_argument("--statement", help="comma-separated statement tags (default: all)")

    cmd = sub.add_parser("separate", parents=[common], help="run a separation procedure")
    cmd.add_argument("file")
    cmd.add_argument("--ideal", required=True, help="generator token, L(a), or {x,y} literal")
    cmd.add_argument("--filter", required=True, help="generator token, U(a), or {x,y} literal")
    cmd.add_argument("--mode", choices=SEPARATION_MODES, default="first")

    cmd = sub.add_parser("dot", parents=[common], help="DOT rendering of the cover relation")
    cmd.add_argument("file")
    cmd.add_argument("--highlight", action="append", help="set to fill; repeatable")

    cmd = sub.add_parser("corpus", parents=[common], help="built-in instances and divergences")
    cmd.add_argument("--emit", help="directory to write .poset files into")

    cmd = sub.add_parser("gen", parents=[common], help="generate a random complemented instance")
    cmd.add_argument("--size", type=int, required=True)
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--require", type=_constraints, default=(),
                     help="comma-separated constraints: " + ",".join(corpus_mod.SUPPORTED_CONSTRAINTS))
    cmd.add_argument("--density", type=_probability, default=corpus_mod.DEFAULT_EDGE_DENSITY,
                     help="edge probability between adjacent ranks, in [0, 1]")
    return parser


#: the parser ``main`` builds on its first call and reuses
_PARSER: _Parser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    parser = _PARSER
    if parser is None:  # built whole, then stored: racing first calls build two
        parser = _PARSER = make_parser()
    try:
        args = parser.parse_args(argv)
        # --format may be given before or after the subcommand
        args.format = args.format or args.format_global or "text"
        # looked up per call, so a handler replaced after the first call runs
        return globals()[f"_cmd_{args.command}"](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Exit as exc:
        return exc.args[0]
    except PosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError) or getattr(exc, "line", None) is not None:
            return EXIT_PARSE
        return EXIT_INVALID


def run() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
