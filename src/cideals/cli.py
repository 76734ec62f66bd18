"""Command-line front end.

Exit codes: 0 success; 1 usage error (including a --density outside
[0, 1], an unknown gen --require constraint, or a corpus --emit path that is
a file or not writable); 2 parse error (including unreadable input files and
files that are not valid UTF-8); 3 validation failure (not a poset, axiom
violation, malformed ideal/filter argument, a gen --size outside 2-24); 4 a
requested check found a counterexample, an explicitly requested statement
was not applicable or not verified (LEM_CL_PRINCIPAL past the downset
walk's cap), a separation hypothesis failed, or gen found no complementation
of its poset with the required constraints (stdout empty).  A console-script
run (``run``) whose stdout is closed early ends by SIGPIPE, with nothing on
stderr.

The command line is one table: ``PROGRAM`` holds the options given before
the command, and ``COMMANDS`` each command's help line, operand and
options.  ``make_parser`` returns the parse function that reads it, and
the ``--help`` texts come from the same table.  An option is written
``--name VALUE`` or ``--name=VALUE``, by its full name or a unique prefix;
``--`` ends the options; ``--format`` may come before the command or after
it, and the command's own wins.

``main`` may be called repeatedly in one process and keeps nothing between
calls.  Each call maps the parsed command to its ``_cmd_<name>`` function at
call time, so a handler replaced between calls is the one that runs.
"""

from __future__ import annotations

import math
import os
import re
import sys
from collections.abc import Callable
from types import SimpleNamespace
from typing import NamedTuple

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


def _probability(text: str) -> float:
    value = float(text)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise _UsageError(f"must lie in [0, 1], got {text}")
    return value


def _constraints(text: str) -> list[str]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    unknown = sorted(set(tokens).difference(corpus_mod.SUPPORTED_CONSTRAINTS))
    if unknown:
        raise _UsageError(f"unknown constraint {unknown[0]!r}")
    return tokens


# -- the command table ---------------------------------------------------------


class Option(NamedTuple):
    """One option: the attribute its value goes to and how it is read.  A
    converter reports a malformed value with ValueError, or a value outside
    its domain with a ``_UsageError`` naming it."""

    dest: str
    default: object = None
    choices: tuple[str, ...] = ()
    convert: Callable[[str], object] | None = None
    required: bool = False
    repeat: bool = False  # each use appends to a list
    help: str = ""


class Command(NamedTuple):
    help: str
    operand: str | None  # the one positional argument, if any
    options: dict[str, Option]


FORMATS = ("text", "machine")
_FORMAT = {"--format": Option("format", choices=FORMATS)}

#: the options before the command; its operand is the command
PROGRAM = Command(
    "finite complemented posets: ideals, filters, statement checks",
    "command",
    {"--format": Option("format_global", choices=FORMATS)},
)

COMMANDS = {
    "analyze": Command("full classification and statement report", "file", _FORMAT),
    **{
        f"{kind}s": Command(
            f"list {kind}s of a class", "file", {**_FORMAT, "--class": Option("klass", "all", tuple(classes))}
        )
        for kind, classes in CLASSES.items()
    },
    "check": Command("verify statements on the instance", "file", {
        **_FORMAT,
        "--statement": Option("statement", help="comma-separated statement tags (default: all)"),
    }),
    "separate": Command("run a separation procedure", "file", {
        **_FORMAT,
        "--ideal": Option("ideal", required=True, help="generator token, L(a), or {x,y} literal"),
        "--filter": Option("filter", required=True, help="generator token, U(a), or {x,y} literal"),
        "--mode": Option("mode", "first", SEPARATION_MODES),
    }),
    "dot": Command("DOT rendering of the cover relation", "file", {
        **_FORMAT,
        "--highlight": Option("highlight", repeat=True, help="set to fill; repeatable"),
    }),
    "corpus": Command("built-in instances and divergences", None, {
        **_FORMAT,
        "--emit": Option("emit", help="directory to write .poset files into"),
    }),
    "gen": Command("generate a random complemented instance", None, {
        **_FORMAT,
        "--size": Option("size", convert=int, required=True),
        "--seed": Option("seed", convert=int, required=True),
        "--require": Option("require", (), convert=_constraints,
                            help="comma-separated constraints: " + ",".join(corpus_mod.SUPPORTED_CONSTRAINTS)),
        "--density": Option("density", corpus_mod.DEFAULT_EDGE_DENSITY, convert=_probability,
                            help="edge probability between adjacent ranks, in [0, 1]"),
    }),
}

_HELP = ("-h", "--help")
#: a token that reads as a negative number is a value, not an option
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _flag(command: Command, token: str) -> str | None:
    """The flag an option token names, by its name before any ``=`` or a
    unique prefix of it; "" for an unknown option, None for an operand."""
    if not token.startswith("-") or token == "-":
        return None
    flags = (*_HELP, *command.options)
    name = token.partition("=")[0]
    if name in flags:
        return name
    if name.startswith("--"):
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0]
    return None if _NEGATIVE.match(token) else ""


def _invalid_choice(name: str, text: str, choices) -> _UsageError:
    listed = ", ".join(map(repr, choices))
    return _UsageError(f"argument {name}: invalid choice: {text!r} (choose from {listed})")


def _value(flag: str, option: Option, text: str):
    if option.convert is None:
        if option.choices and text not in option.choices:
            raise _invalid_choice(flag, text, option.choices)
        return text
    try:
        return option.convert(text)
    except ValueError:
        detail = f"invalid {option.convert.__name__.lstrip('_')} value: {text!r}"
    except _UsageError as exc:
        detail = str(exc)
    raise _UsageError(f"argument {flag}: {detail}")


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of the command and its options read from ``argv``, or
    None once a ``--help`` text is printed.  Values are converted as they
    come; then a missing required argument is reported, then unknown
    arguments."""
    command = PROGRAM
    values = {option.dest: option.default for option in PROGRAM.options.values()}
    seen, extras, options_end, i = set(), [], False, 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" and not options_end:
            options_end = True
            continue
        flag = None if options_end else _flag(command, token)
        if flag is None:  # an operand: the command, then its file
            if command.operand is None or command.operand in values:
                extras.append(token)
            elif command is PROGRAM:
                if token not in COMMANDS:
                    raise _invalid_choice("command", token, COMMANDS)
                values["command"], command = token, COMMANDS[token]
                values.update((option.dest, option.default) for option in command.options.values())
            else:
                values[command.operand] = token
            continue
        if not flag:
            extras.append(token)
            continue
        explicit = token.partition("=")[2] if "=" in token else None
        if flag in _HELP:
            if explicit is not None:
                raise _UsageError(f"argument -h/--help: ignored explicit argument {explicit!r}")
            print(_help(values.get("command")), end="")
            return None
        if explicit is None:
            if i == len(argv) or argv[i] == "--" or _flag(command, argv[i]) is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
            explicit, i = argv[i], i + 1
        option = command.options[flag]
        value = _value(flag, option, explicit)
        values[option.dest] = [*(values[option.dest] or ()), value] if option.repeat else value
        seen.add(flag)
    missing = [command.operand] if command.operand and command.operand not in values else []
    missing += [flag for flag, option in command.options.items() if option.required and flag not in seen]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


# -- --help --------------------------------------------------------------------

#: the text width of the help; argparse's on an 80-column or unknown terminal
_WIDTH = 78


def _wrap(parts: list[str], used: int, indent: str) -> list[str]:
    lines, line = [], []
    for part in parts:
        if line and used + 1 + len(part) > _WIDTH:
            lines.append(indent + " ".join(line))
            line, used = [], len(indent) - 1
        line.append(part)
        used += len(part) + 1
    return lines + [indent + " ".join(line)] if line else lines


def _row(invocation: str, text: str, indent: int = 2) -> str:
    """One argument's help line; the text starts in column 24."""
    if not text:
        return f"{'':{indent}}{invocation}\n"
    if len(invocation) <= 22 - indent:
        return f"{'':{indent}}{invocation:{22 - indent}}  {text}\n"
    return f"{'':{indent}}{invocation}\n{'':24}{text}\n"


def _help(name: str | None) -> str:
    """The ``--help`` text of the program (name None) or of one command."""
    command = COMMANDS[name] if name else PROGRAM
    prog = f"cideals {name}" if name else "cideals"
    options = [_row("-h, --help", "show this help message and exit")]
    parts = ["[-h]"]
    for flag, option in command.options.items():
        metavar = "{" + ",".join(option.choices) + "}" if option.choices else option.dest.upper()
        parts += [flag, metavar] if option.required else [f"[{flag} {metavar}]"]
        options.append(_row(f"{flag} {metavar}", option.help))
    if name is None:
        operands = ["{" + ",".join(COMMANDS) + "}", "..."]
        listing = [_row(operands[0], "")] + [_row(key, cmd.help, 4) for key, cmd in COMMANDS.items()]
    else:
        operands = [command.operand] if command.operand else []
        listing = [_row(operand, "") for operand in operands]
    usage = " ".join([prog, *parts, *operands])
    if len("usage: " + usage) > _WIDTH:  # argparse's wrapping: operands start a line of their own
        indent = " " * len(f"usage: {prog} ")
        usage = "\n".join(_wrap([prog, *parts], 6, indent) + _wrap(operands, len(indent) - 1, indent))[len(indent):]
    sections = [f"usage: {usage}\n", f"{command.help}\n" if name is None else ""]
    if listing:
        sections.append("positional arguments:\n" + "".join(listing))
    sections.append("options:\n" + "".join(options))
    return "\n".join(section for section in sections if section)


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
    p = instance.poset
    rows, flag = family_rows(instance.cp or p, kind), CLASSES[kind][args.klass]
    if flag and getattr(rows[0], flag) is None:  # the column needs a complementation
        _require_comp(instance)
    for row in rows:
        if flag and not getattr(row, flag):
            continue
        if args.format == "machine":
            print(machine_class_row(p, row, kind))
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


def make_parser() -> Callable[[list[str]], SimpleNamespace | None]:
    """The parse function of the command line.  It reads the command table
    and keeps no state, so every call returns the same function."""
    return _parse


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser()(sys.argv[1:] if argv is None else argv)
        if args is None:  # a --help text was printed
            return EXIT_OK
        # --format may be given before or after the command
        args.format = args.format or args.format_global or "text"
        # looked up per call, so a handler replaced between calls runs
        return globals()[f"_cmd_{args.command}"](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError) or getattr(exc, "line", None) is not None:
            return EXIT_PARSE
        return EXIT_INVALID


def run() -> None:  # console-script entry point
    import signal

    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the run quietly, as it does any filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
