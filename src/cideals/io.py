"""Instance file format, report rendering, and DOT export.

Instance files are line-oriented::

    # comment lines and blank lines are ignored
    name: fig1
    elements: 0 a b c 1
    le: 0 < a
    le: a < 1
    comp: 0 -> 1

Sections appear in order name, elements, le, comp; the comp section is
optional (poset-only analyses are allowed).  ``le`` pairs may be any subset
of the order; the reflexive-transitive closure is always applied.  Parse
errors carry 1-based line numbers.

The machine report format is also line-oriented, one ``key: value`` record
per line with space-free tokens, set literals like ``{0,b,1}``, and ``none``
for absent values, so that parsing a rendered report recovers every set and
flag exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .complement import ComplementedPoset, attach_complementation
from .errors import DuplicateSection, ParseError, UnknownName
from .harness import StatementId, TheoremCheckResult, run_all
from .poset import DistributivityReport, Poset, build_poset, iter_bits

# -- instance files -----------------------------------------------------------


@dataclass(frozen=True)
class InstanceFile:
    """Parsed but not yet validated instance text."""

    name: str
    elements: tuple[str, ...]
    le: tuple[tuple[str, str], ...]
    comp: tuple[tuple[str, str], ...] | None


@dataclass(frozen=True)
class Instance:
    """A named poset, optionally with a validated complementation."""

    name: str
    poset: Poset
    cp: ComplementedPoset | None


#: the pair sections and the arrow between the two names of each line
_PAIR_ARROWS = {"le": "<", "comp": "->"}


def parse_instance(text: str) -> InstanceFile:
    """Parse instance text; raises ParseError/UnknownName with line numbers."""
    name: str | None = None
    elements: tuple[str, ...] | None = None
    le: list[tuple[str, str]] = []
    comp: list[tuple[str, str]] = []
    seen_comp = False
    last_line = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        last_line = ln
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value' on line {ln}", line=ln)
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "name":
            if name is not None:
                raise DuplicateSection(f"second name section on line {ln}", line=ln)
            if elements is not None or le or comp:
                raise ParseError(f"name section must come first (line {ln})", line=ln)
            parts = rest.split()
            if len(parts) != 1:
                raise ParseError(f"name needs exactly one token on line {ln}", line=ln)
            name = parts[0]
        elif key == "elements":
            if elements is not None:
                raise DuplicateSection(f"second elements section on line {ln}", line=ln)
            if name is None:
                raise ParseError(f"elements section before name (line {ln})", line=ln)
            if le or comp:
                raise ParseError(f"elements section must precede le/comp (line {ln})", line=ln)
            parts = tuple(rest.split())
            if not parts:
                raise ParseError(f"elements section is empty on line {ln}", line=ln)
            dupes = {e for e in parts if parts.count(e) > 1}
            if dupes:
                raise ParseError(f"duplicate element {sorted(dupes)[0]!r} on line {ln}", line=ln)
            elements = parts
        elif key in _PAIR_ARROWS:
            if elements is None:
                raise ParseError(f"{key} line before elements (line {ln})", line=ln)
            if key == "le" and seen_comp:
                raise ParseError(f"le line after comp section (line {ln})", line=ln)
            seen_comp = seen_comp or key == "comp"
            parts = rest.split()
            if len(parts) != 3 or parts[1] != _PAIR_ARROWS[key]:
                raise ParseError(f"expected '{key}: a {_PAIR_ARROWS[key]} b' on line {ln}", line=ln)
            for tok in (parts[0], parts[2]):
                if tok not in elements:
                    raise UnknownName(f"unknown element {tok!r} on line {ln}", line=ln)
            (le if key == "le" else comp).append((parts[0], parts[2]))
        else:
            raise ParseError(f"unknown section {key!r} on line {ln}", line=ln)
    if name is None:
        raise ParseError("missing name section", line=last_line or 1)
    if elements is None:
        raise ParseError("missing elements section", line=last_line or 1)
    return InstanceFile(name, elements, tuple(le), tuple(comp) if seen_comp else None)


def build_instance(source: InstanceFile) -> Instance:
    """Validate a parsed file into a poset (and complementation, if given)."""
    poset = build_poset(list(source.elements), list(source.le))
    cp = attach_complementation(poset, list(source.comp)) if source.comp is not None else None
    return Instance(source.name, poset, cp)


def load_instance(text: str) -> Instance:
    return build_instance(parse_instance(text))


def emit_instance(instance: Instance) -> str:
    """Canonical instance text: cover pairs only, deterministic order."""
    lines = [f"name: {instance.name}", "elements: " + " ".join(instance.poset.names)]
    for a, b in instance.poset.cover_pairs():
        lines.append(f"le: {a} < {b}")
    if instance.cp is not None:
        for x, name in enumerate(instance.poset.names):
            lines.append(f"comp: {name} -> {instance.poset.names[instance.cp.comp[x]]}")
    return "\n".join(lines) + "\n"


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class ClassRow:
    """One ideal or filter with its classification columns.

    ``ccond``/``is_c``/``witness`` are ``None`` on poset-only instances.
    """

    mask: int
    proper: bool
    principal: int | None
    maximal: bool
    prime: bool
    ccond: bool | None
    is_c: bool | None
    witness: int | None


@dataclass(frozen=True)
class Report:
    name: str
    poset: Poset
    cp: ComplementedPoset | None
    distributivity: DistributivityReport
    join_semilattice: bool
    meet_semilattice: bool
    ideals: tuple[ClassRow, ...]
    filters: tuple[ClassRow, ...]
    theorems: tuple[TheoremCheckResult, ...] | None


def family_rows(instance: Instance, kind: str) -> tuple[ClassRow, ...]:
    """The classified ideals (``kind`` "ideal") or filters ("filter") of an
    instance, without the report's flags and statement results.  The
    filters are the ideals of the order dual, classified the same way; the
    ``principal`` column still prefers the ideal reading of the instance."""
    p, cp, generator = instance.poset, instance.cp, instance.poset.facts.generator
    if kind == "filter":
        p, cp = p.dual(), cp and cp.dual()
    a = p.facts
    witnesses = cp.facts.c_ideal_witnesses if cp else {}
    rows = []
    for mask in a.ideals:
        witness = witnesses.get(mask)
        rows.append(
            ClassRow(
                mask=mask,
                proper=mask != p.all_mask,
                principal=generator(mask),
                maximal=mask in a.maximal_ideal_set,
                prime=mask in a.prime_ideal_set,
                ccond=cp.facts.c_condition(mask) if cp else None,
                is_c=(witness is not None) if cp else None,
                witness=witness,
            )
        )
    return tuple(rows)


def build_report(instance: Instance) -> Report:
    """Classify every ideal and filter; run the statement harness if possible.

    The rows and the harness read the facts kept on the poset and on the
    complementation.
    """
    p, cp = instance.poset, instance.cp
    ideal_rows = family_rows(instance, "ideal")
    filter_rows = family_rows(instance, "filter")
    theorems = tuple(run_all(cp)) if cp else None
    join_sl, meet_sl = p.facts.semilattice_flags
    return Report(
        name=instance.name,
        poset=p,
        cp=cp,
        distributivity=p.facts.distributivity,
        join_semilattice=join_sl,
        meet_semilattice=meet_sl,
        ideals=ideal_rows,
        filters=filter_rows,
        theorems=theorems,
    )


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _opt_name(p: Poset, idx: int | None) -> str:
    return "none" if idx is None else p.names[idx]


def render_machine(report: Report) -> str:
    """Stable machine-readable rendering; see the module docstring."""
    p, cp = report.poset, report.cp
    lines = [f"report: {report.name}", "elements: " + " ".join(p.names)]
    lines.append(f"flag: bounded={_flag(p.bounded)}")
    lines.append(f"flag: has_complement={_flag(cp is not None)}")
    if cp is not None:
        for field in fields(cp.props):
            lines.append(f"flag: {field.name}={_flag(getattr(cp.props, field.name))}")
    lines.append(f"flag: distributive={_flag(report.distributivity.holds)}")
    lines.append(f"flag: join_semilattice={_flag(report.join_semilattice)}")
    lines.append(f"flag: meet_semilattice={_flag(report.meet_semilattice)}")
    if not report.distributivity.holds:
        x, y, z = report.distributivity.witness
        lines.append(
            "witness: distributivity=({},{},{}) lhs={} rhs={}".format(
                p.names[x],
                p.names[y],
                p.names[z],
                p.format_set(report.distributivity.lhs),
                p.format_set(report.distributivity.rhs),
            )
        )
    if cp is not None:
        lines.append(f"set: boolean={p.format_set(cp.boolean_elements())}")
        for x in range(p.n):
            cx = cp.comp[x]
            lines.append(
                f"element: name={p.names[x]} comp={p.names[cx]} "
                f"comp2={p.names[cp.comp[cx]]} boolean={_flag(cp.comp[cx] == x)}"
            )
    for kind, rows in (("ideal", report.ideals), ("filter", report.filters)):
        for row in rows:
            lines.append(machine_class_row(p, row, kind, with_comp=cp is not None))
    if report.theorems is not None:
        lines.extend(machine_theorem_row(res) for res in report.theorems)
    return "\n".join(lines) + "\n"


def machine_class_row(p: Poset, row: ClassRow, kind: str, with_comp: bool) -> str:
    """One ideal/filter record of the machine format."""
    max_key = "maximal" if kind == "ideal" else "ultrafilter"
    parts = [
        f"{kind}: set={p.format_set(row.mask)}",
        f"proper={_flag(row.proper)}",
        f"principal={_opt_name(p, row.principal)}",
        f"{max_key}={_flag(row.maximal)}",
        f"prime={_flag(row.prime)}",
    ]
    if with_comp:
        parts.append(f"ccond={_flag(row.ccond)}")
        parts.append(f"c{kind}={_flag(row.is_c)}")
        parts.append(
            "witness=" + (p.format_set(row.witness) if row.witness is not None else "none")
        )
    return " ".join(parts)


def machine_theorem_row(res: TheoremCheckResult) -> str:
    parts = [
        f"theorem: tag={res.statement.value}",
        f"hypotheses={_flag(res.hypotheses_met)}",
        "conclusion=" + ("none" if res.conclusion_holds is None else _flag(res.conclusion_holds)),
    ]
    if res.counterexample:
        payload = ";".join(f"{k}:{v}" for k, v in res.counterexample.items())
        parts.append(f"counterexample={payload}")
    else:
        parts.append("counterexample=none")
    return " ".join(parts)


@dataclass(frozen=True)
class ParsedReport:
    """Machine report read back into plain data (names, not indices)."""

    name: str
    elements: tuple[str, ...]
    flags: dict[str, bool]
    boolean: frozenset[str] | None
    distributivity_witness: tuple[tuple[str, str, str], frozenset[str], frozenset[str]] | None
    element_rows: tuple[dict, ...]
    ideal_rows: tuple[dict, ...]
    filter_rows: tuple[dict, ...]
    theorem_rows: tuple[dict, ...]


def _parse_set_literal(token: str, line: int) -> frozenset[str]:
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError(f"malformed set literal {token!r} on line {line}", line=line)
    inner = token[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def _parse_scalar(token: str, line: int):
    if token == "none":
        return None
    if token in ("true", "false"):
        return token == "true"
    if token.startswith("{"):
        return _parse_set_literal(token, line)
    return token


def _parse_fields(chunks: list[str], line: int) -> dict:
    """``key=value`` fields; ``set`` needs a set literal, as does
    ``witness`` unless it is ``none``."""
    row = {}
    for chunk in chunks:
        key, eq, value = chunk.partition("=")
        if not eq:
            raise ParseError(f"malformed field {chunk!r} on line {line}", line=line)
        if key == "set" or (key == "witness" and value != "none"):
            row[key] = _parse_set_literal(value, line)
        else:
            row[key] = _parse_scalar(value, line)
    return row


#: the boolean fields of each row record; ``theorem:``'s conclusion may also
#: read ``none``
_BOOL_FIELDS = {
    "element": ("boolean",),
    "ideal": ("proper", "maximal", "prime", "ccond", "cideal"),
    "filter": ("proper", "ultrafilter", "prime", "ccond", "cfilter"),
    "theorem": ("hypotheses", "conclusion"),
}


def _parse_row(key: str, rest: str, line: int) -> dict:
    row = _parse_fields(rest.split(), line)
    for field in _BOOL_FIELDS[key]:
        value = row.get(field, False)
        if not (isinstance(value, bool) or (value is None and field == "conclusion")):
            raise ParseError(f"expected {field}=true|false in {key} record on line {line}", line=line)
    return row


def parse_machine_report(text: str) -> ParsedReport:
    """Recover every set and flag from a machine-format report."""
    name = None
    first_line = None
    elements: tuple[str, ...] = ()
    flags: dict[str, bool] = {}
    boolean = None
    dist_witness = None
    rows: dict[str, list[dict]] = {key: [] for key in _BOOL_FIELDS}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        first_line = first_line or ln
        key, sep, rest = line.partition(": ")
        if not sep:
            raise ParseError(f"expected 'key: value' on line {ln}", line=ln)
        if key == "report":
            name = rest.strip()
        elif key == "elements":
            elements = tuple(rest.split())
        elif key == "flag":
            fname, _, fval = rest.partition("=")
            if fval not in ("true", "false"):
                raise ParseError(f"expected 'flag: name=true|false' on line {ln}", line=ln)
            flags[fname] = fval == "true"
        elif key == "set":
            fname, _, fval = rest.partition("=")
            members = _parse_set_literal(fval, ln)
            if fname == "boolean":
                boolean = members
        elif key == "witness":
            record = _parse_fields(rest.split(), ln)
            triple, lhs, rhs = (record.get(k) for k in ("distributivity", "lhs", "rhs"))
            if not (isinstance(triple, str) and isinstance(lhs, frozenset) and isinstance(rhs, frozenset)):
                raise ParseError(f"malformed distributivity witness on line {ln}", line=ln)
            dist_witness = (tuple(triple.strip("()").split(",")), lhs, rhs)
        elif key in rows:
            row = _parse_row(key, rest, ln)
            cex = row.get("counterexample") if key == "theorem" else None
            if isinstance(cex, str):
                pairs = [pair.split(":", 1) for pair in cex.split(";")]
                if any(len(pair) != 2 for pair in pairs):
                    raise ParseError(f"malformed counterexample {cex!r} on line {ln}", line=ln)
                row["counterexample"] = dict(pairs)
            rows[key].append(row)
        else:
            raise ParseError(f"unknown record {key!r} on line {ln}", line=ln)
    if name is None:
        raise ParseError("missing report line", line=first_line or 1)
    return ParsedReport(
        name=name,
        elements=elements,
        flags=flags,
        boolean=boolean,
        distributivity_witness=dist_witness,
        element_rows=tuple(rows["element"]),
        ideal_rows=tuple(rows["ideal"]),
        filter_rows=tuple(rows["filter"]),
        theorem_rows=tuple(rows["theorem"]),
    )


def text_class_label(p: Poset, row: ClassRow, kind: str) -> str:
    """Text label of an ideal as L(greatest), of a filter as U(least), read
    from the generator maps; every ideal and filter of a finite poset is
    principal.  A filter's least element is its greatest in the dual.
    Unlike the machine ``principal`` field, the improper filter reads
    U(bottom), not top."""
    letter, side = ("L", p) if kind == "ideal" else ("U", p.dual())
    return f"{letter}({p.names[side.facts.down_generator[row.mask]]})"


def _describe_row(p: Poset, row: ClassRow, kind: str) -> str:
    label = text_class_label(p, row, kind)
    tags = []
    if not row.proper:
        tags.append("improper")
    if row.maximal:
        tags.append("maximal" if kind == "ideal" else "ultrafilter")
    if row.prime:
        tags.append("prime")
    if row.is_c:
        tags.append(f"c-{kind}")
    if row.ccond:
        tags.append("c-condition")
    suffix = f"  [{', '.join(tags)}]" if tags else ""
    witness = ""
    if row.witness is not None:
        witness = f"  witness {p.format_set(row.witness)}"
    return f"  {label:<8} {p.format_set(row.mask)}{suffix}{witness}"


def render_text(report: Report) -> str:
    """Human-oriented rendering of the same content."""
    p, cp = report.poset, report.cp
    lines = [f"instance {report.name}: {p.n} elements ({' '.join(p.names)})"]
    bounds = (
        f"bottom={p.names[p.bottom]} top={p.names[p.top]}" if p.bounded else "unbounded"
    )
    lines.append(
        f"order: {bounds}; distributive={_flag(report.distributivity.holds)}; "
        f"join-semilattice={_flag(report.join_semilattice)}; "
        f"meet-semilattice={_flag(report.meet_semilattice)}"
    )
    if not report.distributivity.holds:
        x, y, z = report.distributivity.witness
        lines.append(
            f"  distributivity fails at ({p.names[x]},{p.names[y]},{p.names[z]}): "
            f"L(U(x,y),z)={p.format_set(report.distributivity.lhs)} but "
            f"LU(L(x,z),L(y,z))={p.format_set(report.distributivity.rhs)}"
        )
    if cp is not None:
        pr = cp.props
        lines.append(
            f"complement: antitone={_flag(pr.antitone)} involution={_flag(pr.involution)} "
            f"x<=x''={_flag(pr.x_le_xdd)} x''<=x={_flag(pr.xdd_le_x)} "
            f"x'''=x'={_flag(pr.triple_identity)} De-Morgan={_flag(pr.de_morgan)}"
        )
        lines.append(f"Boolean elements: {p.format_set(cp.boolean_elements())}")
    lines.append(f"ideals ({len(report.ideals)}):")
    lines.extend(_describe_row(p, row, "ideal") for row in report.ideals)
    lines.append(f"filters ({len(report.filters)}):")
    lines.extend(_describe_row(p, row, "filter") for row in report.filters)
    if report.theorems is not None:
        failed = [t for t in report.theorems if t.conclusion_holds is False]
        unmet = [t for t in report.theorems if not t.hypotheses_met and t.probe is not None]
        undecided = [t for t in report.theorems if not t.hypotheses_met and t.probe is None]
        lines.append(
            f"statements: {len(report.theorems)} checked, "
            f"{len(failed)} counterexamples, {len(unmet)} not applicable"
            + (f", {len(undecided)} not verified" if undecided else "")
        )
        lines.extend("  " + text_theorem_row(res) for res in report.theorems)
    return "\n".join(lines) + "\n"


def text_theorem_row(res: TheoremCheckResult) -> str:
    """One statement result of the text format.  A not-applicable row ends
    with its probe note, which says whether the unguarded conclusion holds."""
    tag = res.statement.value
    if res.conclusion_holds is False:
        payload = ", ".join(f"{k}={v}" for k, v in (res.counterexample or {}).items())
        return f"{tag}: COUNTEREXAMPLE {payload}"
    if res.hypotheses_met:
        return f"{tag}: verified"
    if res.probe is None:
        return f"{tag}: not verified ({res.detail})"
    return f"{tag}: not applicable ({res.detail}; probe: {res.probe})"


# -- DOT export ---------------------------------------------------------------

_PALETTE = ("#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6", "#ffff99")


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(p: Poset, name: str = "poset", highlights: list[tuple[str, int]] | None = None) -> str:
    """DOT digraph of the cover relation, drawn bottom-up.

    Each highlight (label, mask) pair gets a distinct fill color; nodes in
    several highlight sets take the first match.  Output is deterministic.
    """
    highlights = highlights or []
    fill: dict[int, tuple[str, str]] = {}
    for pos, (label, mask) in enumerate(highlights):
        p.check_mask(mask)
        color = _PALETTE[pos % len(_PALETTE)]
        for x in iter_bits(mask):
            fill.setdefault(x, (color, label))
    lines = [f"digraph {_dot_string(name)} {{", "  rankdir=BT;", '  node [shape=circle, fontsize=11];']
    for x in range(p.n):
        attrs = [f"label={_dot_string(p.names[x])}"]
        if x in fill:
            color, label = fill[x]
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{color}"')
            attrs.append(f"tooltip={_dot_string(label)}")
        lines.append(f'  n{x} [{", ".join(attrs)}];')
    for i, j in p.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
