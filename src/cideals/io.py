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
of the order; the reflexive-transitive closure is always applied.  Element
names follow the rule every ``Poset`` applies to its names.  Parse errors,
a name that breaks that rule included, carry 1-based line numbers.

The machine format is line-oriented too: one record ``kind: fields`` per
line, each field ``key=token`` with a space-free token.
``MACHINE_RECORDS`` is the only place the fields are written; rendering and
parsing both walk it.  The records of a report, in report order, then the
lines of ``separate`` and ``corpus``, with each field's type::

    report:   the report name (tag)
    elements: the element names (names)
    flag:     one per line, each at most once, all of type flag: bounded,
              has_complement, antitone, involution, x_le_xdd, xdd_le_x,
              triple_identity, de_morgan, distributive, join_semilattice,
              meet_semilattice
    witness:  distributivity (triple), lhs (set), rhs (set)
    set:      boolean (set)
    element:  name (name), comp (name), comp2 (name), boolean (flag)
    ideal:    set (set), proper (flag), principal (optional name),
              maximal (flag), prime (flag), ccond (flag), cideal (flag),
              witness (optional set)
    filter:   as ideal, with ultrafilter for maximal and cfilter for cideal
    theorem:  tag (tag), hypotheses (flag), conclusion (conclusion),
              counterexample (counterexample)
    separation: mode (tag), ideal (set), filter (set), witness (optional
              set), failure (optional tag)
    corpus:   name (tag), size (count)
    divergence: instance (tag), list (tag), published (set), computed (set)

The complementation flags, ``set:`` and ``element:`` need a complementation;
a poset-only report says ``has_complement=false`` and ends each ideal and
filter row after ``prime``.  ``witness:`` appears when distributivity fails.
A flag is ``true|false``, a name one of ``elements:``, a set ``{a,b}``, a
triple ``(x,y,z)``, a tag one space-free token, names distinct tokens that
a ``Poset`` accepts as element names, a conclusion ``true|false|none``, a
counterexample ``none`` or ``key:value`` pairs joined by ``;``, with
distinct non-empty keys and each value a set, sets joined by ``+``, a
triple of ``True|False`` or a name, a count a decimal integer; optional
means the type or ``none``.

``parse_machine_report`` reads the records of a report only.  It recovers
every set and flag exactly and raises ParseError with the line number on an
unknown record or a ``separation:``, ``corpus:`` or ``divergence:`` line;
a line whose fields are not exactly its record's fields in order (missing,
unknown, repeated, reordered or extra); a token not of its field's type,
such as a name or set member not in ``elements:``, an ``elements:`` name
that repeats or that no ``Poset`` accepts, a triple without three parts, or
a counterexample with a repeated or empty key or a value of none of its
shapes; a second ``report:``, ``elements:``, ``set:`` or ``witness:`` line
or a repeated ``flag:``; and a text without a ``report:`` line.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter

from .complement import ComplementedPoset, ComplementProperties, attach_complementation
from .errors import DuplicateSection, ParseError, PosetError, UnknownName
from .harness import TheoremCheckResult, run_all
from .poset import Poset, _validate_names, build_poset, iter_bits, record
from .substructures import CLASSES, ClassRow, family_rows

# -- instance files -----------------------------------------------------------


@record
class InstanceFile:
    """Parsed but not yet validated instance text."""

    name: str
    elements: tuple[str, ...]
    le: tuple[tuple[str, str], ...]
    comp: tuple[tuple[str, str], ...] | None


@record
class Instance:
    """A named poset, optionally with a validated complementation."""

    name: str
    poset: Poset
    cp: ComplementedPoset | None


#: the pair sections and the arrow between the two names of each line
_PAIR_ARROWS = {"le": "<", "comp": "->"}


def parse_instance(text: str) -> InstanceFile:
    """Parse instance text; raises ParseError/UnknownName with line numbers.
    The pair lines, nearly all of a file, are tested first."""
    name: str | None = None
    elements: tuple[str, ...] | None = None
    members: set[str] = set()  # the names in elements, for the pair lines
    le: list[tuple[str, str]] = []
    comp: dict[str, str] = {}
    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, colon, rest = line.partition(":")
        if not colon:
            raise ParseError(f"expected 'key: value' on line {ln}", line=ln)
        key = key.strip()
        parts = rest.split()
        if key in _PAIR_ARROWS:
            if elements is None:
                raise ParseError(f"{key} line before elements (line {ln})", line=ln)
            if key == "le" and comp:
                raise ParseError(f"le line after comp section (line {ln})", line=ln)
            if len(parts) != 3 or parts[1] != _PAIR_ARROWS[key]:
                raise ParseError(f"expected '{key}: a {_PAIR_ARROWS[key]} b' on line {ln}", line=ln)
            a, _, b = parts
            for tok in (a, b):
                if tok not in members:
                    raise UnknownName(f"unknown element {tok!r} on line {ln}", line=ln)
            if key == "le":
                le.append((a, b))
            elif a in comp:
                raise ParseError(f"duplicate complement entry for {a!r} on line {ln}", line=ln)
            else:
                comp[a] = b
        elif key == "name":
            if name is not None:
                raise DuplicateSection(f"second name section on line {ln}", line=ln)
            if len(parts) != 1:
                raise ParseError(f"name needs exactly one token on line {ln}", line=ln)
            name = parts[0]
        elif key == "elements":
            if elements is not None:
                raise DuplicateSection(f"second elements section on line {ln}", line=ln)
            if name is None:
                raise ParseError(f"elements section before name (line {ln})", line=ln)
            if not parts:
                raise ParseError(f"elements section is empty on line {ln}", line=ln)
            members = set(parts)
            if len(members) != len(parts):
                dupe = min(e for e in parts if parts.count(e) > 1)
                raise ParseError(f"duplicate element {dupe!r} on line {ln}", line=ln)
            try:  # the name rule every Poset applies, reported at its line
                _validate_names(parts)
            except PosetError as exc:
                raise ParseError(f"{exc} on line {ln}", line=ln) from None
            elements = tuple(parts)
        else:
            raise ParseError(f"unknown section {key!r} on line {ln}", line=ln)
    if name is None:
        raise ParseError("missing name section", line=len(lines) or 1)
    if elements is None:
        raise ParseError("missing elements section", line=len(lines) or 1)
    return InstanceFile(name, elements, tuple(le), tuple(comp.items()) if comp else None)


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


@record
class Report:
    name: str
    poset: Poset
    cp: ComplementedPoset | None
    ideals: tuple[ClassRow, ...]
    filters: tuple[ClassRow, ...]
    theorems: tuple[TheoremCheckResult, ...] | None


def build_report(instance: Instance) -> Report:
    """Classify every ideal and filter; run the statement harness if possible.

    The rows and the harness read the facts kept on the poset and on the
    complementation; the renderers read the order's distributivity and
    semilattice flags from ``report.poset.facts``.
    """
    p, cp = instance.poset, instance.cp
    return Report(name=instance.name, poset=p, cp=cp, ideals=family_rows(cp or p, "ideal"),
                  filters=family_rows(cp or p, "filter"), theorems=tuple(run_all(cp)) if cp else None)


# -- machine format -----------------------------------------------------------


class _Writer:
    """Writes the tokens of one report over the element ``names``.  Each set
    is written once: a report repeats many, since a witness is an ideal or
    filter."""

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names, self.sets = names, {}

    def set_token(self, mask: int) -> str:
        if mask not in self.sets:
            self.sets[mask] = "{" + ",".join([self.names[i] for i in iter_bits(mask)]) + "}"
        return self.sets[mask]


class _Type:
    """A field type: ``token(w)`` is the function that writes a value as one
    token with ``_Writer`` ``w``; ``read(token, elements)`` reads a token
    back and raises ValueError, KeyError or PosetError on a malformed token
    or a name that is not in ``elements``."""

    def __init__(self, name: str, token, read) -> None:
        self.name, self.token, self.read = name, token, read


def _expect(ok: bool, value):
    """``value``, or ValueError unless ``ok``."""
    if not ok:
        raise ValueError(value)
    return value


def _read_name(token: str, elements) -> str:
    return _expect(token in elements, token)


def _read_members(token: str, elements, brackets: str) -> list[str]:
    """The comma-separated names between ``brackets``."""
    inner = _expect(token[:1] + token[-1:] == brackets, token)[1:-1]
    return [_read_name(m, elements) for m in inner.split(",")] if inner else []


def _read_triple(token: str, elements) -> tuple[str, str, str]:
    x, y, z = _read_members(token, elements, "()")  # ValueError unless three
    return x, y, z


def _read_names(token: str, _) -> tuple[str, ...]:
    """Element names, by the rule every ``Poset`` applies to its names."""
    names = tuple(token.split())
    _validate_names(names)
    return names


def _counterexample(v: dict[str, str] | None) -> str:
    return ";".join(f"{k}:{x}" for k, x in v.items()) if v else "none"


def _read_value(value: str, elements) -> None:
    """A counterexample value of one of the shapes the checkers write: a
    triple of ``True|False``; a set, or sets joined at ``}+{`` (a name may
    hold ``+`` but no brace); or one name."""
    if value[:1] == "(":
        _read_triple(value, ("True", "False"))
    elif value[:1] + value[-1:] == "{}":
        for part in value[1:-1].split("}+{"):
            _read_members("{" + part + "}", elements, "{}")
    else:
        _read_name(value, elements)


def _read_counterexample(token: str, elements) -> dict[str, str] | None:
    """``none``, or ``key:value`` pairs that write back as ``token`` (so no
    key repeats), with no empty key and each value of a shape
    :func:`_read_value` reads, kept as written."""
    found = None if token == "none" else dict(pair.split(":", 1) for pair in token.split(";"))
    _expect(_counterexample(found) == token and all(found or {}), token)
    for value in (found or {}).values():
        _read_value(value, elements)
    return found


def _optional(t: _Type) -> _Type:
    """``t``, or ``none`` for an absent value."""

    def token(w: _Writer):
        present = t.token(w)
        return lambda v: "none" if v is None else present(v)

    return _Type(f"optional {t.name}", token,
                 lambda token, elements: None if token == "none" else t.read(token, elements))


def _words(name: str, words: dict) -> _Type:
    """A type whose tokens are the keys of ``words``, read as its values."""
    tokens = {value: token for token, value in words.items()}
    return _Type(name, lambda w: tokens.__getitem__, lambda token, _: words[token])


_FLAG = _words("flag", {"true": True, "false": False})
_NAME = _Type("name", lambda w: w.names.__getitem__, _read_name)
_SET = _Type("set", lambda w: w.set_token,
             lambda token, elements: frozenset(_read_members(token, elements, "{}")))
_TRIPLE = _Type("triple", lambda w: lambda v: f"({','.join(w.names[x] for x in v)})", _read_triple)
_TAG = _Type("tag", lambda w: str, lambda token, _: _expect(token.split() == [token], token))
_NAMES = _Type("names", lambda w: " ".join, _read_names)
_COUNTEREXAMPLE = _Type("counterexample", lambda w: _counterexample, _read_counterexample)
_COUNT = _Type("count", lambda w: str, lambda token, _: int(_expect(token.isascii() and token.isdecimal(), token)))


def _class_fields(max_key: str, c_key: str) -> tuple:
    """An ideal or filter row; a poset-only report ends it after ``prime``."""
    return (("set", _SET), ("proper", _FLAG), ("principal", _optional(_NAME)), (max_key, _FLAG),
            ("prime", _FLAG), ("ccond", _FLAG), (c_key, _FLAG), ("witness", _optional(_SET)))


_FLAG_KEYS = ("bounded", "has_complement", *(f.name for f in fields(ComplementProperties)),
              "distributive", "join_semilattice", "meet_semilattice")

#: record kind -> its fields in order, as (key, type); the one field of
#: ``report:`` and ``elements:`` has no key and takes the rest of the line.
#: This is the only place a record's fields are written: rendering and
#: parsing both walk it, and README's machine-format table mirrors it.
MACHINE_RECORDS = {
    "report": (("", _TAG),),
    "elements": (("", _NAMES),),
    "flag": tuple((key, _FLAG) for key in _FLAG_KEYS),
    "set": (("boolean", _SET),),
    "witness": (("distributivity", _TRIPLE), ("lhs", _SET), ("rhs", _SET)),
    "element": (("name", _NAME), ("comp", _NAME), ("comp2", _NAME), ("boolean", _FLAG)),
    "ideal": _class_fields("maximal", "cideal"),
    "filter": _class_fields("ultrafilter", "cfilter"),
    "theorem": (("tag", _TAG), ("hypotheses", _FLAG),
                ("conclusion", _words("conclusion", {"true": True, "false": False, "none": None})),
                ("counterexample", _COUNTEREXAMPLE)),
    "separation": (("mode", _TAG), ("ideal", _SET), ("filter", _SET), ("witness", _optional(_SET)),
                   ("failure", _optional(_TAG))),
    "corpus": (("name", _TAG), ("size", _COUNT)),
    "divergence": (("instance", _TAG), ("list", _TAG), ("published", _SET), ("computed", _SET)),
}
#: the records of a report, which ``parse_machine_report`` reads; the others
#: are the lines of ``separate`` and ``corpus``
_REPORT_RECORDS = {k: r for k, r in MACHINE_RECORDS.items() if k not in ("separation", "corpus", "divergence")}
#: the records written one field per line; the others hold all their fields
_ONE_FIELD_PER_LINE = ("flag", "set")
#: the records a report holds many of; in the others each field appears once
_ROWS = ("element", "ideal", "filter", "theorem")
#: the fields an ideal or filter row keeps in a report that says
#: ``has_complement=false``
_ORDER_FIELDS = [key for key, _ in MACHINE_RECORDS["ideal"]].index("prime") + 1

#: per record, each field's ``%`` template: ``key=%s``, or ``%s`` when bare
_TEMPLATES = {
    kind: [f"{key}=%s" if key else "%s" for key, _ in record] for kind, record in MACHINE_RECORDS.items()
}


def _lines(kind: str, w: _Writer, rows, width: int | None = None) -> list[str]:
    """One ``kind`` line per tuple of field values in ``rows``, holding its
    first ``width`` fields (all by default); rendered a column at a time."""
    record = MACHINE_RECORDS[kind][:width]
    template = f"{kind}: " + " ".join(_TEMPLATES[kind][:width])
    columns = [map(t.token(w), column) for (_, t), column in zip(record, zip(*rows))]
    return [template % tokens for tokens in zip(*columns)]


#: the field values of an ideal or filter row, and of a theorem row
_CLASS_VALUES = attrgetter("mask", "proper", "principal", "maximal", "prime", "ccond", "is_c", "witness")
_THEOREM_VALUES = attrgetter("statement.value", "hypotheses_met", "conclusion_holds", "counterexample")


def _class_lines(kind: str, w: _Writer, rows: tuple[ClassRow, ...]) -> list[str]:
    """One ideal or filter line per row.  A row without the complementation
    columns, of a poset-only instance, ends after ``prime``."""
    width = _ORDER_FIELDS if rows[0].ccond is None else None
    return _lines(kind, w, map(_CLASS_VALUES, rows), width)


def render_machine(report: Report) -> str:
    """Stable machine-readable rendering; see the module docstring."""
    p, cp = report.poset, report.cp
    dist, (join_sl, meet_sl) = p.facts.distributivity, p.facts.semilattice_flags
    flags = {"bounded": p.bounded, "has_complement": cp is not None, **(vars(cp.props) if cp else {}),
             "distributive": dist.holds, "join_semilattice": join_sl, "meet_semilattice": meet_sl}
    w = _Writer(p.names)
    lines = _lines("report", w, [(report.name,)]) + _lines("elements", w, [(p.names,)])
    lines += [f"flag: {key}={t.token(w)(flags[key])}" for key, t in MACHINE_RECORDS["flag"] if key in flags]
    if not dist.holds:
        lines += _lines("witness", w, [(dist.witness, dist.lhs, dist.rhs)])
    if cp is not None:
        lines += _lines("set", w, [(cp.boolean_elements(),)])
        lines += _lines("element", w, [(x, cx, cp.comp[cx], cp.comp[cx] == x) for x, cx in enumerate(cp.comp)])
    lines += _class_lines("ideal", w, report.ideals)
    lines += _class_lines("filter", w, report.filters)
    if report.theorems is not None:
        lines += _lines("theorem", w, map(_THEOREM_VALUES, report.theorems))
    return "\n".join(lines) + "\n"


def machine_line(kind: str, p: Poset, *values) -> str:
    """One ``kind`` record holding ``values``, its fields in order, with the
    element names of ``p``."""
    return _lines(kind, _Writer(p.names), [values])[0]


def machine_class_row(p: Poset, row: ClassRow, kind: str) -> str:
    """One ideal/filter record of the machine format."""
    return _class_lines(kind, _Writer(p.names), (row,))[0]


def machine_theorem_row(res: TheoremCheckResult) -> str:
    return _lines("theorem", _Writer(()), [_THEOREM_VALUES(res)])[0]


@record
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


def _read_fields(record, rest: str, elements) -> dict:
    """The fields of one line, which holds exactly ``record``'s fields in
    order; raises ValueError."""
    tokens = rest.split() if record[0][0] else [rest]
    if len(tokens) != len(record):
        raise ValueError(f"expected the fields {' '.join(k for k, _ in record)}, got {len(tokens)} tokens")
    row = {}
    for (key, t), token in zip(record, tokens):
        got, eq, value = token.partition("=") if key else ("", "=", token)
        if got != key or not eq:
            raise ValueError(f"expected field {key!r}, got {token!r}")
        try:
            row[key] = t.read(value, elements)
        except (KeyError, ValueError, PosetError):
            raise ValueError(f"bad {t.name} {value!r}" + (f" in field {key!r}" if key else "")) from None
    return row


def parse_machine_report(text: str) -> ParsedReport:
    """Read a machine report back, strictly; see the module docstring."""
    first_line, elements = None, frozenset()
    once: dict[str, dict] = {kind: {} for kind in _REPORT_RECORDS if kind not in _ROWS}
    rows: dict[str, list[dict]] = {kind: [] for kind in _ROWS}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        first_line = first_line or ln
        kind, sep, rest = line.partition(": ")
        record = _REPORT_RECORDS.get(kind) if sep else None
        if record is None:
            what = f"unknown report record {kind!r}" if sep else "expected 'kind: fields'"
            raise ParseError(f"{what} on line {ln}", line=ln)
        try:
            if kind in _ONE_FIELD_PER_LINE:
                key = rest.partition("=")[0]
                record = [field for field in record if field[0] == key]
                if not record:
                    raise ValueError(f"unknown field {key!r}")
            elif kind in ("ideal", "filter") and once["flag"].get("has_complement") is False:
                record = record[:_ORDER_FIELDS]
            row = _read_fields(record, rest, elements)
            if kind in rows:
                rows[kind].append(row)
            elif once[kind].keys() & row.keys():
                raise ValueError("repeated record or field")
            else:
                once[kind].update(row)
        except ValueError as exc:
            raise ParseError(f"{exc} in {kind} record on line {ln}", line=ln) from None
        if kind == "elements":
            elements = frozenset(once[kind][""])
    if not once["report"]:
        raise ParseError("missing report line", line=first_line or 1)
    return ParsedReport(
        name=once["report"][""], elements=once["elements"].get("", ()), flags=once["flag"],
        boolean=once["set"].get("boolean"), distributivity_witness=tuple(once["witness"].values()) or None,
        **{f"{kind}_rows": tuple(found) for kind, found in rows.items()},
    )


def text_class_label(p: Poset, row: ClassRow, kind: str) -> str:
    """Text label of an ideal as L(greatest), of a filter as U(least): the
    row's ``generator``.  Unlike the machine ``principal`` field, the
    improper filter reads U(bottom), not top."""
    return f"{'L' if kind == 'ideal' else 'U'}({p.names[row.generator]})"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _describe_row(p: Poset, row: ClassRow, kind: str) -> str:
    """A text report row, tagged with each ``CLASSES`` class that holds it
    but ``all`` and ``proper``; the improper row is tagged so."""
    label = text_class_label(p, row, kind)
    tags = [] if row.proper else ["improper"]
    tags += [k for k, flag in CLASSES[kind].items() if flag not in (None, "proper") and getattr(row, flag)]
    suffix = f"  [{', '.join(tags)}]" if tags else ""
    witness = ""
    if row.witness is not None:
        witness = f"  witness {p.format_set(row.witness)}"
    return f"  {label:<8} {p.format_set(row.mask)}{suffix}{witness}"


def render_text(report: Report) -> str:
    """Human-oriented rendering of the same content."""
    p, cp = report.poset, report.cp
    dist, (join_sl, meet_sl) = p.facts.distributivity, p.facts.semilattice_flags
    lines = [f"instance {report.name}: {p.n} elements ({' '.join(p.names)})"]
    bounds = f"bottom={p.names[p.bottom]} top={p.names[p.top]}" if p.bounded else "unbounded"
    lines.append(
        f"order: {bounds}; distributive={_flag(dist.holds)}; "
        f"join-semilattice={_flag(join_sl)}; meet-semilattice={_flag(meet_sl)}"
    )
    if not dist.holds:
        x, y, z = dist.witness
        lines.append(
            f"  distributivity fails at ({p.names[x]},{p.names[y]},{p.names[z]}): "
            f"L(U(x,y),z)={p.format_set(dist.lhs)} but LU(L(x,z),L(y,z))={p.format_set(dist.rhs)}"
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
        unmet = [t for t in report.theorems if not t.hypotheses_met]
        lines.append(
            f"statements: {len(report.theorems)} checked, "
            f"{len(failed)} counterexamples, {len(unmet)} not applicable"
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
