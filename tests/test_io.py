import dataclasses
import re

import pytest
from conftest import boolean_lattice, bounded_antichain

from cideals import (
    DuplicateSection,
    Instance,
    ParseError,
    UnknownName,
    attach_complementation,
    build_instance,
    build_poset,
    build_report,
    emit_dot,
    emit_instance,
    load_instance,
    parse_instance,
    parse_machine_report,
    random_complemented_poset,
    render_machine,
    render_text,
)
from cideals.cli import main as cli_main

FIG1_TEXT = """\
# five elements, three middle atoms
name: fig1
elements: 0 a b c 1
le: 0 < a
le: 0 < b
le: 0 < c
le: a < 1
le: b < 1
le: c < 1
comp: 0 -> 1
comp: a -> b
comp: b -> c
comp: c -> b
comp: 1 -> 0
"""


def test_parse_fig1_text(fig1):
    instance = load_instance(FIG1_TEXT)
    assert instance.name == "fig1"
    assert instance.poset == fig1.poset
    assert instance.cp == fig1.cp


def test_parse_poset_only():
    instance = load_instance("name: tiny\nelements: x\n")
    assert instance.cp is None
    assert instance.poset.n == 1


def test_parse_errors_carry_lines():
    with pytest.raises(ParseError) as info:
        parse_instance("name: t\nelements: a b\nle: a b\n")
    assert info.value.line == 3
    with pytest.raises(UnknownName) as info:
        parse_instance("name: t\nelements: a b\ncomp: a -> z\n")
    assert info.value.line == 3
    with pytest.raises(DuplicateSection) as info:
        parse_instance("name: t\nname: u\nelements: a\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse_instance("elements: a\nname: t\n")
    with pytest.raises(ParseError):
        parse_instance("name: t\n")
    with pytest.raises(ParseError) as info:
        parse_instance("name: t\nelements: a\nwhat: ever\n")
    assert info.value.line == 3


@pytest.mark.parametrize(
    "text, error, message, line",
    [
        ("name: t\nelements: a\nno colon here\n", ParseError, "expected 'key: value' on line 3", 3),
        ("name: t\nname: u\nelements: a\n", DuplicateSection, "second name section on line 2", 2),
        ("name: t u\nelements: a\n", ParseError, "name needs exactly one token on line 1", 1),
        ("name: t\nelements: a\nelements: b\n", DuplicateSection, "second elements section on line 3", 3),
        ("elements: a\nname: t\n", ParseError, "elements section before name (line 1)", 1),
        ("name: t\nelements:\n", ParseError, "elements section is empty on line 2", 2),
        ("name: t\nelements: a b a\n", ParseError, "duplicate element 'a' on line 2", 2),
        ("name: t\nelements: a none\n", ParseError,
         "invalid element name 'none': reserved word on line 2", 2),
        ("name: t\nelements: a b{\n", ParseError,
         "invalid element name 'b{': reserved character on line 2", 2),
        ("name: t\nle: a < b\nelements: a b\n", ParseError, "le line before elements (line 2)", 2),
        ("name: t\nelements: a b\ncomp: a -> b\nle: a < b\n", ParseError, "le line after comp section (line 4)", 4),
        ("name: t\nelements: a b\nle: a b\n", ParseError, "expected 'le: a < b' on line 3", 3),
        ("name: t\nelements: a b\ncomp: a -> z\n", UnknownName, "unknown element 'z' on line 3", 3),
        ("name: t\nelements: 0 1\nle: 0 < 1\ncomp: 0 -> 1\ncomp: 0 -> 1\ncomp: 1 -> 0\n", ParseError,
         "duplicate complement entry for '0' on line 5", 5),
        ("name: t\nelements: a\nwhat: ever\n", ParseError, "unknown section 'what' on line 3", 3),
        ("# only\n# comments\n", ParseError, "missing name section", 2),
        ("name: t\n", ParseError, "missing elements section", 1),
    ],
    ids=[
        "no-colon", "second-name", "two-token-name", "second-elements", "elements-before-name",
        "empty-elements", "duplicate-element", "reserved-word-element", "reserved-character-element",
        "le-before-elements", "le-after-comp", "bad-pair",
        "unknown-element", "repeated-comp", "unknown-section", "no-name-section", "no-elements-section",
    ],
)
def test_every_instance_parse_error(text, error, message, line, tmp_path, capsys):
    """Each raise site of ``parse_instance`` gives its own error type,
    message and line; ``cideals analyze`` reports it and exits 2."""
    with pytest.raises(error) as info:
        parse_instance(text)
    assert type(info.value) is error
    assert str(info.value) == message and info.value.line == line
    path = tmp_path / "bad.poset"
    path.write_text(text)
    assert cli_main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: {message}\n"


def test_le_after_comp_rejected():
    text = "name: t\nelements: a b\ncomp: a -> b\nle: a < b\n"
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line == 4


def test_round_trip_corpus(corpus):
    for entry in corpus.values():
        instance = Instance(entry.name, entry.poset, entry.cp)
        text = emit_instance(instance)
        again = load_instance(text)
        assert again.name == instance.name
        assert again.poset == instance.poset
        assert again.cp == instance.cp


def test_round_trip_random_instances():
    for seed in range(1, 21):
        cp, _ = random_complemented_poset(seed)
        instance = Instance(f"r{seed}", cp.poset, cp)
        again = load_instance(emit_instance(instance))
        assert again.poset == instance.poset
        assert again.cp == instance.cp


def test_machine_report_round_trip(fig1):
    instance = Instance("fig1", fig1.poset, fig1.cp)
    report = build_report(instance)
    parsed = parse_machine_report(render_machine(report))
    p = fig1.poset
    assert parsed.name == "fig1"
    assert parsed.elements == p.names
    assert parsed.flags["antitone"] is True
    assert parsed.flags["involution"] is False
    assert parsed.flags["distributive"] is False
    assert parsed.boolean == frozenset({"0", "b", "c", "1"})
    got_ideals = [row["set"] for row in parsed.ideal_rows]
    assert got_ideals == [frozenset(p.names_of(r.mask)) for r in report.ideals]
    got_filters = [row["set"] for row in parsed.filter_rows]
    assert got_filters == [frozenset(p.names_of(r.mask)) for r in report.filters]
    assert len(parsed.theorem_rows) == 19
    witness_triple, lhs, rhs = parsed.distributivity_witness
    assert witness_triple == ("a", "b", "c")
    assert lhs == frozenset({"0", "c"}) and rhs == frozenset({"0"})


IDEAL_ROW = "ideal: set={a} proper=false principal=a maximal=true prime=true ccond=true cideal=true witness={a}"
THEOREM_ROW = "theorem: tag=A hypotheses=true conclusion=true counterexample=none"


@pytest.mark.parametrize(
    "record",
    [
        "witness: foo=1",
        "witness: distributivity=none lhs={} rhs={}",
        "theorem: tag=A counterexample=abc",
        "set: boolean=abc",
        "flag: distributive=maybe",
        "flag: bounded",
        "ideal: set=abc}",
        "element: name=a comp=a comp2=a boolean=yes",
        "ideal: set={a} proper=maybe",
        "ideal: set={a} prime=none",
        "filter: set={a} ultrafilter=yes",
        "filter: set={a} cfilter={a}",
        "theorem: tag=A hypotheses=maybe",
        "theorem: tag=A hypotheses=none",
        "theorem: tag=A hypotheses=true conclusion=maybe",
        # records with a missing, unknown, repeated, reordered or extra field
        "ideal: proper=true bogus=1",
        "element: boolean=true",
        "theorem: conclusion=true",
        "set: foo={a}",
        "flag: made_up=true",
        "elements: b",
        "report: y",
        "ideal: set={a} set={a}",
        THEOREM_ROW + " extra=1",
        IDEAL_ROW.replace("ideal:", "filter:").replace("cideal", "cfilter"),
        IDEAL_ROW.replace("proper=false principal=a", "principal=a proper=false"),
        IDEAL_ROW.replace(" cideal=true witness={a}", ""),
        IDEAL_ROW.split(" ccond=")[0],
        # complete records in which one token is bad, one per field type
        "flag: bounded=yes",
        IDEAL_ROW.replace("prime=true", "prime=none"),
        "element: name=a comp=zz comp2=a boolean=true",
        IDEAL_ROW.replace("principal=a", "principal=zz"),
        "set: boolean={a,,b}",
        "set: boolean={a,zz}",
        IDEAL_ROW.replace("set={a}", "set={zz}"),
        IDEAL_ROW.replace("witness={a}", "witness={a"),
        "witness: distributivity=(a) lhs={} rhs={}",
        "witness: distributivity=(a,a,zz) lhs={a} rhs={a}",
        THEOREM_ROW.replace("tag=A", "tag="),
        THEOREM_ROW.replace("conclusion=true", "conclusion=maybe"),
        THEOREM_ROW.replace("counterexample=none", "counterexample=abc"),
        # counterexamples that would not read back as written
        THEOREM_ROW.replace("counterexample=none", "counterexample=a:1;a:2"),
        THEOREM_ROW.replace("counterexample=none", "counterexample=a:"),
        THEOREM_ROW.replace("counterexample=none", "counterexample=:x"),
        # counterexample values of no shape a checker writes: a set member, a
        # name not in ``elements:``, two triples not of True|False, a member
        # of the second of two joined sets not in ``elements:``
        THEOREM_ROW.replace("counterexample=none", "counterexample=ideal:{0,a}"),
        THEOREM_ROW.replace("counterexample=none", "counterexample=element:zz"),
        THEOREM_ROW.replace("counterexample=none", "counterexample=equivalences:(maybe)"),
        THEOREM_ROW.replace("counterexample=none", "counterexample=equivalences:(a,a,a)"),
        THEOREM_ROW.replace("counterexample=none", "counterexample=prime_filters:{a}+{zz}"),
        # a record kind no table names, a record without ": ", and a line of
        # ``separate``, which is not a report record
        "bogus: x=1",
        "ideal:set={a}",
        "separation: mode=first ideal={a} filter={a} witness=none failure=NotDisjoint",
    ],
    ids=[
        "witness-without-triple",
        "witness-triple-none",
        "counterexample-without-colon",
        "set-record-without-literal",
        "flag-not-boolean",
        "flag-without-value",
        "set-field-without-literal",
        "element-boolean-not-boolean",
        "ideal-proper-not-boolean",
        "ideal-prime-none",
        "filter-ultrafilter-not-boolean",
        "filter-cfilter-set",
        "theorem-hypotheses-not-boolean",
        "theorem-hypotheses-none",
        "theorem-conclusion-not-boolean",
        "ideal-without-set-with-unknown-field",
        "element-without-name",
        "theorem-without-tag",
        "set-record-unknown-name",
        "flag-unknown-name",
        "second-elements-line",
        "second-report-line",
        "ideal-repeated-field",
        "theorem-extra-field",
        "filter-with-maximal-key",
        "ideal-fields-reordered",
        "ideal-cut-after-ccond",
        "ideal-cut-after-prime-without-has-complement-false",
        "flag-type",
        "flag-type-in-row",
        "name-type-unknown-element",
        "optional-name-type-unknown-element",
        "set-type-empty-member",
        "set-type-unknown-member",
        "set-type-unknown-member-in-row",
        "optional-set-type-malformed",
        "triple-type-one-part",
        "triple-type-unknown-member",
        "tag-type-empty",
        "conclusion-type-not-boolean",
        "counterexample-type-without-colon",
        "counterexample-repeated-key",
        "counterexample-empty-value",
        "counterexample-empty-key",
        "counterexample-set-unknown-member",
        "counterexample-unknown-name",
        "counterexample-triple-not-boolean",
        "counterexample-triple-of-names",
        "counterexample-joined-set-unknown-member",
        "unknown-record",
        "record-without-separator",
        "separation-record-in-report",
    ],
)
def test_malformed_machine_record_is_parse_error(record):
    with pytest.raises(ParseError) as info:
        parse_machine_report(f"report: t\nelements: a\n{record}\n")
    assert info.value.line == 3


@pytest.mark.parametrize(
    "record",
    [IDEAL_ROW, "flag: has_complement=false\n" + IDEAL_ROW.split(" ccond=")[0], THEOREM_ROW, "flag: bounded=true",
     "witness: distributivity=(a,a,a) lhs={} rhs={a}", "element: name=a comp=a comp2=a boolean=true",
     THEOREM_ROW.replace("counterexample=none", "counterexample=ideal:{a}+{};equivalences:(True,False,True);element:a")],
    ids=["ideal-row", "poset-only-ideal-row", "theorem-row", "flag", "witness", "element-row",
         "theorem-row-with-counterexample"],
)
def test_well_formed_machine_record_parses(record):
    parse_machine_report(f"report: t\nelements: a\n{record}\n")


@pytest.mark.parametrize(
    "text, line",
    [("report: a b\n", 1), ("report: t\nelements: a b a\n", 2),
     ("report: t\nelements: a\nflag: bounded=true\nflag: bounded=true\n", 4),
     ("report: x\nelements: none a\n", 2), ("report: x\nelements: a,b c\n", 2),
     ("report: x\nelements: a{ b\n", 2)],
    ids=["report-name-two-tokens", "elements-repeated-name", "flag-repeated",
         "elements-reserved-word", "elements-set-separator", "elements-reserved-character"],
)
def test_malformed_header_record_is_parse_error(text, line):
    with pytest.raises(ParseError) as info:
        parse_machine_report(text)
    assert info.value.line == line


def test_theorem_conclusion_may_read_none():
    parsed = parse_machine_report(
        "report: t\ntheorem: tag=A hypotheses=false conclusion=none counterexample=none\n"
    )
    assert parsed.theorem_rows == (
        {"tag": "A", "hypotheses": False, "conclusion": None, "counterexample": None},
    )


@pytest.mark.parametrize(
    "text, line",
    [("elements: a\n", 1), ("# header\n\nelements: a\nflag: bounded=true\n", 3), ("", 1)],
)
def test_missing_report_line_names_the_first_record(text, line):
    with pytest.raises(ParseError) as info:
        parse_machine_report(text)
    assert info.value.line == line


def test_machine_report_round_trips_every_field(corpus):
    # the corpus, campaign seeds 1-200, B2-B5, bounds plus a 10-antichain,
    # and two poset-only instances
    instances = [Instance(e.name, e.poset, e.cp) for e in corpus.values()]
    for seed in range(1, 201):
        cp, _ = random_complemented_poset(seed)
        instances.append(Instance(f"r{seed}", cp.poset, cp))
    for name, (elements, covers, comp) in [(f"B{d}", boolean_lattice(d)) for d in range(2, 6)] + [
        ("antichain10", bounded_antichain(10))
    ]:
        poset = build_poset(elements, covers)
        instances.append(Instance(name, poset, attach_complementation(poset, comp)))
    instances.append(load_instance("name: chain\nelements: 0 m 1\nle: 0 < m\nle: m < 1\n"))
    instances.append(Instance("B3-poset", build_poset(*boolean_lattice(3)[:2]), None))
    for instance in instances:
        report = build_report(instance)
        parsed = parse_machine_report(render_machine(report))
        p, cp, dist = instance.poset, instance.cp, instance.poset.facts.distributivity
        assert parsed.name == instance.name
        assert parsed.elements == p.names
        assert parsed.flags == {
            "bounded": p.bounded,
            "has_complement": cp is not None,
            **(dataclasses.asdict(cp.props) if cp else {}),
            "distributive": dist.holds,
            "join_semilattice": p.facts.semilattice_flags[0],
            "meet_semilattice": p.facts.semilattice_flags[1],
        }
        assert parsed.boolean == (frozenset(p.names_of(cp.boolean_elements())) if cp else None)
        assert parsed.distributivity_witness == (
            None if dist.holds else (
                tuple(p.names[x] for x in dist.witness),
                frozenset(p.names_of(dist.lhs)),
                frozenset(p.names_of(dist.rhs)),
            )
        )
        assert parsed.element_rows == (tuple(
            {"name": p.names[x], "comp": p.names[cp.comp[x]],
             "comp2": p.names[cp.comp[cp.comp[x]]], "boolean": cp.comp[cp.comp[x]] == x}
            for x in range(p.n)
        ) if cp else ())
        for kind, rows, got in (("ideal", report.ideals, parsed.ideal_rows),
                                ("filter", report.filters, parsed.filter_rows)):
            max_key = "maximal" if kind == "ideal" else "ultrafilter"
            expected = [
                {"set": frozenset(p.names_of(r.mask)), "proper": r.proper,
                 "principal": None if r.principal is None else p.names[r.principal],
                 max_key: r.maximal, "prime": r.prime}
                for r in rows
            ]
            if cp:
                for row, r in zip(expected, rows):
                    row.update({"ccond": r.ccond, f"c{kind}": r.is_c,
                                "witness": None if r.witness is None else frozenset(p.names_of(r.witness))})
            assert got == tuple(expected)
        assert parsed.theorem_rows == tuple(
            {"tag": r.statement.value, "hypotheses": r.hypotheses_met,
             "conclusion": r.conclusion_holds, "counterexample": r.counterexample or None}
            for r in report.theorems or ()
        )


def test_machine_report_round_trip_poset_only():
    instance = load_instance("name: chain\nelements: 0 m 1\nle: 0 < m\nle: m < 1\n")
    report = build_report(instance)
    parsed = parse_machine_report(render_machine(report))
    assert parsed.flags["has_complement"] is False
    assert parsed.boolean is None
    assert parsed.theorem_rows == ()
    assert all("ccond" not in row for row in parsed.ideal_rows)


def test_render_text_smoke(fig3):
    report = build_report(Instance("fig3", fig3.poset, fig3.cp))
    text = render_text(report)
    assert "instance fig3" in text
    assert "distributivity fails at (a,b,c)" in text
    assert "COUNTEREXAMPLE" not in text


def test_emit_dot_counts(fig1, fig3):
    dot = emit_dot(fig1.poset, "fig1")
    assert dot.count("->") == 6
    assert dot.count("label=") == 5
    single = emit_dot(load_instance("name: s\nelements: x\n").poset, "s")
    assert single.count("->") == 0 and single.count("label=") == 1
    p = fig3.poset
    highlighted = emit_dot(p, "fig3", [("L(a')", p.down[p.index("a'")])])
    assert highlighted.count("style=filled") == 5


def test_emit_dot_escapes_quotes_and_backslashes():
    # names may hold '"' and '\'; neither may end or escape a DOT string early
    text = 'name: q"x\nelements: 0 a"b c\\ 1\nle: 0 < a"b\nle: 0 < c\\\nle: a"b < 1\nle: c\\ < 1\n'
    inst = load_instance(text)
    p = inst.poset
    dot = emit_dot(p, inst.name, [('say "hi"\\', p.mask_of(['a"b']))])
    assert 'digraph "q\\"x" {' in dot
    assert 'label="a\\"b"' in dot and 'label="c\\\\"' in dot
    assert 'tooltip="say \\"hi\\"\\\\"' in dot
    quoted = r'"((?:[^"\\]|\\.)*)"'
    labels = [re.sub(r"\\(.)", r"\1", s) for s in re.findall("label=" + quoted, dot)]
    assert labels == list(p.names)
    assert '"' not in re.sub(quoted, "", dot)


def test_emit_dot_deterministic(fig4):
    one = emit_dot(fig4.poset, "fig4")
    two = emit_dot(fig4.poset, "fig4")
    assert one == two
