import re

import pytest

from cideals import (
    DuplicateSection,
    Instance,
    ParseError,
    UnknownName,
    build_instance,
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


@pytest.mark.parametrize(
    "record",
    [
        "witness: foo=1",
        "witness: distributivity=none lhs={} rhs={}",
        "theorem: tag=A counterexample=abc",
    ],
    ids=["witness-without-triple", "witness-triple-none", "counterexample-without-colon"],
)
def test_malformed_machine_record_is_parse_error(record):
    with pytest.raises(ParseError) as info:
        parse_machine_report(f"report: t\nelements: a\n{record}\n")
    assert info.value.line == 3


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
