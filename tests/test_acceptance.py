"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import time

import pytest

from cideals import (
    Instance,
    StatementId,
    build_report,
    builtin_corpus,
    classify,
    computed_lists,
    emit_instance,
    enumerate_filters,
    enumerate_ideals,
    is_filter,
    is_ideal,
    load_instance,
    parse_machine_report,
    published_divergences,
    random_complemented_poset,
    render_machine,
    run_all,
    separate_first,
    separate_second,
)
from cideals.poset import iter_bits
from conftest import names


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num} ({desc}): FAIL")
                raise
            print(f"\ncriterion {num} ({desc}): PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def campaign():
    """Five builtin entries plus 200 seeded random complemented posets."""
    instances = [(e.name, e.cp) for e in builtin_corpus()]
    for seed in range(1, 201):
        cp, profile = random_complemented_poset(seed, max_size=10)
        instances.append((f"seed{seed}:{'+'.join(sorted(profile)) or 'free'}", cp))
    return instances


def principal_ideals(p, gens):
    return {frozenset(p.names_of(p.down[p.index(g)])) for g in gens}


def principal_filters(p, gens):
    return {frozenset(p.names_of(p.up[p.index(g)])) for g in gens}


@criterion(1, "fig1 golden run")
def test_criterion_1_fig1_golden(fig1):
    started = time.perf_counter()
    p, cp = fig1.poset, fig1.cp
    lists = computed_lists(cp)
    report = build_report(Instance("fig1", p, cp))
    assert lists["boolean"] == frozenset("0 b c 1".split())
    assert lists["maximal_ideals"] == frozenset("a b c".split())
    assert lists["ultrafilters"] == frozenset("a b c".split())
    assert lists["prime_ideals"] == frozenset()
    assert lists["prime_filters"] == frozenset()
    assert lists["c_ideals"] == frozenset("0 b 1".split())
    assert lists["c_filters"] == frozenset("0 b 1".split())
    assert cp.props.antitone and not cp.props.involution and cp.props.triple_identity
    # the five double-complement images of the principal ideals
    def dd(gen):
        return cp.comp_image(cp.comp_image(p.down[p.index(gen)]))

    assert dd("0") == p.down[p.index("0")]
    assert dd("a") == p.down[p.index("c")]
    assert dd("a") & ~p.down[p.index("a")]  # not included in L(a)
    assert dd("b") == p.down[p.index("b")]
    assert dd("c") == p.down[p.index("c")]
    assert names(p, dd("1")) == {"0", "b", "c", "1"}
    assert not dd("1") & ~p.all_mask  # included in L(1)
    assert report.theorems is not None and len(report.theorems) == 19
    assert time.perf_counter() - started < 1.0


@criterion(2, "fig2 golden runs and first separation")
def test_criterion_2_fig2_golden(fig2a, fig2b):
    started = time.perf_counter()
    lists = computed_lists(fig2a.cp)
    assert lists["boolean"] == frozenset("0 e f 1".split())
    assert lists["maximal_ideals"] == frozenset("e f g".split())
    assert lists["ultrafilters"] == frozenset("a b f g".split())
    assert lists["prime_ideals"] == frozenset() and lists["prime_filters"] == frozenset()
    assert lists["c_ideals"] == frozenset("0 e f 1".split())
    assert lists["c_filters"] == frozenset("0 g 1".split())
    assert lists["c_condition_filters"] == frozenset()
    assert time.perf_counter() - started < 1.0

    started = time.perf_counter()
    p, cp = fig2b.poset, fig2b.cp
    lists = computed_lists(cp)
    assert lists["prime_ideals"] == frozenset({"e"})
    assert lists["prime_filters"] == frozenset({"f"})
    assert lists["c_condition_filters"] == frozenset({"f"})
    u_f = p.up[p.index("f")]
    l_e = p.down[p.index("e")]
    for gen in ("0", "a", "b", "c", "d", "e"):
        ideal = p.down[p.index(gen)]
        result = separate_first(cp, ideal, u_f)
        assert result.witness == l_e
        assert not ideal & ~result.witness
        assert not result.witness & u_f
    assert time.perf_counter() - started < 1.0


@criterion(3, "maximal ideal without the c-condition on fig2a")
def test_criterion_3_maximality_not_sufficient(fig2a):
    p, cp = fig2a.poset, fig2a.cp
    row = classify(cp, p.down[p.index("g")])
    assert row.maximal_ideal is True
    assert row.c_condition is False


@criterion(4, "fig3 golden run with divergence handling")
def test_criterion_4_fig3_golden(fig3):
    p, cp = fig3.poset, fig3.cp
    report = p.is_distributive()
    assert not report.holds
    assert tuple(p.names[i] for i in report.witness) == ("a", "b", "c")
    # definition-level sides of the violated identity at (a,b,c): the right
    # side is L(0); the printed left side L(d') does not withstand
    # recomputation, the true value is L(c)
    assert report.rhs == p.down[p.index("0")]
    assert report.lhs == p.down[p.index("c")]
    assert report.lhs != p.down[p.index("d'")]
    assert report.lhs != report.rhs

    lists = computed_lists(cp)
    assert lists["boolean"] == frozenset(p.names)
    assert lists["c_ideals"] == frozenset(p.names)
    assert lists["c_filters"] == frozenset(p.names)
    assert lists["maximal_ideals"] == frozenset("a' b' c' d'".split())
    assert lists["prime_ideals"] == frozenset("a' d'".split())
    # prime filters computed by definition satisfy the complement bijection
    assert principal_filters(p, lists["prime_filters"]) == {
        frozenset(p.names_of(p.all_mask & ~p.down[p.index(g)]))
        for g in lists["prime_ideals"]
    }
    assert lists["prime_filters"] == frozenset({"a", "d"})
    # ... and the divergence from the printed list {a, b} is reported
    divergences = published_divergences(fig3)
    assert [(d[0], sorted(d[1]), sorted(d[2])) for d in divergences] == [
        ("prime_filters", ["a", "b"], ["a", "d"])
    ]
    result = separate_first(cp, p.down[p.index("a")], p.up[p.index("d")])
    assert result.witness == p.down[p.index("d'")]


@criterion(5, "fig4 golden run and second separation")
def test_criterion_5_fig4_golden(fig4):
    started = time.perf_counter()
    p, cp = fig4.poset, fig4.cp
    assert p.is_distributive().holds
    assert p.semilattice_flags() == (False, False)
    assert computed_lists(cp)["c_ideals"] == frozenset(p.names)
    u_b = p.up[p.index("b")]
    for x in iter_bits(p.all_mask & ~u_b):
        assert p.greatest(p.down[x] & p.down[p.index("b")]) == p.bottom
    result = separate_second(cp, p.down[p.index("e'")], u_b)
    assert result.witness == p.down[p.index("b'")]
    assert time.perf_counter() - started < 1.0


@criterion(6, "statement campaign: corpus + 200 random instances")
def test_criterion_6_campaign(campaign):
    started = time.perf_counter()
    assert len(campaign) == 205
    for label, cp in campaign:
        results = run_all(cp)
        assert len(results) == 19, label
        failing = [r for r in results if r.conclusion_holds is False]
        assert not failing, (label, failing)
    assert time.perf_counter() - started < 60.0


@criterion(7, "oracle independence of every separation witness")
def test_criterion_7_witness_recheck(campaign):
    checked = 0
    for label, cp in campaign:
        p = cp.poset
        ideals = enumerate_ideals(p)
        filters = enumerate_filters(p)
        first_ok = cp.props.antitone and cp.props.x_le_xdd
        second_ok = cp.props.antitone and p.is_distributive().holds

        def qualifying_filters(mode):
            for f in filters:
                if mode == "first" and not cp.c_condition(f):
                    continue
                if mode == "second":
                    if any(f != g and not f & ~g and g != p.all_mask for g in filters):
                        continue  # not an ultrafilter
                    if f == p.all_mask:
                        continue
                    g = p.least(f)
                    if g is None or any(
                        p.greatest(p.down[x] & p.down[g]) is None for x in iter_bits(p.all_mask & ~f)
                    ):
                        continue
                yield f

        runs = []
        if first_ok:
            runs += [("first", f) for f in qualifying_filters("first")]
        if second_ok:
            runs += [("second", f) for f in qualifying_filters("second")]
        for mode, filt in runs:
            for ideal in ideals:
                if ideal & filt:
                    continue
                if mode == "first":
                    witness = separate_first(cp, ideal, filt).witness
                else:
                    witness = separate_second(cp, ideal, filt).witness
                # independent definition-level re-check of the witness
                assert witness is not None, (label, mode)
                assert is_ideal(p, witness)
                assert any(cp.comp_preimage(f) == witness for f in filters)
                assert not ideal & ~witness
                assert not witness & filt
                checked += 1
    assert checked > 0


@criterion(8, "duality suite over the corpus")
def test_criterion_8_duality(corpus):
    for entry in corpus.values():
        cp = entry.cp
        dual = cp.dual()
        p, d = cp.poset, dual.poset
        ideals, filters = enumerate_ideals(p), enumerate_filters(p)
        assert ideals == enumerate_filters(d)
        assert filters == enumerate_ideals(d)
        for subject in ideals + filters:
            straight = classify(cp, subject)
            swapped = classify(dual, subject)
            assert straight.is_ideal == swapped.is_filter
            assert straight.is_filter == swapped.is_ideal
            assert straight.proper == swapped.proper
            if subject == p.all_mask:
                # the whole poset is both the ideal of top and the filter of
                # bottom; the two readings trade places under duality
                assert straight.principal_generator == p.top
                assert swapped.principal_generator == p.bottom
            else:
                assert straight.principal_generator == swapped.principal_generator
            assert straight.maximal_ideal == swapped.ultrafilter
            assert straight.ultrafilter == swapped.maximal_ideal
            assert straight.prime_ideal == swapped.prime_filter
            assert straight.prime_filter == swapped.prime_ideal
            assert straight.c_ideal_witness == swapped.c_filter_witness
            assert straight.c_filter_witness == swapped.c_ideal_witness
            assert straight.c_condition == swapped.c_condition


@criterion(9, "round-trip suite: instance files and machine reports")
def test_criterion_9_round_trips(corpus):
    instances = [Instance(e.name, e.poset, e.cp) for e in corpus.values()]
    for seed in range(1, 51):
        cp, _ = random_complemented_poset(seed)
        instances.append(Instance(f"r{seed}", cp.poset, cp))
    for instance in instances:
        again = load_instance(emit_instance(instance))
        assert again.name == instance.name
        assert again.poset == instance.poset
        assert again.cp == instance.cp
        report = build_report(instance)
        parsed = parse_machine_report(render_machine(report))
        p = instance.poset
        assert parsed.elements == p.names
        assert parsed.boolean == frozenset(p.names_of(instance.cp.boolean_elements()))
        assert [row["set"] for row in parsed.ideal_rows] == [
            frozenset(p.names_of(r.mask)) for r in report.ideals
        ]
        assert [row["set"] for row in parsed.filter_rows] == [
            frozenset(p.names_of(r.mask)) for r in report.filters
        ]
        assert [row["witness"] for row in parsed.ideal_rows] == [
            frozenset(p.names_of(r.witness)) if r.witness is not None else None
            for r in report.ideals
        ]
        assert parsed.flags["antitone"] == instance.cp.props.antitone
        assert parsed.flags["involution"] == instance.cp.props.involution
        assert parsed.flags["distributive"] == report.poset.facts.distributivity.holds
