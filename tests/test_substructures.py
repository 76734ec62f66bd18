import random
from functools import partial

import pytest

import naive
from cideals import (
    Poset,
    PosetError,
    SubsetClassification,
    build_poset,
    classify,
    enumerate_filters,
    enumerate_ideals,
    is_filter,
    is_ideal,
)
from cideals.substructures import (
    find_c_filter_witness,
    find_c_ideal_witness,
    is_maximal_ideal,
    is_prime_ideal,
)
from cideals.poset import sort_key
from conftest import (
    assert_families_agree,
    assert_subset_tests_agree,
    assert_union_cells_agree,
    boolean_lattice,
    bounded_antichain,
    campaign_instances,
    mask,
    names,
    small_posets,
)


def test_subset_role_examples(fig1):
    p = fig1.poset

    def role(m):
        return is_ideal(p, m), is_filter(p, m)

    assert role(mask(p, "0 a")) == (True, False)
    assert role(mask(p, "0 a b")) == (False, False)
    assert role(p.all_mask) == (True, True)
    assert role(0) == (False, False)


def test_subset_tests_reject_a_mask_outside_the_universe(fig1):
    # the cone lookup that spares the prime and maximal tests the member
    # test does not spare them the mask check
    for q in (fig1.poset, fig1.poset.dual()):
        for test in (is_ideal, is_prime_ideal, is_maximal_ideal):
            with pytest.raises(PosetError):
                test(q, 1 << 20)


def test_enumerate_ideals_fig1(fig1):
    p = fig1.poset
    got = [names(p, m) for m in enumerate_ideals(p)]
    assert got == [
        {"0"},
        {"0", "a"},
        {"0", "b"},
        {"0", "c"},
        {"0", "a", "b", "c", "1"},
    ]


def test_enumerate_singleton():
    p = build_poset(["x"], [])
    assert enumerate_ideals(p) == [1]
    assert enumerate_filters(p) == [1]


def test_fig2b_ideals_all_principal(fig2b):
    p = fig2b.poset
    ideals = enumerate_ideals(p)
    assert len(ideals) == 8
    assert all(p.greatest(i) is not None and p.down[p.greatest(i)] == i for i in ideals)


def members_key(m):
    """The documented family order, written out: size, then the increasing
    tuple of members."""
    return (m.bit_count(), tuple(i for i in range(m.bit_length()) if (m >> i) & 1))


def test_enumeration_is_sorted(corpus):
    for entry in corpus.values():
        ideals = enumerate_ideals(entry.poset)
        assert ideals == sorted(ideals, key=members_key)
        filters = enumerate_filters(entry.poset)
        assert filters == sorted(filters, key=members_key)


def test_sort_key_orders_as_the_tuple_of_members():
    every = list(range(1 << 12))
    assert sorted(every, key=sort_key) == sorted(every, key=members_key)
    rng = random.Random(40)
    wide = [rng.getrandbits(40) for _ in range(2000)]
    assert sorted(wide, key=sort_key) == sorted(wide, key=members_key)


def test_families_match_walk_and_oracle_on_corpus(corpus):
    for entry in corpus.values():
        elements, le, _ = naive.figure(entry.name)
        assert_families_agree(entry.poset, elements, le)


@pytest.mark.parametrize(
    "elements,covers",
    [boolean_lattice(d)[:2] for d in (2, 3)] + [bounded_antichain(k)[:2] for k in range(1, 11)],
    ids=["B2", "B3"] + [f"antichain-k{k}" for k in range(1, 11)],
)
def test_families_match_walk_and_oracle(elements, covers):
    p = build_poset(elements, covers)
    assert_families_agree(p, elements, naive.closure(elements, covers))


#: figure, subset, then every SubsetClassification field after ``subject``:
#: is_ideal, is_filter, proper, principal_generator, maximal_ideal,
#: prime_ideal, ultrafilter, prime_filter, c_ideal_witness,
#: c_filter_witness, c_condition; an element or a set is written by its
#: names.  Recorded from this package.
CLASSIFICATIONS = [
    ("fig1", "0 b", (True, False, True, "b", True, False, False, False, "c 1", None, True)),
    ("fig1", "", (False, False, False, None, False, False, False, False, None, None, False)),
    ("fig1", "0 a b", (False, False, False, None, False, False, False, False, None, None, False)),
    ("fig2b", "f 1", (False, True, True, "f", False, False, True, True, None, "0 a b c d e", True)),
]


@pytest.mark.parametrize("figure, subset, fields", CLASSIFICATIONS, ids=[f"{r[0]}-{{{r[1]}}}" for r in CLASSIFICATIONS])
def test_classify_answers_as_recorded(corpus, figure, subset, fields):
    p, cp = corpus[figure].poset, corpus[figure].cp
    by_names = {3: p.index, 8: partial(mask, p), 9: partial(mask, p)}
    want = [by_names[k](v) if k in by_names and v is not None else v for k, v in enumerate(fields)]
    assert classify(cp, mask(p, subset)) == SubsetClassification(mask(p, subset), *want)


def test_classification_matches_oracle(fig2b):
    elements, le, comp = naive.figure("fig2b")
    p, cp = fig2b.poset, fig2b.cp
    naive_cideals = set(naive.c_ideals(elements, le, comp))
    got = {
        names(p, m)
        for m in enumerate_ideals(p)
        if classify(cp, m).c_ideal_witness is not None
    }
    assert got == naive_cideals
    naive_cfilters = set(naive.c_filters(elements, le, comp))
    got = {
        names(p, m)
        for m in enumerate_filters(p)
        if classify(cp, m).c_filter_witness is not None
    }
    assert got == naive_cfilters


def test_witness_maps_give_the_first_witness_of_the_linear_scan(corpus):
    cps = [entry.cp for entry in corpus.values()]
    cps += [instance.cp for instance in campaign_instances(40)]
    for cp in cps:
        a, c, d = cp.poset.facts, cp.facts, cp.dual().facts  # filters: the dual's ideals
        for i in a.ideals:
            assert c.c_ideal_witnesses.get(i) == find_c_ideal_witness(cp, i)
        for f in d.order.ideals:
            assert d.c_ideal_witnesses.get(f) == find_c_filter_witness(cp, f)


def test_lu_union_examples(fig1, fig4):
    """The LU-union over the principal ideal L(g) is the cell lu[a][g]."""
    p = fig1.poset
    union = p.lu[p.index("a")][p.index("0")]
    assert is_ideal(p, union) and names(p, union) == {"0", "a"}
    q = fig4.poset
    ideal = q.down[q.index("e'")]
    union = q.lu[q.index("b")][q.index("e'")]
    assert is_ideal(q, union)
    assert not ideal & ~union  # contains the ideal
    assert (union >> q.index("b")) & 1  # and the new element
    assert names(q, union) == {"0", "b", "c", "d", "e'", "a'"}


@pytest.mark.parametrize("bounded", [False, True])
def test_subset_tests_and_unions_match_oracle_off_semilattices(bounded):
    # in the bowtie a, b < c, d no pair among them has a join or a meet, so
    # unions of cones fail to be ideals/filters
    pairs = [(x, y) for x in "ab" for y in "cd"]
    if bounded:
        pairs += [("0", "a"), ("0", "b"), ("c", "1"), ("d", "1")]
    bowtie = build_poset(["0", "a", "b", "c", "d", "1"] if bounded else ["a", "b", "c", "d"], pairs)
    assert bowtie.semilattice_flags() == (False, False)
    # a union over the singleton {m} is the one cone LU(a,m), the cell lu[a][m]
    union = bowtie.lu[bowtie.index("a")][bowtie.index("b")]
    assert names(bowtie, union) - {"0"} == {"a", "b"} and not is_ideal(bowtie, union)
    union = bowtie.dual().lu[bowtie.index("c")][bowtie.index("d")]
    assert names(bowtie, union) - {"1"} == {"c", "d"} and not is_filter(bowtie, union)
    assert_subset_tests_agree(bowtie)
    assert_union_cells_agree(bowtie)


def test_union_over_a_principal_cone_is_one_table_cell(corpus):
    posets = [entry.poset for entry in corpus.values()]
    posets += [instance.poset for instance in campaign_instances()]
    for p in posets:
        assert_union_cells_agree(p)


def test_ul_union_dual(fig1):
    """The UL-union over the principal filter U(g) is the dual's cell lu[a][g]."""
    p = fig1.poset
    union = p.dual().lu[p.index("a")][p.index("1")]
    assert is_filter(p, union) and names(p, union) == {"a", "1"}


def test_complement_pairing(fig2b, fig3):
    """The set complement of a principal ideal, written as the harness
    writes it, is the expected principal filter."""
    p = fig2b.poset
    assert p.all_mask & ~p.down[p.index("e")] == p.up[p.index("f")]
    assert p.all_mask & ~0 == p.all_mask
    q = fig3.poset
    assert names(q, q.all_mask & ~q.down[q.index("a'")]) == {"a", "d'", "c'", "b'", "1"}
    assert q.all_mask & ~q.down[q.index("a'")] == q.up[q.index("a")]


def test_maximal_ideals_are_the_ideals_the_definition_accepts(corpus):
    """``OrderFacts.maximal_ideals`` reads the cones; it equals the ideals
    that the family scan ``is_maximal_ideal`` accepts, in family order, on
    both sides of every naturally labelled poset on 1-5 points, the corpus,
    campaign seeds 1-200, B2-B5, bounds plus a k-antichain for k = 2-16, a
    one-element poset and an antichain without bounds."""
    posets = list(small_posets())
    posets += [entry.poset for entry in corpus.values()]
    posets += [instance.poset for instance in campaign_instances()]
    posets += [build_poset(*boolean_lattice(dim)[:2]) for dim in range(2, 6)]
    posets += [build_poset(*bounded_antichain(k)[:2]) for k in range(2, 17)]
    posets += [Poset(["x"], [1]), build_poset(["a", "b", "c", "d"], [])]
    assert len(posets) == 407 + len(corpus) + 200 + 4 + 15 + 2
    maximal = 0
    for p in posets:
        for q in (p, p.dual()):
            want = [i for i in q.facts.ideals if is_maximal_ideal(q, i)]
            assert q.facts.maximal_ideals == want, (q, q.down)
            maximal += len(want)
    assert maximal > len(posets)  # most sides have several
