import pytest

import naive
from cideals import (
    builtin_corpus,
    directed_downsets,
    enumerate_filters,
    enumerate_ideals,
    is_filter,
    is_ideal,
    lu_union,
    ul_union,
)
from cideals.poset import iter_bits
from cideals.substructures import principal_generator


@pytest.fixture(scope="session")
def corpus():
    return {entry.name: entry for entry in builtin_corpus()}


@pytest.fixture(scope="session")
def fig1(corpus):
    return corpus["fig1"]


@pytest.fixture(scope="session")
def fig2a(corpus):
    return corpus["fig2a"]


@pytest.fixture(scope="session")
def fig2b(corpus):
    return corpus["fig2b"]


@pytest.fixture(scope="session")
def fig3(corpus):
    return corpus["fig3"]


@pytest.fixture(scope="session")
def fig4(corpus):
    return corpus["fig4"]


def names(poset, mask):
    return frozenset(poset.names_of(mask))


def mask(poset, tokens):
    return poset.mask_of(tokens.split())


def boolean_lattice(dim):
    """(elements, cover pairs, complement) of all subsets of a dim-set."""
    elements = [f"s{m:0{dim}b}" for m in range(1 << dim)]
    covers = [
        (elements[m], elements[m | 1 << b])
        for m in range(1 << dim)
        for b in range(dim)
        if not m >> b & 1
    ]
    full = (1 << dim) - 1
    comp = {elements[m]: elements[full ^ m] for m in range(1 << dim)}
    return elements, covers, comp


def bounded_antichain(k):
    """(elements, cover pairs, complement) of bounds plus a k-antichain whose
    complement shifts each middle element to the next (k >= 2)."""
    mids = [f"x{i}" for i in range(k)]
    covers = [("0", m) for m in mids] + [(m, "1") for m in mids]
    comp = {"0": "1", "1": "0", **{m: mids[(i + 1) % k] for i, m in enumerate(mids)}}
    return ["0", *mids, "1"], covers, comp


def assert_families_agree(p, elements, le):
    """The principal-cone families equal the directed sets the downset walk
    finds (on the dual for filters) and the naive oracle's families."""
    ideals, filters = enumerate_ideals(p), enumerate_filters(p)
    assert ideals == directed_downsets(p)
    assert filters == directed_downsets(p.dual())
    assert {names(p, m) for m in ideals} == set(naive.ideals(elements, le))
    assert {names(p, m) for m in filters} == set(naive.filters(elements, le))


def naive_order(p):
    """(elements in index order, the closed order as name pairs) of ``p``."""
    elements = list(p.names)
    le = {(p.names[i], p.names[j]) for j in range(p.n) for i in iter_bits(p.down[j])}
    return elements, le


def assert_distributivity_agrees(p, elements, le):
    """``p.is_distributive()`` gives the naive scan's verdict, first
    violating triple (by name, in the order of ``elements``) and both sides."""
    holds, witness, lhs, rhs = naive.is_distributive(elements, le)
    report = p.is_distributive()
    assert report.holds == holds
    if holds:
        assert report.witness is None
    else:
        assert tuple(p.names[i] for i in report.witness) == witness
        assert names(p, report.lhs) == lhs
        assert names(p, report.rhs) == rhs


def assert_subset_tests_agree(p):
    """On every subset S of ``p``: ``is_ideal``/``is_filter`` and the
    memoised tests of the poset's shared ``facts``, asked twice, give the
    naive all-pairs verdicts; ``facts.generator`` is
    ``principal_generator``; and for every a, ``lu_union``/``ul_union`` over
    S give the naive union of the cones LU(a,s)/UL(a,s) with its naive
    ideal/filter verdict."""
    elements, le = naive_order(p)
    shared = p.facts
    verdicts = {}
    for s in range(p.all_mask + 1):
        members = names(p, s)
        verdicts[s] = naive.is_ideal(elements, le, members), naive.is_filter(elements, le, members)
        assert (is_ideal(p, s), is_filter(p, s)) == verdicts[s]
        assert (shared.is_ideal(s), shared.is_filter(s)) == verdicts[s]
        assert shared.generator(s) == principal_generator(p, s)
        for a in elements:
            for union_of, inner, outer, verdict in (
                (lu_union, naive.upper_cone, naive.lower_cone, naive.is_ideal),
                (ul_union, naive.lower_cone, naive.upper_cone, naive.is_filter),
            ):
                union, ok = union_of(p, p.index(a), s)
                want = frozenset().union(
                    *(outer(elements, le, inner(elements, le, {a, m})) for m in members)
                )
                assert names(p, union) == want
                assert ok == verdict(elements, le, want)
    for s in reversed(range(p.all_mask + 1)):  # now answered from the memo
        assert (shared.is_ideal(s), shared.is_filter(s)) == verdicts[s]


def assert_union_cells_agree(p):
    """For every a and g, the pair-table cell ``lu[a][g]`` with the shared
    ``facts`` ideal test on it is ``lu_union(p, a, down[g])``; dually
    ``ul[a][g]`` and the filter test are ``ul_union(p, a, up[g])``."""
    shared = p.facts
    for g in range(p.n):
        for a in range(p.n):
            cell = p.lu[a][g]
            assert lu_union(p, a, p.down[g]) == (cell, shared.is_ideal(cell))
            cell = p.ul[a][g]
            assert ul_union(p, a, p.up[g]) == (cell, shared.is_filter(cell))
