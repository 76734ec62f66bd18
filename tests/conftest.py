import pytest

import naive
from cideals import builtin_corpus, directed_downsets, enumerate_filters, enumerate_ideals


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
