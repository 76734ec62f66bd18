"""Random-instance cross-validation against the naive oracle.

The corpus cross-checks pin the built-in instances; these pin the whole
pipeline on seeded random complemented posets small enough for the oracle's
full 2^n enumeration.
"""

import pytest

import naive
from cideals import (
    attach_complementation,
    build_poset,
    builtin_corpus,
    enumerate_filters,
    enumerate_ideals,
    computed_lists,
    random_complemented_poset,
)
from cideals.harness import _Context, _check_lem_triple_a0
from conftest import bounded_antichain, naive_order


def to_naive(cp):
    p = cp.poset
    elements, le = naive_order(p)
    comp = {p.names[x]: p.names[cp.comp[x]] for x in range(p.n)}
    return elements, le, comp


def gens(elements, le, family, least=False):
    out = set()
    for s in family:
        if least:
            (g,) = [x for x in s if all((x, y) in le for y in s)]
        else:
            (g,) = [x for x in s if all((y, x) in le for y in s)]
        out.add(g)
    return out


@pytest.mark.parametrize("seed", range(1, 25))
def test_random_instances_match_naive_oracle(seed):
    cp, _ = random_complemented_poset(seed, max_size=7)
    p = cp.poset
    elements, le, comp = to_naive(cp)

    ideal_sets = {frozenset(p.names_of(m)) for m in enumerate_ideals(p)}
    assert ideal_sets == set(naive.ideals(elements, le))
    filter_sets = {frozenset(p.names_of(m)) for m in enumerate_filters(p)}
    assert filter_sets == set(naive.filters(elements, le))

    lists = computed_lists(cp)
    assert lists["boolean"] == naive.boolean_elements(elements, comp)
    assert lists["maximal_ideals"] == gens(elements, le, naive.maximal_ideals(elements, le))
    assert lists["ultrafilters"] == gens(
        elements, le, naive.ultrafilters(elements, le), least=True
    )
    assert lists["prime_ideals"] == gens(
        elements, le, [s for s in naive.ideals(elements, le) if naive.is_prime_ideal(elements, le, s)]
    )
    assert lists["prime_filters"] == gens(
        elements,
        le,
        [s for s in naive.filters(elements, le) if naive.is_prime_filter(elements, le, s)],
        least=True,
    )
    assert lists["c_ideals"] == gens(elements, le, naive.c_ideals(elements, le, comp))
    assert lists["c_filters"] == gens(
        elements, le, naive.c_filters(elements, le, comp), least=True
    )

    assert p.is_distributive().holds == naive.is_distributive(elements, le)[0]


def _small_instances():
    """fig1-fig4, the campaign seeds and the bounds plus a 2- to 10-antichain,
    with the cyclic map and, on an even antichain, the involution pairing
    x0 with x1, x2 with x3, and so on."""
    for entry in builtin_corpus():
        yield entry.name, entry.cp
    for seed in range(1, 201):
        yield f"seed{seed}", random_complemented_poset(seed)[0]
    for k in range(2, 11):
        elements, covers, comp = bounded_antichain(k)
        p = build_poset(elements, covers)
        yield f"antichain{k}", attach_complementation(p, comp)
        if k % 2 == 0:
            yield f"paired{k}", attach_complementation(p, {**comp, **{f"x{i}": f"x{i ^ 1}" for i in range(k)}})


def test_lem_triple_a0_singletons_match_subset_brute_force():
    # the singleton scan reports the first failing subset of all 2^n
    for label, cp in _small_instances():
        assert cp.poset.n <= 12, label
        note, cex = _check_lem_triple_a0(_Context(cp))
        elements, _le, comp = to_naive(cp)
        assert (not note) == all(comp[comp[comp[x]]] == comp[x] for x in elements), label
        found = naive.triple_a0_counterexample(elements, comp)
        expected = None
        if found is not None:
            expected = {"subset": "{" + ",".join(found[0]) + "}", "element": found[1]}
        assert (cex is None, cex) == (found is None, expected), label
