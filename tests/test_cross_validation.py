"""Random-instance cross-validation against the naive oracle.

The corpus cross-checks pin the built-in instances; these pin the whole
pipeline on seeded random complemented posets small enough for the oracle's
full 2^n enumeration.
"""

import pytest

import naive
from cideals import (
    enumerate_filters,
    enumerate_ideals,
    computed_lists,
    random_complemented_poset,
)
from conftest import naive_order


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
