"""Exhaustive small-scope checks against the naive oracle.

Every poset on 1-5 points is built once per natural labelling: each
upper-triangular relation on the indices 0..n-1 is closed, and one poset is
kept per distinct cone tuple.  That gives 1, 2, 7, 40 and 357 posets, the
naturally labelled posets counted by OEIS A006455; every isomorphism type
appears.  Every complementation of every bounded poset on at most 6 points
is found from the naive join and meet alone, and its property flags are
recomputed from their definitions.
"""

import itertools

import naive
from cideals import AxiomViolation, Poset, attach_complementation, enumerate_filters, random_complementation
from cideals.poset import iter_bits
from cideals.substructures import is_prime_filter, is_ultrafilter, principal_generator
from conftest import (
    assert_distributivity_agrees,
    assert_families_agree,
    assert_subset_tests_agree,
    names,
    naive_order,
)


def naturally_labelled_posets(n):
    """One poset per distinct closure of a relation with i < j in every pair."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    found = {}
    for bits in range(1 << len(pairs)):
        down = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                down[j] |= 1 << i
        for j in range(n):  # every i below j is smaller, so down[i] is closed
            for i in iter_bits(down[j]):
                down[j] |= down[i]
        found.setdefault(tuple(down), None)
    return [Poset([f"e{i}" for i in range(n)], down) for down in found]


POSETS = [p for n in range(1, 6) for p in naturally_labelled_posets(n)]


def test_every_natural_labelling_on_up_to_five_points_is_built_once():
    assert [sum(p.n == n for p in POSETS) for n in range(1, 6)] == [1, 2, 7, 40, 357]


def test_families_and_distributivity_agree_on_every_small_poset():
    for p in POSETS:
        elements, le = naive_order(p)
        assert_families_agree(p, elements, le)
        assert_distributivity_agrees(p, elements, le)


def test_subset_tests_agree_on_every_poset_up_to_four_points():
    for p in POSETS:
        if p.n <= 4:
            assert_subset_tests_agree(p)


def naive_least(le, s):
    return next((m for m in s if all((m, w) in le for w in s)), None)


def naive_generator(elements, le, s):
    """The g whose down-cone is ``s``, else the g whose up-cone is ``s``."""
    for cone in (naive.lower_cone, naive.upper_cone):
        g = next((g for g in s if cone(elements, le, {g}) == s), None)
        if g is not None:
            return g
    return None


def test_filter_side_agrees_with_naive_on_every_small_poset():
    """join, least, upper_cone, the semilattice flags, prime filters,
    ultrafilters and principal generators, on every subset."""
    for p in POSETS:
        elements, le = naive_order(p)
        name = p.names.__getitem__
        joins = {(x, y): naive.join(elements, le, x, y) for x in elements for y in elements}
        for x, y in itertools.product(range(p.n), repeat=2):
            got = p.join(x, y)
            assert (None if got is None else name(got)) == joins[name(x), name(y)]
        meets = all(naive.meet(elements, le, x, y) is not None for x in elements for y in elements)
        assert p.semilattice_flags() == (None not in joins.values(), meets)
        ultrafilters = set(naive.ultrafilters(elements, le))
        filters = enumerate_filters(p)
        for s in range(p.all_mask + 1):
            members = names(p, s)
            assert names(p, p.upper_cone(s)) == naive.upper_cone(elements, le, members)
            least = p.least(s)
            assert (None if least is None else name(least)) == naive_least(le, members)
            assert is_prime_filter(p, s) == naive.is_prime_filter(elements, le, members)
            assert is_ultrafilter(p, s, filters) == (members in ultrafilters)
            g = principal_generator(p, s)
            assert (None if g is None else name(g)) == naive_generator(elements, le, members)


def naive_props(elements, le, comp):
    """Each flag of ``ComplementProperties`` from its definition."""
    cc = {x: comp[comp[x]] for x in elements}
    pairs = list(itertools.product(elements, repeat=2))

    def cone(f, *xs):
        return f(elements, le, set(xs))

    return {
        "antitone": all((comp[y], comp[x]) in le for x, y in le),
        "involution": all(cc[x] == x for x in elements),
        "x_le_xdd": all((x, cc[x]) in le for x in elements),
        "xdd_le_x": all((cc[x], x) in le for x in elements),
        "triple_identity": all(comp[cc[x]] == comp[x] for x in elements),
        "de_morgan": all(
            naive.comp_image(comp, cone(low, x, y)) == cone(high, comp[x], comp[y])
            for low, high in ((naive.lower_cone, naive.upper_cone), (naive.upper_cone, naive.lower_cone))
            for x, y in pairs
        ),
    }


def naive_complementations(p):
    """(elements, le, every complement map as a dict), from the naive join
    and meet of the bounded poset ``p``."""
    elements, le = naive_order(p)
    top, bottom = p.names[p.top], p.names[p.bottom]
    options = [
        [y for y in elements
         if naive.join(elements, le, x, y) == top and naive.meet(elements, le, x, y) == bottom]
        for x in elements
    ]
    return elements, le, [dict(zip(elements, images)) for images in itertools.product(*options)]


def test_every_complementation_up_to_six_points_has_its_naive_flags():
    """Also: random_complementation finds one exactly when one exists."""
    seen = de_morgan_false = 0
    for p in (p for n in range(1, 7) for p in naturally_labelled_posets(n)):
        if not p.bounded:
            continue
        elements, le, comps = naive_complementations(p)
        for comp in comps:
            want = naive_props(elements, le, comp)
            props = attach_complementation(p, comp).props
            assert {key: getattr(props, key) for key in want} == want, comp
            seen += 1
            de_morgan_false += not want["de_morgan"]
        found = random_complementation(p, seed=0)
        assert (dict(found) in comps) if comps else found is None
    assert (seen, de_morgan_false) == (398, 381)


def test_attach_accepts_exactly_the_naive_complementations_up_to_five_points():
    for p in POSETS:
        if not p.bounded:
            continue
        elements, _, comps = naive_complementations(p)
        for images in itertools.product(elements, repeat=p.n):
            comp = dict(zip(elements, images))
            try:
                attach_complementation(p, comp)
            except AxiomViolation:
                assert comp not in comps
            else:
                assert comp in comps
