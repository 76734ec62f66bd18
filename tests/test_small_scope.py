"""Exhaustive small-scope checks against the naive oracle.

Every poset on 1-5 points is built once per natural labelling: each
upper-triangular relation on the indices 0..n-1 is closed, and one poset is
kept per distinct cone tuple.  That gives 1, 2, 7, 40 and 357 posets, the
naturally labelled posets counted by OEIS A006455; every isomorphism type
appears.  Every complementation of every bounded poset on at most 6 points
is found from the naive join and meet alone, and its property flags are
recomputed from their definitions, as are those of the corpus, B2-B4 and
the campaign instances; its c-ideal witness maps, on both sides, hold
exactly the naive c-ideals and c-filters.  The seeded complement search gives its reference
search's table on every bounded poset here.
"""

import itertools

import naive
from cideals import (
    AxiomViolation,
    attach_complementation,
    random_complementation,
)
from cideals.substructures import _enumerate_downsets, is_prime_filter, is_ultrafilter, principal_generator
from conftest import (
    assert_complementation_matches_reference,
    assert_distributivity_agrees,
    assert_distributivity_matches_reference,
    assert_families_agree,
    assert_kernels_match_reference,
    assert_subset_tests_agree,
    assert_union_cells_agree,
    corpus_campaign_boolean,
    kernel_masks,
    naive_complementations,
    naive_order,
    names,
    naturally_labelled_posets,
    small_complementations,
)


POSETS = [p for n in range(1, 6) for p in naturally_labelled_posets(n)]


def test_every_natural_labelling_on_up_to_five_points_is_built_once():
    assert [sum(p.n == n for p in POSETS) for n in range(1, 6)] == [1, 2, 7, 40, 357]


def test_families_and_distributivity_agree_on_every_small_poset():
    for p in POSETS:
        elements, le = naive_order(p)
        assert_families_agree(p, elements, le)
        assert_distributivity_agrees(p, elements, le)


def test_distributivity_matches_the_reference_scan_on_every_small_poset():
    failures = sum(assert_distributivity_matches_reference(p) for p in POSETS)
    assert failures == 730  # of the 2 x 407 posets and duals


def test_principal_family_is_the_naive_pair_list_on_every_small_poset():
    """The LEM_CL_PRINCIPAL witness family lists the cones of the elements in
    index order, then the least downset of each incomparable pair x < y in
    pair order, under the order rebuilt by ``naive.closure`` from the cover
    pairs, on each poset and on its dual, whose order is the reversed
    relation.  Each member is a naive downset.  So a dropped or extra pair
    fails."""
    listed = 0
    for p in POSETS:
        elements = list(p.names)
        le = naive.closure(elements, p.cover_pairs())
        for q, order in ((p, le), (p.dual(), {(y, x) for x, y in le})):
            cone = {x: naive.lower_cone(elements, order, {x}) for x in elements}
            pairs = [cone[x] | cone[y] for x, y in itertools.combinations(elements, 2)
                     if (x, y) not in order and (y, x) not in order]
            found = [names(q, d) for d in _enumerate_downsets(q)]
            assert found == [cone[x] for x in elements] + pairs, q
            assert set(found) <= set(naive.downsets(elements, order))
            listed += len(found)
    assert listed == 8194  # 2 x 1971 cones and 2 x 2126 incomparable pairs


def test_random_complementation_matches_the_reference_on_every_small_poset():
    bounded = [p for p in POSETS if p.bounded]
    found = sum(assert_complementation_matches_reference(p, range(4)) for p in bounded)
    assert (len(bounded), found) == (12, 80)  # 192 searches: seeds 0-3, four profiles


def test_subset_tests_agree_on_every_poset_up_to_four_points():
    for p in POSETS:
        if p.n <= 4:
            assert_subset_tests_agree(p)
            assert_union_cells_agree(p)


def test_order_kernels_match_their_references(corpus):
    """The one-pass ideal test, the word-level prime test, the pair table
    with its join cells and the semilattice flags read off it, on each
    poset and its dual: every subset of the posets above, then the
    ``kernel_masks`` of the corpus, campaign seeds 1-200 and B2-B4."""
    found = [assert_kernels_match_reference(p, range(p.all_mask + 1)) for p in POSETS]
    assert [sum(column) for column in zip(*found)] == [3942, 1150, 50, 50]
    posets = [cp.poset for cp in corpus_campaign_boolean(corpus)]
    found = [assert_kernels_match_reference(p, kernel_masks(p)) for p in posets]
    assert [sum(column) for column in zip(*found)] == [2598, 260, 204, 204]


def naive_least(le, s):
    return next((m for m in s if all((m, w) in le for w in s)), None)


def test_filter_side_agrees_with_naive_on_every_small_poset():
    """join, least, upper_cone, the semilattice flags, prime filters,
    ultrafilters and principal generators, on every subset."""
    for p in POSETS:
        elements, le = naive_order(p)
        name = p.names.__getitem__
        joins = {(x, y): naive.join(elements, le, x, y) for x in elements for y in elements}
        for x, y in itertools.product(range(p.n), repeat=2):
            got = p.least(p.up[x] & p.up[y])
            assert (None if got is None else name(got)) == joins[name(x), name(y)]
        meets = all(naive.meet(elements, le, x, y) is not None for x in elements for y in elements)
        assert p.semilattice_flags() == (None not in joins.values(), meets)
        ultrafilters = set(naive.ultrafilters(elements, le))
        for s in range(p.all_mask + 1):
            members = names(p, s)
            assert names(p, p.upper_cone(s)) == naive.upper_cone(elements, le, members)
            least = p.least(s)
            assert (None if least is None else name(least)) == naive_least(le, members)
            assert is_prime_filter(p, s) == naive.is_prime_filter(elements, le, members)
            assert is_ultrafilter(p, s) == (members in ultrafilters)
            g = principal_generator(p, s)
            assert (None if g is None else name(g)) == naive.generator(elements, le, members)


def naive_props(elements, le, comp):
    """Each flag of ``ComplementProperties`` from its definition."""
    cc = {x: comp[comp[x]] for x in elements}
    pairs = list(itertools.product(elements, repeat=2))

    def cone(f, *xs):
        return f(elements, le, set(xs))

    return {
        "antitone": naive.antitone(le, comp),
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


def test_every_complementation_up_to_six_points_has_its_naive_flags():
    """Also: random_complementation finds one exactly when one exists."""
    seen = de_morgan_false = 0
    for p, elements, le, comps in small_complementations():
        for comp in comps:
            want = naive_props(elements, le, comp)
            props = attach_complementation(p, comp).props
            assert {key: getattr(props, key) for key in want} == want, comp
            seen += 1
            de_morgan_false += not want["de_morgan"]
        found = random_complementation(p, seed=0)
        assert (dict(found) in comps) if comps else found is None
    assert (seen, de_morgan_false) == (398, 381)


def test_witness_maps_hold_the_naive_c_ideals_up_to_six_points():
    """On both sides of every complementation of every bounded poset on at
    most 6 points, the keys of ``c_ideal_witnesses`` are the naive c-ideals
    (c-filters on the dual side), and each key maps to the first member of
    the other side's family, in family order, whose naive preimage it is."""
    seen = 0
    for p, elements, le, comps in small_complementations():
        for comp in comps:
            cp = attach_complementation(p, comp)
            naive_sides = (naive.c_ideals(elements, le, comp), naive.c_filters(elements, le, comp))
            for side, want in zip((cp, cp.dual()), naive_sides):
                witnesses = side.facts.c_ideal_witnesses
                assert {names(p, m) for m in witnesses} == set(want), comp
                family = side.poset.dual().facts.ideals
                preimages = [naive.comp_preimage(elements, comp, names(p, f)) for f in family]
                for key, witness in witnesses.items():
                    assert witness == family[preimages.index(names(p, key))], comp
            seen += 1
    assert seen == 398


def test_named_instances_have_their_naive_flags(corpus):
    """The corpus, B2-B4 and campaign seeds 1-200, where De Morgan holds far
    more often than on the small posets above."""
    cps = corpus_campaign_boolean(corpus)
    de_morgan_true = 0
    for cp in cps:
        elements, le = naive_order(cp.poset)
        comp = dict(zip(elements, (cp.poset.names[cx] for cx in cp.comp)))
        want = naive_props(elements, le, comp)
        assert {key: getattr(cp.props, key) for key in want} == want, cp
        de_morgan_true += want["de_morgan"]
    assert (len(cps), de_morgan_true) == (208, 111)


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
