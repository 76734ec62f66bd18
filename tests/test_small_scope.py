"""Exhaustive small-scope checks against the naive oracle.

Every poset on 1-5 points is built once per natural labelling, the 407 of
``conftest.small_posets``; every isomorphism type appears.  The bit-sliced
ideal test decides every subset of each, one lane per subset, as
``is_ideal`` and the naive definition do, and both cones and both extreme
elements of every subset are the naive ones, so every law that the naive
definitions obey holds of them: the Galois connection, the antitone cone
maps, meets and joins as extremal bounds.  Every complementation of every
bounded poset on at most 6 points is found from the naive join and meet
alone, and its property flags are recomputed from their definitions, as
are those of the corpus, B2-B4 and the campaign instances, whose maps are
naive complementations and whose orders are rebuilt from their covers;
the c-ideal witness maps, on both sides, hold exactly the naive c-ideals
and c-filters.  The seeded complement search gives its reference search's
table on every bounded poset here.
"""

import itertools

import naive
from cideals import (
    AxiomViolation,
    attach_complementation,
    build_poset,
    random_complementation,
)
from cideals.substructures import (
    _enumerate_downsets, ideal_lanes, is_ideal, is_prime_filter, is_ultrafilter, principal_generator,
)
from conftest import (
    assert_complementation_matches_reference,
    assert_distributivity_agrees,
    assert_families_agree,
    assert_kernels_match_naive,
    assert_union_cells_agree,
    corpus_campaign_boolean,
    kernel_masks,
    lane_sets,
    naive_complementations,
    naive_order,
    names,
    small_complementations,
    small_posets,
)


POSETS = small_posets()


def test_every_natural_labelling_on_up_to_five_points_is_built_once():
    assert [sum(p.n == n for p in POSETS) for n in range(1, 6)] == [1, 2, 7, 40, 357]


def test_families_and_distributivity_agree_on_every_small_poset():
    """The ideal and filter families, the pair-table cells over each
    principal cone with the union rows read off them, and distributivity,
    on both sides of every poset above."""
    failures = 0
    for p in POSETS:
        elements, le = naive_order(p)
        assert_families_agree(p, elements, le)
        assert_union_cells_agree(p)
        failures += assert_distributivity_agrees(p, elements, le)
    assert failures == 730  # of the 2 x 407 posets and duals


def test_principal_family_is_the_naive_pair_list_on_every_small_poset():
    """The LEM_CL_PRINCIPAL witness family, read back from its lanes in lane
    order, lists the cones of the elements in index order, then the least
    downset of each incomparable pair x < y in pair order, under the order
    rebuilt by ``naive.closure`` from the cover pairs, on each poset and on
    its dual, whose order is the reversed relation.  Each member is a naive
    downset.  So a dropped or extra pair, or a column that holds the wrong
    elements, fails."""
    listed = 0
    for p in POSETS:
        elements = list(p.names)
        le = naive.closure(elements, p.cover_pairs())
        for q, order in ((p, le), (p.dual(), {(y, x) for x, y in le})):
            cone = {x: naive.lower_cone(elements, order, {x}) for x in elements}
            pairs = [cone[x] | cone[y] for x, y in itertools.combinations(elements, 2)
                     if (x, y) not in order and (y, x) not in order]
            columns = _enumerate_downsets(q)
            found = [names(q, d) for d in lane_sets(columns).values()]
            assert len(columns) == q.n and found == [cone[x] for x in elements] + pairs, q
            assert set(found) <= set(naive.downsets(elements, order))
            listed += len(found)
    assert listed == 8194  # 2 x 1971 cones and 2 x 2126 incomparable pairs


def test_ideal_lanes_decide_every_subset_as_the_definitions_do():
    """Every subset of each poset above, one lane per subset in one
    ``ideal_lanes`` call per side, against ``is_ideal`` and the naive
    definition.  The subsets include every non-downset and every set with
    two maximal members, which the witness family never holds."""
    decided = accepted = 0
    for p in POSETS:
        elements, le = naive_order(p)
        subsets = range(p.all_mask + 1)
        columns = [sum(1 << s for s in subsets if s >> m & 1) for m in range(p.n)]
        for q, order in ((p, le), (p.dual(), {(y, x) for x, y in le})):
            lanes = ideal_lanes(q, columns)
            for s in subsets:
                verdict = bool(lanes >> s & 1)
                assert verdict == is_ideal(q, s) == naive.is_ideal(elements, order, names(q, s)), (q, s)
                accepted += verdict
            decided += len(subsets)
    assert (decided, accepted) == (24260, 3942)


def test_random_complementation_matches_the_reference_on_every_small_poset():
    bounded = [p for p in POSETS if p.bounded]
    found = sum(assert_complementation_matches_reference(p, range(4)) for p in bounded)
    assert (len(bounded), found) == (12, 80)  # 192 searches: seeds 0-3, four profiles


def test_order_kernels_match_their_references(corpus):
    """The one-pass ideal test, the word-level prime test, the pair table
    with its join cells and the semilattice flags read off it, each against
    its naive definition, on each poset and its dual: every subset of the
    posets above, then the ``kernel_masks`` of the corpus, campaign seeds
    1-200 and B2-B4."""
    found = [assert_kernels_match_naive(p, range(p.all_mask + 1)) for p in POSETS]
    assert [sum(column) for column in zip(*found)] == [3942, 1150, 50, 50]
    posets = [cp.poset for cp in corpus_campaign_boolean(corpus)]
    found = [assert_kernels_match_naive(p, kernel_masks(p)) for p in posets]
    assert [sum(column) for column in zip(*found)] == [2598, 260, 204, 204]


def naive_least(le, s):
    return next((m for m in s if all((m, w) in le for w in s)), None)


def test_filter_side_agrees_with_naive_on_every_small_poset():
    """join, least, upper_cone, ultrafilters, prime filters and principal
    generators, on every subset, with the lower cone and the greatest
    element that ``upper_cone`` and ``least`` run on the dual.  The kernel
    test checks the prime ideals of the dual and the semilattice flags."""
    for p in POSETS:
        elements, le = naive_order(p)
        dual_le = {(y, x) for x, y in le}
        name = p.names.__getitem__
        joins = {(x, y): naive.join(elements, le, x, y) for x in elements for y in elements}
        for x, y in itertools.product(range(p.n), repeat=2):
            got = p.least(p.up[x] & p.up[y])
            assert (None if got is None else name(got)) == joins[name(x), name(y)]
        ultrafilters = set(naive.ultrafilters(elements, le))
        for s in range(p.all_mask + 1):
            members = names(p, s)
            assert names(p, p.upper_cone(s)) == naive.upper_cone(elements, le, members)
            assert names(p, p.lower_cone(s)) == naive.lower_cone(elements, le, members)
            # the greatest member is the least under the reversed order
            for got, want in ((p.least(s), naive_least(le, members)), (p.greatest(s), naive_least(dual_le, members))):
                assert (None if got is None else name(got)) == want
            assert is_ultrafilter(p, s) == (members in ultrafilters)
            assert is_prime_filter(p, s) == naive.is_prime_filter(elements, le, members)
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
    more often than on the small posets above.  Each map sends every x to
    a naive complement of x, and each order, rebuilt from its covers, is
    the same order."""
    cps = corpus_campaign_boolean(corpus)
    de_morgan_true = 0
    for cp in cps:
        p = cp.poset
        elements, le = naive_order(p)
        comp = dict(zip(elements, (p.names[cx] for cx in cp.comp)))
        bounds = p.names[p.top], p.names[p.bottom]
        assert all((naive.join(elements, le, x, y), naive.meet(elements, le, x, y)) == bounds for x, y in comp.items())
        assert build_poset(elements, p.cover_pairs()).down == p.down
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
