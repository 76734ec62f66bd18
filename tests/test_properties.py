"""Property-based checks of the structural invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

import naive
from cideals import (
    attach_complementation,
    build_poset,
    enumerate_filters,
    enumerate_ideals,
    is_ideal,
    random_complemented_poset,
    random_poset,
)
from cideals.poset import iter_bits
from cideals.substructures import is_ultrafilter
from conftest import (
    assert_families_agree,
    assert_subset_tests_agree,
    assert_union_cells_agree,
    campaign_instances,
)


@st.composite
def posets(draw, max_size=9):
    n = draw(st.integers(min_value=2, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_poset(n, seed)


@st.composite
def any_posets(draw, max_size=6):
    """Posets with or without bounds: the closure of random pairs i < j."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    slots = [(i, j) for j in range(n) for i in range(j)]
    edges = draw(st.integers(min_value=0, max_value=(1 << len(slots)) - 1))
    names = [f"e{i}" for i in range(n)]
    return build_poset(
        names, [(names[i], names[j]) for k, (i, j) in enumerate(slots) if edges >> k & 1]
    )


@st.composite
def complemented_posets(draw):
    seed = draw(st.integers(min_value=1, max_value=50_000))
    cp, _ = random_complemented_poset(seed)
    return cp


@st.composite
def poset_with_two_subsets(draw):
    p = draw(posets())
    big = draw(st.integers(min_value=0, max_value=p.all_mask))
    small = draw(st.integers(min_value=0, max_value=p.all_mask)) & big
    return p, small, big


@st.composite
def cp_with_two_subsets(draw):
    cp = draw(complemented_posets())
    big = draw(st.integers(min_value=0, max_value=cp.poset.all_mask))
    small = draw(st.integers(min_value=0, max_value=cp.poset.all_mask)) & big
    return cp, small, big


@st.composite
def union_closed_posets(draw):
    """Posets of union-closed set families: always join-semilattices."""
    width = draw(st.integers(min_value=1, max_value=4))
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1), min_size=1, max_size=5
        )
    )
    family = set(seeds)
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                if a | b not in family:
                    family.add(a | b)
                    changed = True
    members = sorted(family)
    names = [f"s{m}" for m in members]
    pairs = [
        (f"s{a}", f"s{b}") for a in members for b in members if a != b and a & ~b == 0
    ]
    return build_poset(names, pairs)


@given(posets())
def test_closure_idempotence(p):
    strict = [(p.names[i], p.names[j]) for j in range(p.n) for i in iter_bits(p.down[j]) if i != j]
    rebuilt = build_poset(list(p.names), strict)
    assert rebuilt.down == p.down
    assert rebuilt.covers == p.covers


@given(poset_with_two_subsets())
def test_cone_maps_are_antitone(data):
    p, small, big = data
    assert not p.lower_cone(big) & ~p.lower_cone(small)
    assert not p.upper_cone(big) & ~p.upper_cone(small)


@given(posets(), st.integers(min_value=0, max_value=1 << 24))
def test_galois_properties(p, raw):
    a = raw & p.all_mask
    lu = p.lower_cone(p.upper_cone(a))
    assert not a & ~lu  # A subset of LU(A)
    ua = p.upper_cone(a)
    assert p.upper_cone(p.lower_cone(ua)) == ua  # U(A) = ULU(A)


@given(posets(max_size=7))
@settings(max_examples=40, deadline=None)
def test_distributivity_identity_equivalence(p):
    assert p.is_distributive().holds == p.is_dual_distributive().holds


@given(any_posets())
@settings(max_examples=100, deadline=None)
def test_subset_tests_and_unions_match_oracle(p):
    assert_subset_tests_agree(p)
    assert_union_cells_agree(p)


@given(posets())
def test_meet_join_are_extremal(p):
    for x in range(p.n):
        for y in range(p.n):
            cone = p.down[x] & p.down[y]
            m = p.greatest(cone)
            if m is not None:
                assert (cone >> m) & 1
                assert not cone & ~p.down[m]
            else:
                assert all(cone & ~p.down[w] for w in iter_bits(cone))
            cone = p.up[x] & p.up[y]
            j = p.least(cone)
            if j is not None:
                assert (cone >> j) & 1
                assert not cone & ~p.up[j]


@given(cp_with_two_subsets())
def test_preimage_monotone(data):
    cp, small, big = data
    assert not cp.comp_preimage(small) & ~cp.comp_preimage(big)


@given(complemented_posets(), st.integers(min_value=0, max_value=1 << 24))
def test_triple_identity_membership_swap(cp, raw):
    # under x''' = x', membership of a and a'' in A_0 coincide
    a_set = raw & cp.poset.all_mask
    if not cp.props.triple_identity:
        return
    pre = cp.comp_preimage(a_set)
    for a in range(cp.poset.n):
        add = cp.comp[cp.comp[a]]
        assert bool((pre >> a) & 1) == bool((pre >> add) & 1)


@given(complemented_posets(), st.integers(min_value=0, max_value=1 << 24))
def test_involution_preimage_is_involutive(cp, raw):
    a_set = raw & cp.poset.all_mask
    if not cp.props.involution:
        return
    assert cp.comp_preimage(cp.comp_preimage(a_set)) == a_set


@given(complemented_posets())
def test_bounds_complements(cp):
    p = cp.poset
    assert cp.comp[p.bottom] == p.top
    assert cp.comp[p.top] == p.bottom


@given(complemented_posets())
def test_property_flag_implications(cp):
    props = cp.props
    if props.involution:
        assert props.x_le_xdd and props.xdd_le_x and props.triple_identity
    if props.antitone and props.involution:
        assert props.de_morgan


@given(posets())
@settings(deadline=None)
def test_principal_cone_families_match_walk_and_oracle(p):
    elements = list(p.names)
    assert_families_agree(p, elements, naive.closure(elements, p.cover_pairs()))


@given(union_closed_posets())
@settings(max_examples=50, deadline=None)
def test_join_semilattice_lu_union_lemma(p):
    assert p.semilattice_flags()[0]
    for ideal in enumerate_ideals(p):
        g = p.greatest(ideal)  # the LU-union over L(g) is the cell lu[a][g]
        for a in range(p.n):
            assert is_ideal(p, p.lu[a][g])


@given(st.integers(min_value=1, max_value=400))
def test_campaign_validity_and_determinism(seed):
    one, profile_one = random_complemented_poset(seed)
    two, profile_two = random_complemented_poset(seed)
    assert one.poset.down == two.poset.down and one.comp == two.comp
    assert profile_one == profile_two
    # re-attachment re-validates the axioms
    table = [
        (one.poset.names[x], one.poset.names[one.comp[x]]) for x in range(one.poset.n)
    ]
    attach_complementation(one.poset, table)


def assert_ultrafilters_are_atom_cones(p):
    """Each ultrafilter of the bounded poset ``p`` is U(a) for an atom a,
    and a has a meet with every element outside U(a); so the meet hypothesis
    of THM_SEP2 always holds.  Returns the number of ultrafilters."""
    filters = enumerate_filters(p)
    count = 0
    for f in filters:
        if not is_ultrafilter(p, f):
            continue
        g = p.least(f)
        assert g is not None and p.up[g] == f
        assert g != p.bottom and p.down[g] == (1 << p.bottom) | (1 << g)
        assert all(p.greatest(p.down[x] & p.down[g]) is not None for x in iter_bits(p.all_mask & ~f))
        count += 1
    return count


@given(any_posets())
@settings(max_examples=80, deadline=None)
def test_ultrafilters_of_bounded_posets_are_cones_of_atoms(p):
    # the drawn poset when it is bounded, and always the same order between
    # a new bottom and a new top
    if p.bounded:
        assert_ultrafilters_are_atom_cones(p)
    names = list(p.names)
    pairs = [("bot", x) for x in names] + [(x, "top") for x in names] + p.cover_pairs()
    assert assert_ultrafilters_are_atom_cones(build_poset(["bot", *names, "top"], pairs)) >= 1


def test_ultrafilters_of_the_corpus_and_campaign_are_cones_of_atoms(corpus):
    posets = [entry.poset for entry in corpus.values()]
    posets += [instance.poset for instance in campaign_instances()]
    assert sum(assert_ultrafilters_are_atom_cones(p) for p in posets) > len(posets)
