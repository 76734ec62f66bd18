import pytest

import naive
from cideals import (
    CycleDetected,
    DuplicateName,
    PosetError,
    UnknownName,
    build_poset,
    random_complemented_poset,
)
from cideals.poset import Poset, iter_bits
from conftest import assert_distributivity_agrees, boolean_lattice, mask, naive_order, names


def test_build_singleton():
    p = build_poset(["x"], [])
    assert p.n == 1
    assert p.bottom == p.top == 0
    assert p.covers == ()


def test_build_fig1_shape(fig1):
    p = fig1.poset
    assert p.n == 5
    assert p.names[p.bottom] == "0" and p.names[p.top] == "1"
    assert len(p.covers) == 6


def test_closure_accepts_non_cover_pairs():
    # long relations mixed with covers collapse to the same order
    p = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1"), ("0", "1")])
    q = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert p.down == q.down
    assert p.covers == q.covers


def test_closure_idempotent(fig3):
    p = fig3.poset
    strict = [(p.names[i], p.names[j]) for j in range(p.n) for i in iter_bits(p.down[j]) if i != j]
    rebuilt = build_poset(list(p.names), strict)
    assert rebuilt.down == p.down


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        build_poset(["p", "q"], [("p", "q"), ("q", "p")])


def test_duplicate_and_unknown_names():
    with pytest.raises(DuplicateName):
        build_poset(["p", "p"], [])
    with pytest.raises(UnknownName):
        build_poset(["p"], [("p", "q")])


def test_bad_name_tokens():
    with pytest.raises(PosetError):
        build_poset(["a b"], [])
    with pytest.raises(PosetError):
        build_poset(["a{"], [])
    with pytest.raises(PosetError):
        build_poset(["none"], [])


@pytest.mark.parametrize(
    "down",
    [[1, 2, 3], [1], [1, 2 | 4], [1, -2], [-1, 2]],
    ids=["extra-cone", "missing-cone", "bit-outside", "negative", "negative-reflexive"],
)
def test_malformed_down_cones_rejected(down):
    with pytest.raises(PosetError):
        Poset(["a", "b"], down)


def test_unbounded_poset_detected():
    p = build_poset(["a", "b"], [])
    assert p.bottom is None and p.top is None
    assert not p.bounded


def test_lower_cone_values(fig1, fig3):
    p = fig1.poset
    assert names(p, p.lower_cone(mask(p, "a b"))) == {"0"}
    assert p.lower_cone(0) == p.all_mask
    q = fig3.poset
    assert names(q, q.lower_cone(mask(q, "a'"))) == {"0", "b", "c", "d", "a'"}


def test_upper_cone_values(fig1, fig2a):
    p = fig1.poset
    assert names(p, p.upper_cone(mask(p, "a b"))) == {"1"}
    assert p.upper_cone(0) == p.all_mask
    q = fig2a.poset
    assert names(q, q.upper_cone(mask(q, "a f"))) == {"1"}


def test_cone_outside_universe_rejected(fig1):
    with pytest.raises(PosetError):
        fig1.poset.lower_cone(1 << 20)


def test_meet_join_values(fig1, fig3):
    p = fig1.poset
    zero, a, b = p.index("0"), p.index("a"), p.index("b")
    assert p.meet(a, b) == zero
    assert p.join(a, b) == p.top
    assert p.meet(a, a) == a
    assert p.join(a, zero) == a
    q = fig3.poset
    assert q.meet(q.index("b'"), q.index("c'")) is None
    assert names(q, q.lower_cone(mask(q, "b' c'"))) == {"0", "a", "d"}
    assert q.join(q.index("b"), q.index("c")) is None
    assert names(q, q.upper_cone(mask(q, "b c"))) == {"d'", "a'", "1"}


def test_distributivity_fig3_witness(fig3):
    p = fig3.poset
    report = p.is_distributive()
    assert not report.holds
    # lexicographically first violating triple, with both computed sides
    assert tuple(p.names[i] for i in report.witness) == ("a", "b", "c")
    assert names(p, report.lhs) == {"0", "c"}
    assert names(p, report.rhs) == {"0"}


def test_distributivity_chain_and_fig4(fig4):
    chain = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert chain.is_distributive().holds
    assert fig4.poset.is_distributive().holds


def test_distributivity_matches_oracle(corpus):
    # verdict, first violating triple and both sides, on each poset and its
    # dual: the corpus from the oracle's own transcription, then the campaign
    for entry in corpus.values():
        elements, le, _ = naive.figure(entry.name)
        assert list(entry.poset.names) == elements
        assert_distributivity_agrees(entry.poset, elements, le)
        dual = entry.poset.dual()
        assert_distributivity_agrees(dual, elements, {(b, a) for a, b in le})
    violations = 0
    for seed in range(1, 201):
        cp, _ = random_complemented_poset(seed)
        for p in (cp.poset, cp.poset.dual()):
            assert_distributivity_agrees(p, *naive_order(p))
            violations += not p.is_distributive().holds
    assert violations > 100  # the witness comparison is not vacuous


def test_pair_tables_are_the_pair_cones(corpus):
    posets = [entry.poset for entry in corpus.values()]
    posets += [random_complemented_poset(seed)[0].poset for seed in range(1, 41)]
    for p in posets:
        for x in range(p.n):
            for y in range(p.n):
                assert p.lu[x][y] == p.lower_cone(p.up[x] & p.up[y])
                assert p.ul[x][y] == p.upper_cone(p.down[x] & p.down[y])
        assert p.dual().lu == p.ul and p.dual().ul == p.lu


def test_distributivity_of_b7():
    elements, covers, _ = boolean_lattice(7)
    p = build_poset(elements, covers)
    assert p.n == 128
    assert p.is_distributive().holds


def test_dual_distributivity_equivalence(corpus):
    for entry in corpus.values():
        p = entry.poset
        assert p.is_distributive().holds == p.is_dual_distributive().holds


def test_semilattice_flags(fig1, fig4):
    assert fig1.poset.semilattice_flags() == (True, True)
    assert fig4.poset.semilattice_flags() == (False, False)
    singleton = build_poset(["x"], [])
    assert singleton.semilattice_flags() == (True, True)


def test_cones_match_oracle_on_corpus(corpus):
    import itertools

    for entry in corpus.values():
        p = entry.poset
        elements, le, _ = naive.figure(entry.name)
        for size in (0, 1, 2, 3):
            for combo in itertools.combinations(p.names, size):
                m = p.mask_of(combo)
                assert names(p, p.lower_cone(m)) == naive.lower_cone(elements, le, set(combo))
                assert names(p, p.upper_cone(m)) == naive.upper_cone(elements, le, set(combo))


def test_meets_joins_match_oracle(corpus):
    for entry in corpus.values():
        p = entry.poset
        elements, le, _ = naive.figure(entry.name)
        for x in p.names:
            for y in p.names:
                got = p.meet(p.index(x), p.index(y))
                want = naive.meet(elements, le, x, y)
                assert (p.names[got] if got is not None else None) == want
                got = p.join(p.index(x), p.index(y))
                want = naive.join(elements, le, x, y)
                assert (p.names[got] if got is not None else None) == want


def test_dual_swaps_cones(fig2a):
    p = fig2a.poset
    d = p.dual()
    assert d.bottom == p.top and d.top == p.bottom
    for x in range(p.n):
        assert d.down[x] == p.up[x]
    assert sorted((j, i) for i, j in p.covers) == sorted(d.covers)
