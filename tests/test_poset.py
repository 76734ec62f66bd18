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
from cideals import poset as poset_module
from cideals.poset import Poset, iter_bits
from conftest import (
    assert_distributivity_agrees,
    boolean_lattice,
    bounded_antichain,
    mask,
    naive_order,
    names,
)


@pytest.mark.parametrize("build", [Poset, build_poset], ids=["Poset", "build_poset"])
def test_empty_poset_rejected(build):
    with pytest.raises(PosetError, match="^a poset needs at least one element$"):
        build([], [])


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


def test_build_poset_validates_the_names_once(monkeypatch):
    calls = []
    validate = poset_module._validate_names
    monkeypatch.setattr(poset_module, "_validate_names", lambda names: calls.append(names) or validate(names))
    build_poset(["p", "q"], [("p", "q")])
    assert calls == [["p", "q"]]
    # a bad name and an unknown pair name: the pair is read first
    with pytest.raises(UnknownName):
        build_poset(["p", "p"], [("p", "q")])


def test_bad_name_tokens():
    with pytest.raises(PosetError):
        build_poset(["a b"], [])
    with pytest.raises(PosetError):
        build_poset(["a{"], [])
    with pytest.raises(PosetError):
        build_poset(["none"], [])
    with pytest.raises(PosetError, match="reserved character"):  # ';' splits counterexamples
        build_poset(["a;b", "c"], [("a;b", "c")])


OUTSIDE = "a down-cone is outside this poset's universe"


@pytest.mark.parametrize(
    "elements, down, error, message",
    [
        ("ab", [1, 2, 3], PosetError, "3 down-cones for 2 elements"),
        ("ab", [1], PosetError, "1 down-cones for 2 elements"),
        ("ab", [1, 2 | 4], PosetError, OUTSIDE),
        ("ab", [1, -2], PosetError, OUTSIDE),
        ("ab", [-1, 2], PosetError, OUTSIDE),
        ("ab", [1, 0], PosetError, "relation not reflexive at 'b'"),
        ("ab", [3, 3], CycleDetected, "'b' <= 'a' <= 'b'"),
        ("abc", [1, 3, 6], PosetError, "relation not transitive below 'c'"),
    ],
    ids=[
        "extra-cone", "missing-cone", "bit-outside", "negative", "negative-reflexive",
        "not-reflexive", "two-cycle", "not-transitive",
    ],
)
def test_malformed_down_cones_rejected(elements, down, error, message):
    """Each check of ``Poset(names, down)`` raises its own error type with
    its own message."""
    with pytest.raises(PosetError) as caught:
        Poset(list(elements), down)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_build_poset_closes_every_relation_on_four_points():
    """Every set of pairs (i, j), i != j, on 4 labelled points, cycles
    included: ``build_poset`` gives the naive closure, or raises
    ``CycleDetected`` exactly when that closure is not antisymmetric.  The
    labels are arbitrary, so the closure needs every pivot, the first and
    the last included."""
    elements = ["p0", "p1", "p2", "p3"]
    pairs = [(a, b) for a in elements for b in elements if a != b]
    cyclic = 0
    for bits in range(1 << len(pairs)):
        chosen = [pair for k, pair in enumerate(pairs) if bits >> k & 1]
        le = naive.closure(elements, chosen)
        if any((b, a) in le for a, b in le if a != b):
            cyclic += 1
            with pytest.raises(CycleDetected):
                build_poset(elements, chosen)
        else:
            assert naive_order(build_poset(elements, chosen)) == (elements, le)
    # the acyclic ones are the 543 labelled DAGs on 4 points (OEIS A003024)
    assert (1 << len(pairs)) - cyclic == 543


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
    """The meet of x and y is the greatest element of L(x,y), the join the
    least of U(x,y)."""
    p = fig1.poset
    zero, a, b = p.index("0"), p.index("a"), p.index("b")
    assert p.greatest(p.down[a] & p.down[b]) == zero
    assert p.least(p.up[a] & p.up[b]) == p.top
    assert p.greatest(p.down[a]) == a
    assert p.least(p.up[a] & p.up[zero]) == a
    q = fig3.poset
    assert q.greatest(q.lower_cone(mask(q, "b' c'"))) is None
    assert names(q, q.lower_cone(mask(q, "b' c'"))) == {"0", "a", "d"}
    assert q.least(q.upper_cone(mask(q, "b c"))) is None
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
    # and the bounds plus a 2- to 11-antichain; on campaign seeds 13 and 134
    # and the dual of seed 45, the first violating z is not the first
    # flagged join-irreducible
    failures = [0, 0, 0]
    for entry in corpus.values():
        elements, le, _ = naive.figure(entry.name)
        assert list(entry.poset.names) == elements
        failures[0] += assert_distributivity_agrees(entry.poset, elements, le)
    for seed in range(1, 201):
        p = random_complemented_poset(seed)[0].poset
        failures[1] += assert_distributivity_agrees(p, *naive_order(p))
    for k in range(2, 12):
        p = build_poset(*bounded_antichain(k)[:2])
        failures[2] += assert_distributivity_agrees(p, *naive_order(p))
    assert failures == [8, 266, 18]  # corpus, campaign, the 3- to 11-antichains


def test_distributivity_of_b7():
    # B1-B7 on both sides; B7 has 128 elements, past the naive scan's reach
    for dim in range(1, 8):
        p = build_poset(*boolean_lattice(dim)[:2])
        assert p.n == 1 << dim
        assert p.is_distributive().holds and p.dual().is_distributive().holds


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
                i, j = p.index(x), p.index(y)
                got = p.greatest(p.down[i] & p.down[j])
                want = naive.meet(elements, le, x, y)
                assert (p.names[got] if got is not None else None) == want
                got = p.least(p.up[i] & p.up[j])
                want = naive.join(elements, le, x, y)
                assert (p.names[got] if got is not None else None) == want


def test_dual_swaps_cones(fig2a):
    p = fig2a.poset
    d = p.dual()
    assert d.bottom == p.top and d.top == p.bottom
    for x in range(p.n):
        assert d.down[x] == p.up[x]
    assert sorted((j, i) for i, j in p.covers) == sorted(d.covers)
