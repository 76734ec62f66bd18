import pytest

import naive
from cideals import (
    AxiomViolation,
    DuplicateName,
    NotBounded,
    PartialMap,
    UnknownName,
    attach_complementation,
    build_poset,
)
from cideals.complement import ComplementedPoset
from conftest import names, small_complementations


def two_chain():
    return build_poset(["0", "1"], [("0", "1")])


def test_equality_compares_names_cones_and_map():
    """Posets are equal when their names and cones are, complemented posets
    when their posets and maps are; equal objects hash equally.  The
    round-trip tests compare with ``==``, so they rest on this."""
    diamond = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    p = build_poset(["0", "a", "b", "1"], diamond)
    same = build_poset(["0", "a", "b", "1"], list(reversed(diamond)))
    assert p == same and hash(p) == hash(same)
    swapped = build_poset(["0", "b", "a", "1"], diamond)
    assert swapped.down == p.down and p != swapped  # the same names in another order
    chain = build_poset(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])
    assert p != chain  # the same names with other cones
    cp = attach_complementation(p, {"0": "1", "a": "b", "b": "a", "1": "0"})
    again = attach_complementation(same, [("1", "0"), ("b", "a"), ("a", "b"), ("0", "1")])
    assert cp == again and hash(cp) == hash(again)
    bounds = [("0", x) for x in "abc"] + [(x, "1") for x in "abc"]
    q = build_poset(["0", "a", "b", "c", "1"], bounds)
    cyclic = attach_complementation(q, {"0": "1", "a": "b", "b": "c", "c": "a", "1": "0"})
    reverse = attach_complementation(q, {"0": "1", "a": "c", "b": "a", "c": "b", "1": "0"})
    assert cyclic.poset == reverse.poset and cyclic != reverse  # the same poset with another map
    for other in (p.names, None, cp):  # objects of another type
        assert p != other
    assert cp != p


def test_two_chain_swap_is_fully_regular():
    cp = attach_complementation(two_chain(), [("0", "1"), ("1", "0")])
    props = cp.props
    assert props.antitone and props.involution and props.de_morgan
    assert props.x_le_xdd and props.xdd_le_x and props.triple_identity


def test_fig1_props(fig1):
    props = fig1.cp.props
    assert props.antitone
    assert not props.involution
    assert props.triple_identity
    assert not props.x_le_xdd and not props.xdd_le_x


def test_fixed_point_rejected(fig1):
    table = {"0": "1", "a": "a", "b": "c", "c": "b", "1": "0"}
    with pytest.raises(AxiomViolation) as info:
        attach_complementation(fig1.poset, table)
    assert info.value.element == "a"


def test_partial_map_rejected(fig1):
    with pytest.raises(PartialMap):
        attach_complementation(fig1.poset, [("0", "1"), ("1", "0")])


@pytest.mark.parametrize("comp", [[3, 2, 1, 9], [-1, 2, 1, 0], [3, 2, 1, 4]])
def test_complement_indices_outside_the_poset_rejected(comp):
    p = build_poset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    with pytest.raises(PartialMap):
        ComplementedPoset(p, comp)


def test_unbounded_rejected():
    p = build_poset(["a", "b"], [])
    with pytest.raises(NotBounded):
        attach_complementation(p, [("a", "b"), ("b", "a")])


def test_complemented_poset_rejects_an_unbounded_poset():
    with pytest.raises(NotBounded) as info:
        ComplementedPoset(build_poset(["a", "b"], []), [1, 0])
    assert str(info.value) == "complementation requires both bottom and top"


def test_complemented_poset_rejects_a_short_table():
    with pytest.raises(PartialMap) as info:
        ComplementedPoset(two_chain(), [1])
    assert str(info.value) == "complement table must cover every element"


def test_repeated_complement_entry_rejected():
    with pytest.raises(DuplicateName) as info:
        attach_complementation(two_chain(), [("0", "1"), ("1", "0"), ("0", "1")])
    assert str(info.value) == "duplicate complement entry for '0'"


@pytest.mark.parametrize(
    "table, error, message",
    [
        ([("0", "1"), ("z", "0")], UnknownName, "unknown element name 'z'"),
        ([("0", "1"), ("1", "z")], UnknownName, "unknown element name 'z'"),
        ([("y", "1"), ("1", "z")], UnknownName, "unknown element name 'y'"),
        ([("0", "1"), ("0", "z")], DuplicateName, "duplicate complement entry for '0'"),
        ({"0": "1", "1": "y"}, UnknownName, "unknown element name 'y'"),
    ],
    ids=["unknown-source", "unknown-image", "first-unknown", "repeat-before-unknown-image", "mapping"],
)
def test_attach_names_the_first_bad_entry(table, error, message):
    """Entries are read in order, each source name before its repeat check
    and that before the image name."""
    with pytest.raises(error) as info:
        attach_complementation(two_chain(), table)
    assert type(info.value) is error
    assert str(info.value) == message


def test_bounds_swap_forced(corpus):
    for entry in corpus.values():
        p, cp = entry.poset, entry.cp
        assert cp.comp[p.bottom] == p.top
        assert cp.comp[p.top] == p.bottom


def test_fig2a_props_and_xdd_witness(fig2a):
    props = fig2a.cp.props
    assert props.antitone and not props.involution
    assert not props.x_le_xdd  # g is the only element with g <= g'' failing
    p, cp = fig2a.poset, fig2a.cp
    bad = [
        p.names[x]
        for x in range(p.n)
        if not p.le(x, cp.comp[cp.comp[x]])
    ]
    assert bad == ["g"]


def test_involution_figs(fig3, fig4):
    for entry in (fig3, fig4):
        props = entry.cp.props
        assert props.antitone and props.involution
        assert props.x_le_xdd and props.xdd_le_x and props.triple_identity
        assert props.de_morgan


def test_boolean_elements(fig1, fig2a, fig3):
    p = fig1.poset
    assert names(p, fig1.cp.boolean_elements()) == {"0", "b", "c", "1"}
    q = fig2a.poset
    assert names(q, fig2a.cp.boolean_elements()) == {"0", "e", "f", "1"}
    r = fig3.poset
    assert fig3.cp.boolean_elements() == r.all_mask  # involution: everything


def test_comp_image_double_prime(fig1):
    p, cp = fig1.poset, fig1.cp
    la = p.down[p.index("a")]
    assert names(p, cp.comp_image(cp.comp_image(la))) == {"0", "c"}
    assert cp.comp_image(0) == 0
    full_twice = cp.comp_image(cp.comp_image(p.all_mask))
    assert names(p, full_twice) == {"0", "b", "c", "1"}


def test_comp_preimage_values(fig1, fig3):
    p, cp = fig1.poset, fig1.cp
    uc = p.up[p.index("c")]
    assert names(p, cp.comp_preimage(uc)) == {"0", "b"}
    assert cp.comp_preimage(p.all_mask) == p.all_mask
    q, cq = fig3.poset, fig3.cp
    la = q.down[q.index("a")]
    assert cq.comp_preimage(la) == q.up[q.index("a'")]


def test_c_condition(fig1, fig2b):
    p, cp = fig1.poset, fig1.cp
    assert cp.c_condition(p.up[p.index("b")])  # {b,1}
    assert not cp.c_condition(p.down[p.index("a")])
    q, cq = fig2b.poset, fig2b.cp
    assert cq.c_condition(q.up[q.index("f")])
    assert not cq.c_condition(q.all_mask)


def test_c_condition_on_the_one_element_poset():
    # x = x': a set holds both or neither, never exactly one
    cp = attach_complementation(build_poset(["0"], []), {"0": "0"})
    for m, combo in ((0, set()), (1, {"0"})):
        assert not cp.c_condition(m)
        assert not naive.c_condition(["0"], {"0": "0"}, combo)


def test_props_match_oracle(corpus):
    for entry in corpus.values():
        elements, le, comp = naive.figure(entry.name)
        p, cp = entry.poset, entry.cp
        for x in range(p.n):
            assert p.names[cp.comp[x]] == comp[p.names[x]]
        assert names(p, cp.boolean_elements()) == naive.boolean_elements(elements, comp)


def test_image_preimage_match_oracle(corpus):
    """comp_image, comp_preimage, c_condition and the antitone flag, on
    every subset and on both sides, for the corpus and every
    complementation of every bounded poset on at most 6 points.  The dual
    shares the map and its tables, so its sets must be the same."""
    cases = [(entry.cp, *naive.figure(entry.name)) for entry in corpus.values()]
    for p, elements, le, comps in small_complementations():
        cases += [(attach_complementation(p, comp), elements, le, comp) for comp in comps]
    assert len(cases) == len(corpus) + 398
    for cp, elements, le, comp in cases:
        p, dual_le = cp.poset, {(y, x) for x, y in le}
        for side, side_le in ((cp, le), (cp.dual(), dual_le)):
            assert side.props.antitone == naive.antitone(side_le, comp)
            for m in range(p.all_mask + 1):
                members = names(p, m)
                assert names(p, side.comp_image(m)) == naive.comp_image(comp, members)
                assert names(p, side.comp_preimage(m)) == naive.comp_preimage(elements, comp, members)
                assert side.c_condition(m) == naive.c_condition(elements, comp, members)
