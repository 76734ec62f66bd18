import pytest

import naive
from cideals import (
    AxiomViolation,
    NotBounded,
    PartialMap,
    attach_complementation,
    build_poset,
)
from cideals.complement import ComplementedPoset
from conftest import mask, names


def two_chain():
    return build_poset(["0", "1"], [("0", "1")])


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


def test_preimage_monotone(fig2a):
    p, cp = fig2a.poset, fig2a.cp
    small = mask(p, "0 a")
    big = mask(p, "0 a b c")
    assert not cp.comp_preimage(small) & ~cp.comp_preimage(big)


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
    import itertools

    for entry in corpus.values():
        elements, le, comp = naive.figure(entry.name)
        p, cp = entry.poset, entry.cp
        for size in (0, 1, 2, 3):
            for combo in itertools.combinations(p.names, size):
                m = p.mask_of(combo)
                assert names(p, cp.comp_image(m)) == naive.comp_image(comp, set(combo))
                assert names(p, cp.comp_preimage(m)) == naive.comp_preimage(
                    elements, comp, set(combo)
                )
                assert cp.c_condition(m) == naive.c_condition(elements, comp, set(combo))
