import pytest

from cideals import (
    BadSize,
    attach_complementation,
    builtin_corpus,
    computed_lists,
    corpus_entry,
    published_divergences,
    random_complementation,
    random_complemented_poset,
    random_poset,
)


def test_builtin_corpus_names_and_sizes():
    entries = builtin_corpus()
    assert [e.name for e in entries] == ["fig1", "fig2a", "fig2b", "fig3", "fig4"]
    assert [e.poset.n for e in entries] == [5, 9, 8, 10, 12]


def test_complement_table_spot_checks(fig1, fig2a, fig4):
    p, cp = fig1.poset, fig1.cp
    assert p.names[cp.comp[p.index("a")]] == "b"
    q, cq = fig2a.poset, fig2a.cp
    assert q.names[cq.comp[q.index("g")]] == "c"
    r, cr = fig4.poset, fig4.cp
    assert r.names[cr.comp[r.index("e")]] == "e'"


def test_published_lists_reproduce(corpus):
    # the single known divergence: the printed prime filters of fig3 disagree
    # with the definition-level computation (and with the complement bijection)
    for entry in corpus.values():
        divergences = published_divergences(entry)
        if entry.name == "fig3":
            assert [d[0] for d in divergences] == ["prime_filters"]
            _, published, computed = divergences[0]
            assert published == frozenset({"a", "b"})
            assert computed == frozenset({"a", "d"})
        else:
            assert divergences == []


def test_fig3_prime_filters_satisfy_bijection(fig3):
    lists = computed_lists(fig3.cp)
    assert lists["prime_ideals"] == frozenset({"a'", "d'"})
    assert lists["prime_filters"] == frozenset({"a", "d"})
    p = fig3.poset
    for gen, partner in (("a'", "a"), ("d'", "d")):
        prime_ideal = p.down[p.index(gen)]
        assert p.all_mask & ~prime_ideal == p.up[p.index(partner)]


def test_fig4_c_ideals_are_all_principal_ideals(fig4):
    lists = computed_lists(fig4.cp)
    assert lists["c_ideals"] == frozenset(fig4.poset.names)


def test_corpus_entry_lookup():
    assert corpus_entry("fig3").poset.n == 10
    with pytest.raises(Exception):
        corpus_entry("fig9")


def test_random_poset_two_elements():
    p = random_poset(2, seed=99)
    assert p.n == 2 and p.bounded
    assert p.covers == ((0, 1),)


def test_random_poset_deterministic():
    first = random_poset(5, seed=1)
    second = random_poset(5, seed=1)
    assert first.down == second.down
    assert random_poset(10, seed=1).down != random_poset(10, seed=2).down


def test_random_poset_bounded_at_all_sizes():
    for n in range(2, 13):
        for seed in (0, 1, 2):
            p = random_poset(n, seed)
            assert p.bounded and p.n == n


def test_random_poset_bad_size():
    with pytest.raises(BadSize):
        random_poset(25, seed=0)
    with pytest.raises(BadSize):
        random_poset(1, seed=0)


def test_random_complemented_poset_bad_max_size():
    """Every seed fails up front outside the sizes random_poset accepts,
    not only the seeds whose drawn size is out of range."""
    for max_size in (1, 0, -3, 25):
        for seed in range(4):
            with pytest.raises(BadSize):
                random_complemented_poset(seed, max_size=max_size)
    for max_size in (2, 24):
        cp, _ = random_complemented_poset(0, max_size=max_size)
        assert cp.poset.n <= max_size


def test_random_complementation_two_chain_forced():
    p = random_poset(2, seed=5)
    table = random_complementation(p, seed=5)
    assert sorted(table) == [("0", "1"), ("1", "0")]


def test_random_complementation_three_chain_absent():
    from cideals import build_poset

    p = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert random_complementation(p, seed=1) is None


def test_random_complementation_fig1_poset(fig1):
    table = random_complementation(fig1.poset, seed=3)
    assert table is not None
    cp = attach_complementation(fig1.poset, table)  # validates the axioms
    assert cp.poset is fig1.poset


def test_random_complementation_constraints(fig1):
    table = random_complementation(fig1.poset, seed=3, constraints=["involution"])
    if table is not None:
        cp = attach_complementation(fig1.poset, table)
        assert cp.props.involution
    # fig1's poset has 3 middle elements: no fixed-point-free pairing exists
    assert table is None


def test_random_complementation_deterministic(fig2a):
    one = random_complementation(fig2a.poset, seed=11, constraints=["antitone"])
    two = random_complementation(fig2a.poset, seed=11, constraints=["antitone"])
    assert one == two


def test_campaign_instances_honor_profiles():
    for seed in range(1, 41):
        cp, profile = random_complemented_poset(seed)
        assert cp.poset.n <= 10
        if "antitone" in profile:
            assert cp.props.antitone
        if "involution" in profile:
            assert cp.props.involution


def test_campaign_deterministic():
    one, prof_one = random_complemented_poset(17)
    two, prof_two = random_complemented_poset(17)
    assert prof_one == prof_two
    assert one.poset.down == two.poset.down
    assert one.comp == two.comp
