"""The facts kept on posets and complemented posets stay correct when shared.

Order facts live on the ``Poset`` and are shared by every complementation
built on that object; c-facts live on each ``ComplementedPoset``.  Filter
facts are the ideal facts of the kept order duals.  Answers read from
shared, warm objects must equal those computed on fresh ones.
"""

import itertools
import random
import sys
import threading

import pytest

from cideals import (
    Instance,
    NotFilter,
    NotIdeal,
    PosetError,
    StatementId,
    attach_complementation,
    build_poset,
    builtin_corpus,
    check_statement,
    classify,
    emit_instance,
    load_instance,
    run_all,
    separate,
    substructures,
)
from cideals.complement import ComplementedPoset
from cideals.corpus import corpus_entry
from cideals.poset import Poset, fact
from cideals.substructures import ComplementFacts, OrderFacts
from conftest import boolean_lattice, bounded_antichain, corpus_campaign_boolean

M3 = (["0", "a", "b", "c", "1"], [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


def _complementations(p):
    """Every complementation of M3, each attached to the same ``p``."""
    out = []
    for images in itertools.product("abc", repeat=3):
        if any(x == y for x, y in zip("abc", images)):
            continue  # an atom is not its own complement
        out.append(attach_complementation(p, {"0": "1", "1": "0", **dict(zip("abc", images))}))
    return out


def _c_facts(cp):
    c, d = cp.facts, cp.dual().facts  # the c-filter side is the dual's c-ideals
    return (c.c_ideals, d.c_ideals, c.ccond_ideals, d.ccond_ideals,
            c.c_ideal_witnesses, d.c_ideal_witnesses)


def test_fact_builds_once_per_object_and_keeps_its_value_in_the_instance_dict():
    built = []

    class Holder:
        @fact
        def value(self):
            """The builder's docstring."""
            built.append(self)
            return [len(built)]

    a, b = Holder(), Holder()
    first = a.value
    assert a.value is first and a.__dict__["value"] is first
    assert b.value == [2] and b.value is b.__dict__["value"]
    assert built == [a, b]
    assert isinstance(Holder.value, fact) and Holder.value is Holder.__dict__["value"]
    assert Holder.value.__doc__ == "The builder's docstring."


def test_every_derived_value_of_the_core_classes_is_a_fact(fig1):
    kept = {Poset: {"covers", "lu", "facts"}, ComplementedPoset: {"facts"},
            OrderFacts: {"down_generator", "ideals", "union_rows", "distributivity", "semilattice_flags",
                         "principal_walk", "maximal_ideals", "prime_ideals"},
            ComplementFacts: {"c_ideal_witnesses", "c_ideals", "ccond_ideals"}}
    for cls, names in kept.items():
        assert {name for name, v in vars(cls).items() if isinstance(v, fact)} == names
    assert Poset.lu.__doc__.startswith("The pair table")
    p = fig1.poset
    assert p.lu is p.lu and p.__dict__["lu"] is p.lu


def test_complementations_share_order_facts_but_not_c_facts(monkeypatch):
    calls = []
    for name in ("enumerate_ideals", "enumerate_filters"):
        real = getattr(substructures, name)

        def counted(q, real=real, name=name):
            calls.append((name, q))
            return real(q)

        monkeypatch.setattr(substructures, name, counted)
    p = build_poset(*M3)
    cps = _complementations(p)
    assert len(cps) == 8
    shared = [(_c_facts(cp), run_all(cp)) for cp in cps]
    assert all(cp.poset.facts is p.facts for cp in cps)
    # once on p and once on its dual, whose ideals are the filters
    dual = p.dual()
    assert sorted((name, q is dual) for name, q in calls if q is p or q is dual) == [
        ("enumerate_ideals", False),
        ("enumerate_ideals", True),
    ]
    assert not any(name == "enumerate_filters" for name, _ in calls)
    assert len({tuple(facts[0]) for facts, _ in shared}) > 1  # the c-ideal lists differ
    for cp, got in zip(cps, shared):
        table = {p.names[x]: p.names[y] for x, y in enumerate(cp.comp)}
        fresh = attach_complementation(build_poset(*M3), table)
        assert fresh.poset.facts is not p.facts
        assert got == (_c_facts(fresh), run_all(fresh))


def _count_families(monkeypatch):
    """Patch the LEM_CL_PRINCIPAL witness family to record the poset of
    each call."""
    listed = []
    real = substructures._enumerate_downsets

    def counted(q):
        listed.append(q)
        return real(q)

    monkeypatch.setattr(substructures, "_enumerate_downsets", counted)
    return listed


def test_principal_walk_runs_once_per_poset_and_side(monkeypatch):
    listed = _count_families(monkeypatch)
    p = build_poset(*M3)
    cps = _complementations(p)
    for cp in cps:
        for _ in range(2):
            assert check_statement(cp, "LEM_CL_PRINCIPAL").conclusion_holds is True
            run_all(cp)
    assert len(cps) == 8
    assert len(listed) == 2  # once on p and once on its dual, for the filters
    assert listed[0] is p and listed[1] is p.dual()


def test_rejected_cone_is_an_internal_error(monkeypatch):
    """Each accepted family member is a cone, so a rejected cone leaves
    fewer than n: LEM_CL_PRINCIPAL may not read that as verified."""
    cp = corpus_entry("fig2a").cp  # fresh objects: no verdict kept yet
    p, real = cp.poset, substructures.is_ideal
    cone = p.down[p.index("a")]
    monkeypatch.setattr(substructures, "is_ideal", lambda q, mask: not (q is p and mask == cone) and real(q, mask))
    with pytest.raises(PosetError, match=r"^internal error: kept 8 of 9 principal ideals$"):
        check_statement(cp, "LEM_CL_PRINCIPAL")


def test_duals_are_kept_and_carry_the_flags_over(corpus):
    cps = corpus_campaign_boolean(corpus) + _complementations(build_poset(*M3))
    lopsided = 0
    for cp in cps:
        p = cp.poset
        assert p.dual() is p.dual()
        assert p.dual().dual() is p
        d, fresh = p.dual(), Poset(p.names, p.up)  # kept without re-validation
        assert (d.names, d.down, d.up, d.covers, d.bottom, d.top) == (
            fresh.names, fresh.down, fresh.up, fresh.covers, fresh.bottom, fresh.top
        )
        assert cp.dual().dual() is cp
        assert cp.dual().poset is p.dual()
        assert cp.dual().comp == cp.comp
        assert cp.dual().props == ComplementedPoset(p.dual(), cp.comp).props
        lopsided += cp.props.x_le_xdd != cp.props.xdd_le_x
    assert lopsided  # some instance tells a swapped pair of flags apart


def _texts():
    texts = {e.name: emit_instance(Instance(e.name, e.poset, e.cp)) for e in builtin_corpus()}
    for name, (elements, covers, comp) in (
        ("B4", boolean_lattice(4)),
        ("antichain10", bounded_antichain(10)),
    ):
        p = build_poset(elements, covers)
        texts[name] = emit_instance(Instance(name, p, attach_complementation(p, comp)))
    return texts


def _queries(objects, rng):
    """check_statement on every tag, separate on cone pairs and non-family
    masks in every mode, classify on cones and arbitrary masks; shuffled."""
    queries = [("check", name, sid) for name in objects for sid in StatementId]
    for name, cp in objects.items():
        p = cp.poset
        masks = [p.down[rng.randrange(p.n)] for _ in range(3)]
        masks += [p.up[rng.randrange(p.n)] for _ in range(3)]
        masks += [rng.randrange(p.all_mask + 1) for _ in range(2)]
        for i, f in zip(masks, reversed(masks)):
            queries += [("separate", name, (i, f, mode)) for mode in ("first", "prime", "second")]
        masks += [rng.randrange(p.all_mask + 1) for _ in range(4)]
        queries += [("classify", name, m) for m in masks]
    rng.shuffle(queries)
    return queries


def _filter_side(cp):
    """The filter facts, read from the dual before anything else fills it."""
    d = cp.dual()
    o = d.poset.facts
    return repr((
        d.dual() is cp,
        d.poset.dual() is cp.poset,
        d.props,
        o.ideals,
        o.maximal_ideals,
        o.prime_ideals,
        o.union_rows,
        d.facts.c_ideals,
        d.facts.ccond_ideals,
        d.facts.c_ideal_witnesses,
        cp.poset.dual().lu,
    ))


def _answer(cp, kind, arg):
    if kind == "filters":
        return _filter_side(cp)
    try:
        if kind == "check":
            return repr(check_statement(cp, arg))
        if kind == "separate":
            return repr(separate(cp, *arg))
        return repr(classify(cp, arg))
    except (NotIdeal, NotFilter) as exc:  # separate on non-family masks
        return f"{type(exc).__name__}: {exc}"


def test_read_many_replay_on_shared_objects_equals_fresh_objects():
    texts = _texts()
    objects = {name: load_instance(text).cp for name, text in texts.items()}
    queries = _queries(objects, random.Random(0))
    assert {kind for kind, _, _ in queries} == {"check", "separate", "classify"}
    fresh = [_answer(load_instance(texts[name]).cp, kind, arg) for kind, name, arg in queries]
    assert any(a.startswith(("NotIdeal", "NotFilter")) for a in fresh)
    assert any("witness=" in a and "witness=None" not in a for a in fresh)
    for _ in range(2):  # cold, then every fact already kept
        assert [_answer(objects[name], kind, arg) for kind, name, arg in queries] == fresh


def _snapshot(obj):
    """Each attribute of ``obj`` by its repr, so that a table filled in
    place after the snapshot differs from it."""
    return {name: repr(value) for name, value in vars(obj).items()}


def test_caller_masks_do_not_grow_the_memos():
    # the facts are tables filled from the object alone and the cone table
    # keeps the 2n cones, not what callers pass
    elements, covers, comp = boolean_lattice(4)
    p = build_poset(elements, covers)
    cp = attach_complementation(p, comp)
    run_all(cp)
    facts = (p.facts, p.dual().facts, cp.facts, cp.dual().facts)
    kept = [_snapshot(f) for f in facts]
    cone_tables = (cp._cone_pre, cp.dual()._cone_pre)
    sizes = [len(table) for table in cone_tables]
    rng = random.Random(0)
    for _ in range(300):
        ideal, filt = rng.randrange(p.all_mask + 1), rng.randrange(p.all_mask + 1)
        for mode in ("first", "prime", "second"):
            query = (ideal, filt, mode)
            fresh = load_instance(emit_instance(Instance("B4", p, cp))).cp
            assert _answer(cp, "separate", query) == _answer(fresh, "separate", query)
        mask = rng.randrange(p.all_mask + 1)
        assert _answer(cp, "classify", mask) == _answer(fresh, "classify", mask)
        for side, fresh_side in ((cp, fresh), (cp.dual(), fresh.dual())):
            assert side.comp_preimage(mask) == fresh_side.comp_preimage(mask)
            assert side.c_condition(mask) == fresh_side.c_condition(mask)
    assert [len(table) for table in cone_tables] == sizes
    assert [_snapshot(f) for f in facts] == kept


def test_concurrent_readers_of_shared_objects_agree_with_one_reader():
    # more threads than cores race on every lazy fill of fresh
    # objects, the kept duals and their facts first; each must read what a
    # single reader on a fresh object reads
    texts = _texts()
    queries = _queries({name: load_instance(text).cp for name, text in texts.items()}, random.Random(1))
    queries = [("filters", name, None) for name in texts] + queries
    want = [_answer(load_instance(texts[name]).cp, kind, arg) for kind, name, arg in queries]
    objects = {name: load_instance(text).cp for name, text in texts.items()}
    got = {}

    def reader(k):
        got[k] = [_answer(objects[name], kind, arg) for kind, name, arg in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {k: want for k in range(4)}
