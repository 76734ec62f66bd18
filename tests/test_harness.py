import dataclasses

import pytest

from cideals import (
    NotFilter,
    NotIdeal,
    Poset,
    PosetError,
    StatementId,
    TheoremCheckResult,
    attach_complementation,
    build_poset,
    check_statement,
    run_all,
    separate,
    separate_first,
    separate_second,
    substructures,
)
from cideals.corpus import corpus_entry
from cideals.harness import (
    FAIL_NO_CCOND,
    FAIL_NOT_DISJOINT,
    FAIL_NOT_DISTRIBUTIVE,
    FAIL_NOT_PRIME,
    FAIL_NOT_ULTRA,
    FAIL_X_LE_XDD,
)
from conftest import bounded_antichain, lane_sets, mask, names


def test_statement_catalog_has_19_entries():
    assert len(list(StatementId)) == 19
    from cideals import DESCRIPTIONS, harness

    # the three tables read the one catalog, so they list it in one order
    assert list(StatementId) == list(DESCRIPTIONS) == list(harness._CHECKERS)
    assert all(DESCRIPTIONS[sid] for sid in StatementId)


def test_statement_ids_read_as_their_tags():
    """Reports print, hash and pickle the members, so each reads as its tag."""
    import pickle

    for sid in StatementId:
        assert sid.value == sid.name
        assert str(sid) == f"{sid}" == sid.value
        assert StatementId(sid.value) is sid
        assert pickle.loads(pickle.dumps(sid)) is sid
    assert repr(StatementId.THM_SEP2) == "<StatementId.THM_SEP2: 'THM_SEP2'>"


def test_run_all_fig1(fig1):
    results = run_all(fig1.cp)
    assert len(results) == 19
    assert [r.statement for r in results] == list(StatementId)
    assert all(r.conclusion_holds is not False for r in results)
    by_tag = {r.statement: r for r in results}
    cor = by_tag[StatementId.COR_INVOLUTION]
    assert not cor.hypotheses_met and cor.conclusion_holds is None


def test_run_all_corpus_no_counterexamples(corpus):
    for entry in corpus.values():
        for res in run_all(entry.cp):
            assert res.conclusion_holds is not False, (entry.name, res)


def test_fig2a_expected_not_applicable(fig2a):
    by_tag = {r.statement: r for r in run_all(fig2a.cp)}
    assert not by_tag[StatementId.COR_INVOLUTION].hypotheses_met
    assert not by_tag[StatementId.THM_SEP2].hypotheses_met


def test_thm5_i_ii_fig2b(fig2b):
    res = check_statement(fig2b.cp, StatementId.THM5_I_II)
    assert res.hypotheses_met and res.conclusion_holds is True


def test_rem_principal_l0_fig3(fig3):
    res = check_statement(fig3.cp, StatementId.REM_PRINCIPAL_L0)
    assert res.hypotheses_met and res.conclusion_holds is True


def test_cor_involution_not_applicable_fig1(fig1):
    res = check_statement(fig1.cp, "COR_INVOLUTION")
    assert not res.hypotheses_met
    assert res.conclusion_holds is None
    assert res.counterexample is None


def test_hypothesis_probe_records_failure(fig1):
    # on fig1 the first separation's conclusion genuinely needs x<=x'':
    # U(b) satisfies the c-condition but its preimage {0,a,c} is no ideal
    res = check_statement(fig1.cp, StatementId.THM_SEP1)
    assert not res.hypotheses_met
    assert res.probe is not None and "fails" in res.probe


def test_thm_sep2_met_on_fig4(fig4):
    res = check_statement(fig4.cp, StatementId.THM_SEP2)
    assert res.hypotheses_met and res.conclusion_holds is True


def test_separate_first_fig2b(fig2b):
    p, cp = fig2b.poset, fig2b.cp
    uf = p.up[p.index("f")]
    for gen in ("0", "a", "b", "c", "d", "e"):
        res = separate_first(cp, p.down[p.index(gen)], uf)
        assert res.failure is None
        assert names(p, res.witness) == {"0", "a", "b", "c", "d", "e"}
        assert not res.witness & uf


def test_separate_first_fig3(fig3):
    p, cp = fig3.poset, fig3.cp
    res = separate_first(cp, p.down[p.index("a")], p.up[p.index("d")])
    assert res.witness == p.down[p.index("d'")]


def test_separate_first_prime_mode(fig3):
    p, cp = fig3.poset, fig3.cp
    res = separate(cp, p.down[p.index("a")], p.up[p.index("d")], "prime")
    assert res.witness == p.down[p.index("d'")]
    # U(d') is not prime, so prime mode refuses it
    res = separate(cp, p.down[p.index("0")], p.up[p.index("d'")], "prime")
    assert res.failure == FAIL_NOT_PRIME


def test_separate_first_fig2a_fails_hypotheses(fig2a):
    p, cp = fig2a.poset, fig2a.cp
    res = separate_first(cp, p.down[p.index("0")], p.up[p.index("f")])
    assert res.failure == FAIL_X_LE_XDD
    assert res.witness is None


def test_separate_first_no_ccondition(fig2b):
    p, cp = fig2b.poset, fig2b.cp
    res = separate_first(cp, p.down[p.index("0")], p.up[p.index("a")])
    assert res.failure == FAIL_NO_CCOND


def test_separate_first_not_disjoint(fig2b):
    p, cp = fig2b.poset, fig2b.cp
    res = separate_first(cp, p.down[p.index("f")], p.up[p.index("f")])
    assert res.failure == FAIL_NOT_DISJOINT


def test_separate_first_malformed_inputs(fig1):
    p, cp = fig1.poset, fig1.cp
    with pytest.raises(NotIdeal):
        separate_first(cp, mask(p, "0 a b"), p.up[p.index("b")])
    with pytest.raises(NotFilter):
        separate_first(cp, p.down[p.index("b")], mask(p, "a b 1"))


def test_separate_second_fig4(fig4):
    p, cp = fig4.poset, fig4.cp
    res = separate_second(cp, p.down[p.index("e'")], p.up[p.index("b")])
    assert res.witness == p.down[p.index("b'")]
    assert "generated by b" in res.detail


def test_separate_second_fig4_meets_are_bottom(fig4):
    p = fig4.poset
    b = p.index("b")
    for x in range(p.n):
        if not (p.up[b] >> x) & 1:
            assert p.greatest(p.down[x] & p.down[b]) == p.bottom


def test_separate_second_fig3_not_distributive(fig3):
    p, cp = fig3.poset, fig3.cp
    res = separate_second(cp, p.down[p.index("a")], p.up[p.index("d")])
    assert res.failure == FAIL_NOT_DISTRIBUTIVE


def test_separate_second_not_ultrafilter(fig4):
    p, cp = fig4.poset, fig4.cp
    res = separate_second(cp, p.down[p.index("0")], p.up[p.index("d'")])
    assert res.failure == FAIL_NOT_ULTRA


def test_separate_second_not_disjoint(fig4):
    p, cp = fig4.poset, fig4.cp
    res = separate_second(cp, p.down[p.index("e")], p.up[p.index("b")])
    assert res.failure == FAIL_NOT_DISJOINT


def test_separate_dispatch(fig4):
    p, cp = fig4.poset, fig4.cp
    ideal, filt = p.down[p.index("e'")], p.up[p.index("b")]
    assert separate(cp, ideal, filt, "second").witness == p.down[p.index("b'")]
    assert separate(cp, ideal, filt, "first").witness is not None
    with pytest.raises(PosetError, match="^unknown separation mode 'sideways'$"):
        separate(cp, ideal, filt, "sideways")


def test_run_all_deterministic(fig3):
    import dataclasses

    first = [dataclasses.asdict(r) for r in run_all(fig3.cp)]
    second = [dataclasses.asdict(r) for r in run_all(fig3.cp)]
    assert first == second


def test_check_statement_accepts_string_tags(fig2b):
    res = check_statement(fig2b.cp, "LEM_CL_PRIME")
    assert res.hypotheses_met and res.conclusion_holds


def test_subset_statement_exact_above_twelve_elements():
    # 14 elements, where a 2^n subset scan no longer pays: the singleton scan
    # is still exact.  The bounds plus a 12-antichain, with the cyclic map
    # x_i to x_(i+1 mod 12): x11 and x9 both reach x0, one by one complement
    # and one by three, so {x0} is the first failing subset, and x9 the first
    # element it separates.
    elements, covers, comp = bounded_antichain(12)
    p = build_poset(elements, covers)
    assert p.n == 14
    res = check_statement(attach_complementation(p, comp), StatementId.LEM_TRIPLE_A0)
    assert not res.hypotheses_met and res.conclusion_holds is None
    assert res.probe == "unguarded conclusion fails: subset={x0}, element=x9"
    paired = {**comp, **{f"x{i}": f"x{i ^ 1}" for i in range(12)}}  # x0 <-> x1, x2 <-> x3, ...
    res = check_statement(attach_complementation(p, paired), StatementId.LEM_TRIPLE_A0)
    assert res.hypotheses_met and res.conclusion_holds is True


@pytest.mark.parametrize("side,pair,expected", [
    ("ideal", "0 a b", {"non_principal_ideal": "{0,a,b}"}),
    ("filter", "a b 1", {"non_principal_filter": "{a,b,1}"}),
], ids=["ideal", "filter"])
def test_lem_cl_principal_reports_a_pair_the_ideal_test_accepts(monkeypatch, side, pair, expected):
    # the statement holds on every finite poset; an ideal_lanes doctored to
    # accept one pair's least downset, on one side, shows that the family
    # holds that set and that the walk reports it as the counterexample
    fig1 = corpus_entry("fig1")  # fresh: the verdict is kept on the poset
    p = fig1.poset
    q, fake, real = p if side == "ideal" else p.dual(), mask(p, pair), substructures.ideal_lanes

    def doctored(o, columns):
        accepted = real(o, columns)
        if o is q:
            accepted |= 1 << next(lane for lane, s in lane_sets(columns).items() if s == fake)
        return accepted

    monkeypatch.setattr(substructures, "ideal_lanes", doctored)
    res = check_statement(fig1.cp, StatementId.LEM_CL_PRINCIPAL)
    assert res.hypotheses_met and res.conclusion_holds is False
    assert res.counterexample == expected


def _set_flag(flag):
    """Doctoring that turns one complementation flag off."""
    return lambda mp, cp, f: mp.setattr(cp, "props", dataclasses.replace(cp.props, **{flag: False}))


def _no_least(mp, cp, f):
    mp.setattr(Poset, "least", lambda self, mask: None)


def _no_c_condition(mp, cp, f):
    mp.setattr(cp.dual(), "c_condition", lambda mask: False)


def _generated_by_top(mp, cp, f):
    facts = cp.dual().poset.facts
    mp.setattr(facts, "down_generator", {**facts.down_generator, f: cp.poset.top})


def _no_c_ideals(mp, cp, f):
    mp.setattr(cp.facts, "c_ideal_witnesses", {})


@pytest.mark.parametrize(
    "mode,doctor,message",
    [
        ("prime", _no_c_condition, "prime filter misses the c-condition"),
        ("second", _no_least, "finite filter without least element"),
        ("second", _generated_by_top, "ultrafilter not generated by an atom"),
        ("second", _no_c_condition, "qualifying ultrafilter misses the c-condition"),
        ("second", _set_flag("involution"), "distributivity did not force an involution"),
        ("second", _set_flag("x_le_xdd"), "an involution without x<=x''"),
        ("first", _no_c_ideals, "constructed witness failed verification"),
        ("prime", _no_c_ideals, "constructed witness failed verification"),
        ("second", _no_c_ideals, "constructed witness failed verification"),
    ],
    ids=["prime-ccond", "second-least", "second-atom", "second-ccond", "second-involution",
         "second-x_le_xdd", "first-witness", "prime-witness", "second-witness"],
)
def test_separation_guarantees_raise_internal_errors(monkeypatch, mode, doctor, message):
    """Each step the earlier hypotheses imply, and the final re-check of the
    witness, raises an internal error when the fact, flag or helper it reads
    is doctored to fail; every other step still passes."""
    cp = corpus_entry("fig4").cp  # fresh: the doctored facts stay on the object
    p = cp.poset
    ideal, filt = p.down[p.index("e'")], p.up[p.index("b")]
    assert separate(cp, ideal, filt, mode).witness == p.down[p.index("b'")]
    doctor(monkeypatch, cp, filt)
    with pytest.raises(PosetError) as err:
        separate(cp, ideal, filt, mode)
    assert type(err.value) is PosetError
    assert str(err.value) == f"internal error: {message}"


def test_separation_witness_is_reverified(fig2b, monkeypatch):
    # a construction that yields a non-ideal must be caught by the re-check
    # (the statement checkers call the same procedure).  Only the witness is
    # doctored: the filter's c-condition is read on cp.dual(), whose
    # preimages stay real, so mode first's hypotheses still pass
    p, cp = fig2b.poset, fig2b.cp
    ideal, filt = p.down[p.index("0")], p.up[p.index("f")]
    assert separate_first(cp, ideal, filt).witness is not None
    real = cp.comp_preimage
    monkeypatch.setattr(cp, "comp_preimage", lambda mask: 0 if mask == filt else real(mask))
    with pytest.raises(PosetError, match="failed verification"):
        separate_first(cp, ideal, filt)
    with pytest.raises(PosetError, match="failed verification"):
        check_statement(cp, StatementId.THM_SEP1)


def _frozen_dataclasses():
    """Every frozen dataclass defined in a module of the package, found by
    scanning the modules, so a new record is covered without a new test."""
    import importlib
    import inspect
    import pkgutil

    import cideals

    found = []
    for info in pkgutil.iter_modules(cideals.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"cideals.{info.name}")
        found += [
            pytest.param(cls, id=f"{info.name}.{name}")
            for name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
            and cls.__dataclass_params__.frozen
        ]
    return found


@pytest.mark.parametrize("cls", _frozen_dataclasses())
def test_record_init_matches_the_dataclass_fields(cls):
    """Each frozen dataclass is built by ``poset.record``: its ``__init__``
    fills the instance dict in one update, its parameters are the fields in
    order with their defaults, and the record is still a frozen dataclass
    that ``asdict``, ``replace`` and ``vars`` read alike."""
    import inspect

    init = cls.__init__
    assert init.__code__.co_names == ("__dict__", "update"), "not built by poset.record"
    assert (init.__module__, init.__qualname__) == (cls.__module__, f"{cls.__qualname__}.__init__")
    fields = dataclasses.fields(cls)
    params = list(inspect.signature(init).parameters.values())[1:]
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in fields
    ]
    names = [f.name for f in fields]
    values = [f"value {k}" for k in range(len(names))]
    record = cls(*values)
    assert dataclasses.asdict(record) == vars(record) == dict(zip(names, values))
    assert list(vars(record)) == names
    again = cls(**dict(zip(names, values)))
    assert again == record and hash(again) == hash(record)
    changed = dataclasses.replace(record, **{names[-1]: "other"})
    assert vars(changed) == {**dict(zip(names, values)), names[-1]: "other"} and changed != record
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    assert vars(cls(*values[: len(required)])) == {
        f.name: value if f.default is dataclasses.MISSING else f.default for f, value in zip(fields, values)
    }
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "changed")
    assert vars(record) == dict(zip(names, values))


def test_every_frozen_dataclass_is_found():
    """The scan finds the package's records, and only frozen ones."""
    found = {param.id for param in _frozen_dataclasses()}
    assert {"harness.TheoremCheckResult", "substructures.ClassRow", "poset.DistributivityReport"} <= found
    assert "harness._Context" not in found


def test_check_statement_reads_a_tag_or_raises_the_enum_error(fig3):
    """A tag is read through a table built once from ``StatementId``; a tag
    the table lacks still raises the ValueError of ``StatementId(tag)``."""
    import re

    for tag in ("NOPE", None, 3, ["x"]):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(tag))} is not a valid StatementId$"):
            check_statement(fig3.cp, tag)
    by_tag = check_statement(fig3.cp, "LEM_BOOLEAN")
    assert by_tag == check_statement(fig3.cp, StatementId.LEM_BOOLEAN)
    assert by_tag.statement is StatementId.LEM_BOOLEAN


def test_run_all_runs_a_checker_replaced_after_import(fig3, monkeypatch):
    """``run_all`` and ``check_statement`` read the live checker table, the
    table whose entries the benchmark's tracer replaces with its wrappers."""
    from cideals import harness

    calls = []

    def stub(ctx):
        calls.append(ctx.cp)
        return "", {"stub": "{a}"}

    before = run_all(fig3.cp)
    monkeypatch.setitem(harness._CHECKERS, StatementId.THM_SEP2, stub)
    after = run_all(fig3.cp)
    assert calls == [fig3.cp]
    assert [r for r in after if r.statement != StatementId.THM_SEP2] == before[:-1]
    assert after[-1] == TheoremCheckResult(StatementId.THM_SEP2, True, False, {"stub": "{a}"})
    assert check_statement(fig3.cp, "THM_SEP2") == after[-1] and len(calls) == 2
