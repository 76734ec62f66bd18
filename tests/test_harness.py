import pytest

from cideals import (
    NotFilter,
    NotIdeal,
    StatementId,
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
from conftest import mask, names


def test_statement_catalog_has_19_entries():
    assert len(list(StatementId)) == 19
    from cideals import DESCRIPTIONS

    assert set(DESCRIPTIONS) == set(StatementId)
    assert all(DESCRIPTIONS[sid] for sid in StatementId)


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
    res = separate_first(cp, p.down[p.index("a")], p.up[p.index("d")], prime_mode=True)
    assert res.witness == p.down[p.index("d'")]
    # U(d') is not prime, so prime mode refuses it
    res = separate_first(cp, p.down[p.index("0")], p.up[p.index("d'")], prime_mode=True)
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
            assert p.meet(x, b) == p.bottom


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
    with pytest.raises(Exception):
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
    # is still exact.  The cyclic template maps x_i to x_(i+1), so x12 and x10
    # both reach x1, one by one complement and one by three: {x1} is the
    # first failing subset, and x10 the first element it separates.
    from cideals.corpus import _template_instance

    cyclic = _template_instance(14, frozenset())
    assert cyclic.poset.n == 14
    res = check_statement(cyclic, StatementId.LEM_TRIPLE_A0)
    assert not res.hypotheses_met and res.conclusion_holds is None
    assert res.probe == "unguarded conclusion fails: subset={x1}, element=x10"
    involution = _template_instance(14, frozenset({"involution"}))
    assert involution.poset.n == 14
    res = check_statement(involution, StatementId.LEM_TRIPLE_A0)
    assert res.hypotheses_met and res.conclusion_holds is True


def test_lem_cl_principal_over_budget_is_not_verified(monkeypatch):
    # fig3 has more than 10 downsets, so the walk passes a cap of 10; the
    # verdict is kept on the poset, so the object must be fresh
    monkeypatch.setattr(substructures, "DEFAULT_BUDGET", 10)
    res = check_statement(corpus_entry("fig3").cp, StatementId.LEM_CL_PRINCIPAL)
    assert not res.hypotheses_met and res.conclusion_holds is None
    assert res.counterexample is None
    assert res.detail.startswith("downset walk over budget: more than 10 ")
    assert res.probe is None  # claims nothing about the conclusion


def test_over_budget_leaves_other_statements_alone(fig3, monkeypatch):
    principal = StatementId.LEM_CL_PRINCIPAL
    full = [r for r in run_all(fig3.cp) if r.statement != principal]
    monkeypatch.setattr(substructures, "DEFAULT_BUDGET", 10)
    capped = [r for r in run_all(corpus_entry("fig3").cp) if r.statement != principal]
    assert capped == full and len(capped) == 18


def test_lem_cl_principal_reports_what_the_walk_finds(monkeypatch):
    # the statement holds on every finite poset; a doctored walk shows that a
    # non-principal directed set would still be the counterexample
    fig1 = corpus_entry("fig1")  # fresh: the walk's verdict is kept on the poset
    p = fig1.poset
    fake = mask(p, "0 a b")
    monkeypatch.setattr(substructures, "directed_downsets", lambda order: [fake])
    res = check_statement(fig1.cp, StatementId.LEM_CL_PRINCIPAL)
    assert res.hypotheses_met and res.conclusion_holds is False
    assert res.counterexample == {"non_principal_ideal": "{0,a,b}"}
