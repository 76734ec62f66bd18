"""Dual statements agree with their duals, and each separation statement
agrees with the procedure it quantifies over.

Theorem 5's filter halves are its ideal halves read on the order dual: the
dual of ``cp`` has the same elements and complement map, its ideals are the
filters of ``cp``, and the statement's ideal key becomes the filter key.
The separation hypotheses are restated here from the paper, not read from
the harness's table.  A separation statement is met exactly when some call
of :func:`separate` succeeds, and its notes name the failed hypotheses; its
verdict and counterexample are compared with the naive oracle in
``test_statement_oracle.py``, like every other statement's.
"""

import pytest

from cideals import (
    StatementId,
    attach_complementation,
    build_poset,
    check_statement,
    enumerate_filters,
    enumerate_ideals,
    harness,
    separate,
)
from cideals.harness import (
    _CHECKERS,
    FAIL_NOT_ANTITONE,
    FAIL_NOT_DISTRIBUTIVE,
    FAIL_X_LE_XDD,
    _Context,
)
from conftest import boolean_lattice, corpus_campaign_boolean, small_complementations

#: filter-half statement -> its ideal half
DUALS = {
    StatementId.THM5_V_VI: StatementId.THM5_I_II,
    StatementId.THM5_III_VI_VII_V: StatementId.THM5_II_III_IV_I,
}

_ANTITONE = (FAIL_NOT_ANTITONE, "complementation is not antitone", lambda cp: cp.props.antitone)
_X_LE_XDD = (FAIL_X_LE_XDD, "x<=x'' fails", lambda cp: cp.props.x_le_xdd)

#: mode -> (statement, its global hypotheses in check order as
#: (failure, note, holds(cp)), the note when no disjoint pair qualifies)
SEPARATION = {
    "first": (
        StatementId.THM_SEP1,
        [_ANTITONE, _X_LE_XDD],
        "no disjoint (ideal, filter) pair with the filter satisfying the c-condition",
    ),
    "prime": (StatementId.COR_SEP1_PRIME, [_ANTITONE, _X_LE_XDD], "no disjoint (ideal, prime filter) pair"),
    "second": (
        StatementId.THM_SEP2,
        [
            (FAIL_NOT_DISTRIBUTIVE, "poset is not distributive", lambda cp: cp.poset.is_distributive().holds),
            _ANTITONE,
        ],
        "no disjoint (ideal, qualifying ultrafilter) pair",
    ),
}


def boolean(dim):
    elements, covers, comp = boolean_lattice(dim)
    return attach_complementation(build_poset(elements, covers), comp)


@pytest.fixture(scope="module")
def instances(corpus):
    """fig1-fig4, campaign seeds 1-200 and B2-B4."""
    return corpus_campaign_boolean(corpus)


def _swap_kind(cex):
    swap = {"filter": "ideal", "ideal": "filter"}
    return None if cex is None else {swap.get(k, k): v for k, v in cex.items()}


@pytest.mark.parametrize("sid", list(DUALS), ids=lambda sid: sid.value)
def test_filter_half_is_the_ideal_half_on_the_dual(instances, sid):
    # compares the checkers' raw verdicts, so the unguarded conclusion of an
    # unmet statement is compared too
    met = 0
    for cp in instances:
        f_note, f_cex = _CHECKERS[sid](_Context(cp))
        i_note, i_cex = _CHECKERS[DUALS[sid]](_Context(cp.dual()))
        assert (not f_note, f_cex is None, _swap_kind(f_cex)) == (
            not i_note,
            i_cex is None,
            i_cex,
        ), cp.poset
        assert f_cex is None or set(f_cex) == {"filter"}
        r, d = check_statement(cp, sid), check_statement(cp.dual(), DUALS[sid])
        assert (r.hypotheses_met, r.conclusion_holds, _swap_kind(r.counterexample)) == (
            d.hypotheses_met,
            d.conclusion_holds,
            d.counterexample,
        )
        met += not f_note
    assert 0 < met < len(instances)


@pytest.mark.parametrize("mode", list(SEPARATION))
def test_separation_statement_agrees_with_the_procedure(instances, mode):
    sid, global_checks, no_pair = SEPARATION[mode]
    seen = {True: 0, False: 0}
    small = [attach_complementation(p, comp) for p, _, _, comps in small_complementations() for comp in comps]
    for cp in instances + [boolean(5)] + small:
        p = cp.poset
        results = [
            separate(cp, i, f, mode)
            for i in enumerate_ideals(p)
            for f in enumerate_filters(p)
            if not i & f
        ]
        res = check_statement(cp, sid)
        assert res.hypotheses_met == any(r.witness is not None for r in results), (mode, p)
        seen[res.hypotheses_met] += 1
        if res.hypotheses_met:
            continue
        failed = [(code, note) for code, note, holds in global_checks if not holds(cp)]
        notes = res.detail.split("; ")
        assert notes[: len(failed)] == [note for _code, note in failed], (mode, p)
        assert notes[len(failed) :] in ([], [no_pair]) and notes != [], (mode, p)
        if failed:
            assert {r.failure for r in results} <= {failed[0][0]}, (mode, p)
    assert sum(seen.values()) == 208 + 1 + 398 and seen[True] and seen[False]


def test_separation_checker_verifies_the_witness_on_every_pair(monkeypatch):
    # one separate() per filter: each further disjoint ideal is still checked
    cp = boolean(4)
    p, verify = cp.poset, harness._verify_separation_witness
    for mode, (sid, _, _) in SEPARATION.items():
        want = {(i, f) for i in enumerate_ideals(p) for f in enumerate_filters(p)
                if separate(cp, i, f, mode).witness is not None}
        seen = []
        monkeypatch.setattr(harness, "_verify_separation_witness",
                            lambda cp, i, f, w: seen.append((i, f)) or verify(cp, i, f, w))
        assert check_statement(cp, sid).hypotheses_met
        monkeypatch.undo()
        assert set(seen) == want and len(want) > len({f for _, f in want}), mode
