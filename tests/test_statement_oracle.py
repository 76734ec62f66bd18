"""Statement verdicts against the naive oracle, by definition.

For LEM_BOOLEAN, LEM_PROPER_PAIR and LEM_TRIPLE_A0, ``tests/naive.py``
states the conclusion over the families of all 2^n subsets (for
LEM_TRIPLE_A0, over all 2^n subsets A), and the tests here state the
hypotheses from the complement map and the order as name pairs.  The
statement records must agree with them on the hypothesis flag, the
verdict, and the counterexample, or the probe when the hypotheses are
unmet.  The instances are every complementation of every bounded poset on
at most 6 points, the corpus and campaign seeds 1-200.

LEM_PROPER_PAIR holds on every complemented poset, so there its
counterexample is always None.  To see that its checker reads the right
members, the last test runs the three checkers on every self-map of the
bounded posets on at most 4 points, built past the constructor's axiom
check.
"""

import itertools

import naive
from cideals import ComplementedPoset, StatementId, attach_complementation, check_statement, random_complemented_poset
from cideals.complement import _gather
from conftest import naive_order, naturally_labelled_posets, small_complementations

STATEMENTS = (StatementId.LEM_BOOLEAN, StatementId.LEM_PROPER_PAIR, StatementId.LEM_TRIPLE_A0)


def _braces(members):
    return "{" + ",".join(members) + "}"


def naive_records(elements, le, comp):
    """Per statement, (hypotheses met, counterexample as the checker writes
    it, or None), from the naive oracle alone."""
    twice = {x: comp[comp[x]] for x in elements}
    found = naive.lem_boolean_counterexample(elements, le, comp)
    boolean = (
        naive.antitone(le, comp) and all((x, twice[x]) in le for x in elements),
        found and {"element": found[0], "double_complement": found[1]},
    )
    found = naive.proper_pair_counterexample(elements, le, comp)
    proper_pair = (True, found and {f"proper_{found[0]}": _braces(found[1]), "element": found[2]})
    found = naive.triple_a0_counterexample(elements, comp)
    triple = (
        all(comp[twice[x]] == comp[x] for x in elements),
        found and {"subset": _braces(found[0]), "element": found[1]},
    )
    return dict(zip(STATEMENTS, (boolean, proper_pair, triple)))


def expected_fields(met, cex):
    """(hypotheses_met, conclusion_holds, counterexample, probe) of the
    record for a naive (met, counterexample) pair."""
    if met:
        return True, cex is None, cex, None
    if cex is None:
        return False, None, None, "unguarded conclusion happens to hold"
    return False, None, None, "unguarded conclusion fails: " + ", ".join(f"{k}={v}" for k, v in cex.items())


def records_match_naive(cp):
    """Assert that the three records of ``cp`` are the naive ones; per
    statement, (hypotheses met, counterexample found) as 0/1 counts."""
    p = cp.poset
    elements, le = naive_order(p)
    comp = {p.names[x]: p.names[cx] for x, cx in enumerate(cp.comp)}
    counts = []
    for sid, (met, cex) in naive_records(elements, le, comp).items():
        result = check_statement(cp, sid)
        found = (result.hypotheses_met, result.conclusion_holds, result.counterexample, result.probe)
        assert found == expected_fields(met, cex), (sid, p.names, p.down, cp.comp)
        counts.append((int(met), int(cex is not None)))
    return counts


def totals(instances):
    """Per statement, [instances met, instances with a counterexample]."""
    rows = [records_match_naive(cp) for cp in instances]
    return {sid: [sum(column) for column in zip(*pairs)] for sid, pairs in zip(STATEMENTS, zip(*rows))}


def test_records_match_the_naive_oracle_up_to_six_points():
    instances = [attach_complementation(p, comp) for p, _, _, comps in small_complementations() for comp in comps]
    assert len(instances) == 398
    assert totals(instances) == {
        StatementId.LEM_BOOLEAN: [23, 128],
        StatementId.LEM_PROPER_PAIR: [398, 0],
        StatementId.LEM_TRIPLE_A0: [180, 218],
    }


def test_records_match_the_naive_oracle_on_the_corpus_and_campaign(corpus):
    instances = [entry.cp for entry in corpus.values()]
    instances += [random_complemented_poset(seed)[0] for seed in range(1, 201)]
    assert totals(instances) == {
        StatementId.LEM_BOOLEAN: [110, 14],
        StatementId.LEM_PROPER_PAIR: [205, 0],
        StatementId.LEM_TRIPLE_A0: [152, 53],
    }


def unchecked_complementation(p, comp):
    """A ComplementedPoset over any self-map ``comp`` of the bounded poset
    ``p``: the constructor's tables and flags, without its axiom check."""
    cp = ComplementedPoset.__new__(ComplementedPoset)
    pre = [0] * p.n
    for x, cx in enumerate(comp):
        pre[cx] |= 1 << x
    cp.poset, cp.comp, cp.pre, cp._dual = p, tuple(comp), tuple(pre), None
    cp._cone_pre = {cone: _gather(pre, cone) for cone in p.down + p.up}
    cp.props = cp._compute_properties()
    return cp


def test_checkers_read_the_map_on_every_self_map_up_to_four_points():
    bounded = [p for n in range(1, 5) for p in naturally_labelled_posets(n) if p.bounded]
    instances = [
        unchecked_complementation(p, comp) for p in bounded for comp in itertools.product(range(p.n), repeat=p.n)
    ]
    assert len(instances) == 1 + 4 + 27 + 2 * 256
    assert totals(instances) == {
        StatementId.LEM_BOOLEAN: [23, 364],
        StatementId.LEM_PROPER_PAIR: [544, 541],
        StatementId.LEM_TRIPLE_A0: [244, 300],
    }
