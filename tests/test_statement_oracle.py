"""Statement verdicts against the naive oracle, by definition.

For each of the 19 statements of the catalog, its verdict in
``naive.VERDICTS`` states the hypotheses from the complement map and the
order as name pairs, and the conclusion over the families of all 2^n
subsets (for LEM_TRIPLE_A0, over all 2^n subsets A; for the separation
statements, over the disjoint pairs of a naive ideal and a qualifying
naive filter).  The statement records must agree with it on the
hypothesis flag, the verdict, and the counterexample, or the probe when the
hypotheses are unmet, and its ``computed_lists`` must be the naive
classification lists.  The instances are every complementation of every
bounded poset on at most 6 points, the corpus, campaign seeds 1-200, the
Boolean lattices B2-B4 and the bounds plus a 2-, 3-, 5- or 8-antichain.

Several statements hold on every complemented poset, so there their
counterexample is always None.  To see that the checkers read the right
members, the last test runs them on every self-map of the bounded posets on
at most 4 points, built past the constructor's axiom check.  A self-map is
no complementation, so where the separation hypotheses are met, a
guarantee that the checker asserts can fail: its internal error is accepted
there, and only there, and counted.
"""

import ast
import itertools
import sys
from collections import Counter
from pathlib import Path

import naive
from cideals import (
    ComplementedPoset,
    PosetError,
    StatementId,
    attach_complementation,
    build_poset,
    check_statement,
    computed_lists,
)
from cideals.complement import _gather
from conftest import (
    boolean_lattice,
    bounded_antichain,
    campaign_instances,
    naive_order,
    small_complementations,
    small_posets,
)

#: per statement, [instances met, instances with a counterexample] on the
#: small complementations, the corpus and campaign, the lattices and
#: antichains, and the self-maps
COUNTS = {
    StatementId.LEM_BOOLEAN: ([23, 128], [110, 14], [4, 0], [23, 364]),
    StatementId.LEM_CL_PRIME: ([398, 0], [205, 0], [7, 0], [544, 0]),
    StatementId.LEM_CL_PRINCIPAL: ([398, 0], [205, 0], [7, 0], [544, 0]),
    StatementId.LEM_PROPER_PAIR: ([398, 0], [205, 0], [7, 0], [544, 541]),
    StatementId.PROP_PROPER_EQUIV: ([398, 0], [205, 0], [7, 0], [544, 541]),
    StatementId.LEM_CIDEAL_DD: ([228, 170], [159, 45], [4, 3], [432, 78]),
    StatementId.LEM_TRIPLE_A0: ([180, 218], [152, 53], [4, 3], [244, 300]),
    StatementId.THM_F0_CIDEAL: ([37, 307], [112, 87], [4, 0], [40, 499]),
    StatementId.COR_INVOLUTION: ([9, 389], [106, 99], [4, 3], [6, 538]),
    StatementId.REM_PRINCIPAL_L0: ([9, 389], [106, 99], [4, 3], [6, 538]),
    StatementId.LEM_PRIME_CCOND: ([92, 0], [79, 0], [4, 0], [543, 541]),
    StatementId.THM5_I_II: ([242, 0], [108, 0], [4, 0], [61, 24]),
    StatementId.THM5_II_III_IV_I: ([2, 317], [68, 129], [4, 3], [543, 536]),
    StatementId.THM5_V_VI: ([242, 0], [105, 0], [4, 0], [61, 24]),
    StatementId.THM5_III_VI_VII_V: ([2, 317], [68, 131], [4, 3], [543, 536]),
    StatementId.LEM_JOINSEMI_LU: ([398, 0], [201, 4], [7, 0], [544, 0]),
    StatementId.THM_SEP1: ([19, 162], [74, 28], [4, 0], [10, 3]),
    StatementId.COR_SEP1_PRIME: ([19, 0], [74, 0], [4, 0], [22, 541]),
    StatementId.THM_SEP2: ([2, 329], [68, 133], [4, 3], [84, 536]),
}


def expected_fields(met, cex):
    """(hypotheses_met, conclusion_holds, counterexample, probe) of the
    record for a naive (met, counterexample) pair."""
    if met:
        return True, cex is None, cex, None
    if cex is None:
        return False, None, None, "unguarded conclusion happens to hold"
    return False, None, None, "unguarded conclusion fails: " + ", ".join(f"{k}={v}" for k, v in cex.items())


def naive_lists(elements, le, comp):
    """``computed_lists`` by naive definitions, each ideal listed by its
    greatest element and each filter by its least."""
    facts = naive.order_facts(elements, le)
    c_condition = [f for f in facts.family["filter"] if naive.c_condition(elements, comp, f)]
    lists = {"boolean": naive.boolean_elements(elements, comp)}
    for name, kind, family in (
        ("maximal_ideals", "ideal", facts.maximal["ideal"]), ("ultrafilters", "filter", facts.maximal["filter"]),
        ("prime_ideals", "ideal", facts.prime["ideal"]), ("prime_filters", "filter", facts.prime["filter"]),
        ("c_ideals", "ideal", naive.c_ideals(elements, le, comp)), ("c_filters", "filter", naive.c_filters(elements, le, comp)),
        ("c_condition_filters", "filter", c_condition),
    ):
        cone = naive.lower_cone if kind == "ideal" else naive.upper_cone
        lists[name] = frozenset(g for s in family for g in s if cone(elements, le, {g}) == s)
    return lists


def records_match_naive(cp, raised=None):
    """Assert that the records of ``cp`` are the naive ones, and so are its
    classification lists, whose ultrafilters are the up-cones of the atoms;
    per statement,
    (hypotheses met, counterexample found) as 0/1 counts.  With a Counter
    ``raised``, a checker whose naive hypotheses are met may instead raise
    its internal error, counted there per statement."""
    p = cp.poset
    elements, le = naive_order(p)
    comp = {p.names[x]: p.names[cx] for x, cx in enumerate(cp.comp)}
    counts = []
    for sid in StatementId:
        met, cex = naive.VERDICTS[sid.value](elements, le, comp)
        try:
            result = check_statement(cp, sid)
        except PosetError as exc:
            if raised is None or not met or not str(exc).startswith("internal error: "):
                raise
            raised[sid] += 1
        else:
            found = (result.hypotheses_met, result.conclusion_holds, result.counterexample, result.probe)
            assert found == expected_fields(met, cex), (sid, p.names, p.down, cp.comp)
        counts.append((int(met), int(cex is not None)))
    lists = computed_lists(cp)
    assert lists == naive_lists(elements, le, comp), (p.names, p.down, cp.comp)
    assert lists["ultrafilters"] == {a for a in elements if len(naive.lower_cone(elements, le, {a})) == 2}
    return counts


def totals(instances, raised=None):
    """Per statement, [instances met, instances with a counterexample]."""
    rows = [records_match_naive(cp, raised) for cp in instances]
    return {sid: [sum(column) for column in zip(*pairs)] for sid, pairs in zip(StatementId, zip(*rows))}


def pinned(column):
    return {sid: counts[column] for sid, counts in COUNTS.items()}


def test_records_match_the_naive_oracle_up_to_six_points():
    instances = [attach_complementation(p, comp) for p, _, _, comps in small_complementations() for comp in comps]
    assert len(instances) == 398
    assert totals(instances) == pinned(0)


def test_records_match_the_naive_oracle_on_the_corpus_and_campaign(corpus):
    instances = [entry.cp for entry in corpus.values()]
    instances += [instance.cp for instance in campaign_instances()]
    assert totals(instances) == pinned(1)


def test_records_match_the_naive_oracle_on_boolean_lattices_and_antichains():
    tables = [boolean_lattice(dim) for dim in (2, 3, 4)] + [bounded_antichain(k) for k in (2, 3, 5, 8)]
    instances = [attach_complementation(build_poset(elements, covers), comp) for elements, covers, comp in tables]
    assert totals(instances) == pinned(2)


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
    bounded = [p for p in small_posets() if p.n <= 4 and p.bounded]
    instances = [
        unchecked_complementation(p, comp) for p in bounded for comp in itertools.product(range(p.n), repeat=p.n)
    ]
    assert len(instances) == 1 + 4 + 27 + 2 * 256
    raised = Counter()
    assert totals(instances, raised) == pinned(3)
    # a self-map is no complementation, so a guarantee that the met
    # separation checker asserts can fail
    assert raised == {StatementId.COR_SEP1_PRIME: 20, StatementId.THM_SEP2: 82}


def test_the_naive_oracle_imports_only_the_standard_library():
    tree = ast.parse(Path(naive.__file__).read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {"." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules and all(name.split(".")[0] in sys.stdlib_module_names for name in modules), modules
