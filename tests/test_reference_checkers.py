"""The checkers that read the shared facts agree with plain references.

Each of the 11 references below evaluates one statement from unmemoised
definition-level functions: the local ``lu_union``/``ul_union`` build each
cone LU(a,m) from ``lower_cone``/``upper_cone``, not from the pair table,
and OR them over the members of the ideal or filter, and primality, ideal
and filter tests run afresh on every set.  The checkers instead read one bit
of ``union_rows`` per union, the prime families and the c-ideal witness
maps of the shared ``facts``, and read every filter fact on the order dual.
The references reach the filter side through the filter functions, each one
call to its ideal twin on the order dual, and never read the facts.  Both
must give the same hypothesis flag, verdict and first counterexample.
LEM_BOOLEAN, LEM_PROPER_PAIR and LEM_TRIPLE_A0 are checked against
``tests/naive.py`` instead, in ``test_statement_oracle.py``.
"""

import pytest

from cideals import (
    StatementId,
    attach_complementation,
    build_poset,
    enumerate_filters,
    enumerate_ideals,
    is_filter,
    is_ideal,
)
from cideals.harness import _CHECKERS, _Context
from cideals.poset import iter_bits
from cideals.substructures import (
    find_c_filter_witness,
    find_c_ideal_witness,
    is_maximal_ideal,
    is_prime_filter,
    is_prime_ideal,
    is_ultrafilter,
)
from conftest import bounded_antichain, corpus_campaign_boolean


def _fmt(p, m):
    return p.format_set(m)


def lu_union(p, a, s):
    """The union of the cones LU(a,m) over the members m of ``s``, each
    built from the cone functions, with its unmemoised ideal verdict."""
    union = 0
    for m in iter_bits(s):
        union |= p.lower_cone(p.upper_cone(1 << a | 1 << m))
    return union, is_ideal(p, union)


def ul_union(p, a, s):
    """The union of the cones UL(a,m) over the members m of ``s``, with its
    filter verdict: :func:`lu_union` on the order dual."""
    return lu_union(p.dual(), a, s)


def ref_prop_proper_equiv(cp):
    p = cp.poset
    for kind, family in (("ideal", enumerate_ideals(p)), ("filter", enumerate_filters(p))):
        for s in family:
            pre = cp.comp_preimage(s)
            facts = (s != p.all_mask, pre != p.all_mask, not s & pre)
            if len(set(facts)) != 1:
                return True, False, {kind: _fmt(p, s), "equivalences": "({},{},{})".format(*facts)}
    return True, True, None


def ref_lem_cideal_dd(cp):
    p, c = cp.poset, cp.comp
    ideals, filters = enumerate_ideals(p), enumerate_filters(p)
    hyp_i = all(p.le(c[x], c[c[c[x]]]) for x in range(p.n))
    hyp_ii = all(p.le(c[c[c[x]]], c[x]) for x in range(p.n))
    met = hyp_i or hyp_ii
    c_ideals = [i for i in ideals if find_c_ideal_witness(cp, i) is not None]
    c_filters = [f for f in filters if find_c_filter_witness(cp, f) is not None]
    for kind, family, hyp in (("c_ideal", c_ideals, hyp_i), ("c_filter", c_filters, hyp_ii)):
        if hyp or not met:
            for s in family:
                img2 = cp.comp_image(cp.comp_image(s))
                if img2 & ~s:
                    return met, False, {kind: _fmt(p, s), "double_image": _fmt(p, img2)}
    return met, True, None


def ref_lem_prime_ccond(cp):
    p = cp.poset
    prime_ideals = [i for i in enumerate_ideals(p) if is_prime_ideal(p, i)]
    prime_filters = [f for f in enumerate_filters(p) if is_prime_filter(p, f)]
    met = bool(prime_ideals or prime_filters)
    for kind, family in (("prime_ideal", prime_ideals), ("prime_filter", prime_filters)):
        for s in family:
            if not cp.c_condition(s):
                return met, False, {kind: _fmt(p, s)}
    return met, True, None


def _ref_thm5_maximal(cp, family, maximal, kind):
    p = cp.poset
    members = [s for s in family if cp.c_condition(s)]
    for s in members:
        if not maximal(p, s):
            return bool(members), False, {kind: _fmt(p, s)}
    return bool(members), True, None


def ref_thm5_i_ii(cp):
    return _ref_thm5_maximal(cp, enumerate_ideals(cp.poset), is_maximal_ideal, "ideal")


def ref_thm5_v_vi(cp):
    return _ref_thm5_maximal(cp, enumerate_filters(cp.poset), is_ultrafilter, "filter")


def ref_lem_cl_prime(cp):
    p = cp.poset
    ideals, filters = enumerate_ideals(p), enumerate_filters(p)
    for i in ideals:
        rest = p.all_mask & ~i
        facts = (is_prime_ideal(p, i), is_prime_filter(p, rest), is_filter(p, rest))
        if len(set(facts)) != 1:
            return True, False, {"ideal": _fmt(p, i), "equivalences": "({},{},{})".format(*facts)}
    image = {p.all_mask & ~i for i in ideals if is_prime_ideal(p, i)}
    primes = {f for f in filters if is_prime_filter(p, f)}
    if image != primes:
        return True, False, {
            "prime_ideal_complements": "+".join(sorted(_fmt(p, m) for m in image)),
            "prime_filters": "+".join(sorted(_fmt(p, m) for m in primes)),
        }
    return True, True, None


def ref_thm_f0_cideal(cp):
    p, props = cp.poset, cp.props
    ideals, filters = enumerate_ideals(p), enumerate_filters(p)
    hyp_i = props.antitone and props.x_le_xdd
    hyp_ii = props.antitone and props.xdd_le_x
    met = hyp_i or hyp_ii
    if hyp_i or not met:
        for f in filters:
            pre = cp.comp_preimage(f)
            if not is_ideal(p, pre) or find_c_ideal_witness(cp, pre) is None:
                return met, False, {"filter": _fmt(p, f), "preimage": _fmt(p, pre)}
    if hyp_ii or not met:
        for i in ideals:
            pre = cp.comp_preimage(i)
            if not is_filter(p, pre) or find_c_filter_witness(cp, pre) is None:
                return met, False, {"ideal": _fmt(p, i), "preimage": _fmt(p, pre)}
    return met, True, None


def ref_cor_involution(cp):
    p = cp.poset
    ideals, filters = enumerate_ideals(p), enumerate_filters(p)
    met = cp.props.antitone and cp.props.involution
    for i in ideals:
        pre = cp.comp_preimage(i)
        if (
            not is_filter(p, pre)
            or cp.comp_preimage(pre) != i
            or find_c_ideal_witness(cp, i) is None
        ):
            return met, False, {"ideal": _fmt(p, i), "preimage": _fmt(p, pre)}
    for f in filters:
        pre = cp.comp_preimage(f)
        if (
            not is_ideal(p, pre)
            or cp.comp_preimage(pre) != f
            or find_c_filter_witness(cp, f) is None
        ):
            return met, False, {"filter": _fmt(p, f), "preimage": _fmt(p, pre)}
    return met, True, None


def _ref_thm5(cp, family, extreme, union_of, kind):
    p = cp.poset
    qualifying = [
        s
        for s in family
        if extreme(p, s)
        and all(union_of(p, a, s)[1] for a in iter_bits(p.all_mask & ~s))
    ]
    met = p.is_distributive().holds and bool(qualifying)
    for s in qualifying:
        if not cp.c_condition(s):
            return met, False, {kind: _fmt(p, s)}
    return met, True, None


def ref_thm5_ii_iii_iv_i(cp):
    return _ref_thm5(cp, enumerate_ideals(cp.poset), is_maximal_ideal, lu_union, "ideal")


def ref_thm5_iii_vi_vii_v(cp):
    return _ref_thm5(cp, enumerate_filters(cp.poset), is_ultrafilter, ul_union, "filter")


def ref_lem_joinsemi_lu(cp):
    p = cp.poset
    met = p.semilattice_flags()[0]
    for i in enumerate_ideals(p):
        for a in range(p.n):
            union, ok = lu_union(p, a, i)
            if not ok:
                return met, False, {
                    "ideal": _fmt(p, i),
                    "element": p.names[a],
                    "union": _fmt(p, union),
                }
    return met, True, None


REFERENCES = {
    StatementId.LEM_CL_PRIME: ref_lem_cl_prime,
    StatementId.PROP_PROPER_EQUIV: ref_prop_proper_equiv,
    StatementId.LEM_CIDEAL_DD: ref_lem_cideal_dd,
    StatementId.THM_F0_CIDEAL: ref_thm_f0_cideal,
    StatementId.COR_INVOLUTION: ref_cor_involution,
    StatementId.LEM_PRIME_CCOND: ref_lem_prime_ccond,
    StatementId.THM5_I_II: ref_thm5_i_ii,
    StatementId.THM5_V_VI: ref_thm5_v_vi,
    StatementId.THM5_II_III_IV_I: ref_thm5_ii_iii_iv_i,
    StatementId.THM5_III_VI_VII_V: ref_thm5_iii_vi_vii_v,
    StatementId.LEM_JOINSEMI_LU: ref_lem_joinsemi_lu,
}


#: statements the paper proves for every complemented poset
UNCONDITIONAL = {
    StatementId.LEM_CL_PRIME,
    StatementId.PROP_PROPER_EQUIV,
    StatementId.LEM_PRIME_CCOND,
    StatementId.THM5_I_II,
    StatementId.THM5_V_VI,
}


def _complemented(elements, covers, comp):
    p = build_poset(elements, covers)
    return attach_complementation(p, comp)


@pytest.fixture(scope="module")
def instances(corpus):
    """The corpus, campaign seeds 1-200, B2-B4 and bounded antichains."""
    return corpus_campaign_boolean(corpus) + [_complemented(*bounded_antichain(k)) for k in (2, 3, 5, 8)]


@pytest.mark.parametrize("sid", list(REFERENCES), ids=lambda sid: sid.value)
def test_checker_matches_its_reference(instances, sid):
    seen = {"met": 0, "failed": 0}
    for cp in instances:
        note, cex = _CHECKERS[sid](_Context(cp))
        assert (not note, cex is None, cex) == REFERENCES[sid](cp), (sid, cp.poset)
        seen["met"] += not note
        seen["failed"] += cex is not None
    # the set meets every statement's hypotheses somewhere, and fails the
    # unguarded conclusion somewhere, except those that hold on every
    # complemented poset, which it never fails
    assert seen["met"] > 0
    assert (seen["failed"] > 0) != (sid in UNCONDITIONAL)
