"""Mechanical verification of the statement catalog on one complemented poset.

Every statement is checked from first principles: hypotheses are evaluated
exactly as stated, conclusions by exhaustive evaluation of the definitions,
never by replaying a proof.  A statement whose hypotheses fail reports
``hypotheses_met=False`` with the conclusion left undecided, so reports
distinguish "verified" from "not applicable"; a probe note records whether
the unguarded conclusion would have held anyway, which shows when the
hypotheses are doing real work.

The two separation procedures are also exposed as constructive operations:
they check their hypotheses in a fixed order, build the witness ideal as the
complement-preimage of the filter, and re-verify it definition-level before
returning it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .complement import ComplementedPoset
from .errors import NotFilter, NotIdeal, PosetError, ScaleLimit
from .poset import Poset, iter_bits
from .substructures import DEFAULT_BUDGET, Analysis, complement_pairing, directed_downsets


class StatementId(str, enum.Enum):
    """Identifiers of the checkable statements, in fixed report order."""

    LEM_BOOLEAN = "LEM_BOOLEAN"
    LEM_CL_PRIME = "LEM_CL_PRIME"
    LEM_CL_PRINCIPAL = "LEM_CL_PRINCIPAL"
    LEM_PROPER_PAIR = "LEM_PROPER_PAIR"
    PROP_PROPER_EQUIV = "PROP_PROPER_EQUIV"
    LEM_CIDEAL_DD = "LEM_CIDEAL_DD"
    LEM_TRIPLE_A0 = "LEM_TRIPLE_A0"
    THM_F0_CIDEAL = "THM_F0_CIDEAL"
    COR_INVOLUTION = "COR_INVOLUTION"
    REM_PRINCIPAL_L0 = "REM_PRINCIPAL_L0"
    LEM_PRIME_CCOND = "LEM_PRIME_CCOND"
    THM5_I_II = "THM5_I_II"
    THM5_II_III_IV_I = "THM5_II_III_IV_I"
    THM5_V_VI = "THM5_V_VI"
    THM5_III_VI_VII_V = "THM5_III_VI_VII_V"
    LEM_JOINSEMI_LU = "LEM_JOINSEMI_LU"
    THM_SEP1 = "THM_SEP1"
    COR_SEP1_PRIME = "COR_SEP1_PRIME"
    THM_SEP2 = "THM_SEP2"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


DESCRIPTIONS: dict[StatementId, str] = {
    StatementId.LEM_BOOLEAN: "if ' is antitone with x<=x'' everywhere, an element whose every ideal-membership forces in its double complement is Boolean",
    StatementId.LEM_CL_PRIME: "I is a prime ideal iff P\\I is a filter iff P\\I is a prime filter; complementation of sets is a bijection between prime ideals and prime filters",
    StatementId.LEM_CL_PRINCIPAL: "on a finite poset every ideal and every filter is principal",
    StatementId.LEM_PROPER_PAIR: "a proper ideal never contains both an element and its complement",
    StatementId.PROP_PROPER_EQUIV: "I proper iff I_0 != P iff I and I_0 are disjoint (dually for filters)",
    StatementId.LEM_CIDEAL_DD: "x'<=x''' everywhere forces I''<=I for c-ideals; x'''<=x' dually for c-filters",
    StatementId.LEM_TRIPLE_A0: "under x'''=x', membership of a in A_0 is equivalent to membership of a''",
    StatementId.THM_F0_CIDEAL: "antitone with x<=x'': F_0 is a c-ideal for every filter F; antitone with x''<=x: I_0 is a c-filter for every ideal I",
    StatementId.COR_INVOLUTION: "under an antitone involution, I_0 is a filter with (I_0)_0 = I, so every ideal is a c-ideal (dually for filters)",
    StatementId.REM_PRINCIPAL_L0: "under an antitone involution, L(a)_0 = U(a') and L(a) = U(a')_0",
    StatementId.LEM_PRIME_CCOND: "every prime ideal and every prime filter satisfies the c-condition",
    StatementId.THM5_I_II: "an ideal satisfying the c-condition is maximal",
    StatementId.THM5_II_III_IV_I: "on a distributive poset, a maximal ideal whose LU-unions are ideals satisfies the c-condition",
    StatementId.THM5_V_VI: "a filter satisfying the c-condition is an ultrafilter",
    StatementId.THM5_III_VI_VII_V: "on a distributive poset, an ultrafilter whose UL-unions are filters satisfies the c-condition",
    StatementId.LEM_JOINSEMI_LU: "on a join-semilattice, the union of LU(a,i) over an ideal is always an ideal",
    StatementId.THM_SEP1: "antitone, x<=x'', F with the c-condition disjoint from I: J := F_0 is a c-ideal separating them",
    StatementId.COR_SEP1_PRIME: "antitone, x<=x'', F a prime filter disjoint from I: a separating c-ideal exists",
    StatementId.THM_SEP2: "distributive, antitone, F a principal ultrafilter with all meets against its generator: a separating c-ideal exists",
}


@dataclass(frozen=True)
class TheoremCheckResult:
    """Outcome of one statement check.

    ``conclusion_holds`` is absent when hypotheses are unmet; a present
    counterexample implies ``conclusion_holds=False``.  ``probe`` carries the
    hypothesis-minimality note (what the unguarded conclusion would do) and
    is informational only.  Unmet hypotheses without a probe mean the
    conclusion could not be evaluated at all: the LEM_CL_PRINCIPAL walk
    passed its budget, and ``detail`` says so.
    """

    statement: StatementId
    hypotheses_met: bool
    conclusion_holds: bool | None
    counterexample: dict[str, str] | None = None
    detail: str = ""
    probe: str | None = None


# separation failure reasons, reported in hypothesis-check order
FAIL_NOT_ANTITONE = "NotAntitone"
FAIL_X_LE_XDD = "XLeXddFails"
FAIL_NO_CCOND = "NoCCondition"
FAIL_NOT_PRIME = "NotPrime"
FAIL_NOT_DISJOINT = "NotDisjoint"
FAIL_NOT_ULTRA = "NotUltrafilter"
FAIL_MEET_MISSING = "MeetMissing"
FAIL_NOT_DISTRIBUTIVE = "NotDistributive"


@dataclass(frozen=True)
class SeparationResult:
    """Witness c-ideal of a separation run, or the first failed hypothesis."""

    ideal_in: int
    filter_in: int
    witness: int | None = None
    failure: str | None = None
    detail: str = ""


@dataclass
class _Context:
    """What the checkers share for one instance: the call's analysis and the
    LEM_CL_PRINCIPAL walk budget."""

    cp: ComplementedPoset
    budget: int
    analysis: Analysis | None = None

    def __post_init__(self):
        if self.analysis is None:
            self.analysis = Analysis(self.cp.poset, self.cp)


def _fmt(p: Poset, mask: int) -> str:
    return p.format_set(mask)


# -- individual checkers ----------------------------------------------------
# each returns (hypotheses_met, hypothesis_note, conclusion_ok, counterexample)


def _check_lem_boolean(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    props = cp.props
    met = props.antitone and props.x_le_xdd
    note = "" if met else "needs an antitone complementation with x<=x'' for all x"
    cex = None
    for a in range(p.n):
        add = cp.comp[cp.comp[a]]
        forced = all((i >> add) & 1 for i in ctx.analysis.ideals if (i >> a) & 1)
        if forced and add != a:
            cex = {"element": p.names[a], "double_complement": p.names[add]}
            break
    return met, note, cex is None, cex


def _check_lem_cl_prime(ctx: _Context):
    """Every filter is an up-cone (LEM_CL_PRINCIPAL), so P\\I is a prime
    filter exactly when it is in the prime-filter family."""
    p, a = ctx.cp.poset, ctx.analysis
    cex = None
    for i in a.ideals:
        rest = complement_pairing(p, i)
        facts = (i in a.prime_ideal_set, rest in a.prime_filter_set, a.is_filter(rest))
        if len(set(facts)) != 1:
            cex = {"ideal": _fmt(p, i), "equivalences": f"({facts[0]},{facts[1]},{facts[2]})"}
            break
    if cex is None:
        image = {complement_pairing(p, i) for i in a.prime_ideals}
        if image != a.prime_filter_set:
            cex = {
                "prime_ideal_complements": "+".join(sorted(_fmt(p, m) for m in image)),
                "prime_filters": "+".join(sorted(_fmt(p, m) for m in a.prime_filters)),
            }
    return True, "", cex is None, cex


def _check_lem_cl_principal(ctx: _Context):
    """Walks the downsets, not the cone families, which assume the result;
    the filter side walks the dual.  Over budget, nothing is concluded."""
    p = ctx.cp.poset
    try:
        for kind, order, generator, cones in (
            ("ideal", p, p.greatest, p.down),
            ("filter", p.dual(), p.least, p.up),
        ):
            for s in directed_downsets(order, ctx.budget):
                g = generator(s)
                if g is None or cones[g] != s:
                    return True, "", False, {f"non_principal_{kind}": _fmt(p, s)}
    except ScaleLimit as exc:
        return False, f"downset walk over budget: {exc}", None, None
    return True, "", True, None


def _check_lem_proper_pair(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    cex = None
    for i in ctx.analysis.ideals:
        if i == p.all_mask:
            continue
        for a in iter_bits(i):
            if (i >> cp.comp[a]) & 1 and cp.comp[a] != a:
                cex = {"proper_ideal": _fmt(p, i), "element": p.names[a]}
                break
        if cex:
            break
    if cex is None:
        for f in ctx.analysis.filters:
            if f == p.all_mask:
                continue
            for a in iter_bits(f):
                if (f >> cp.comp[a]) & 1 and cp.comp[a] != a:
                    cex = {"proper_filter": _fmt(p, f), "element": p.names[a]}
                    break
            if cex:
                break
    return True, "", cex is None, cex


def _check_prop_proper_equiv(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    cex = None
    for kind, family in (("ideal", ctx.analysis.ideals), ("filter", ctx.analysis.filters)):
        for s in family:
            pre = cp.comp_preimage(s)
            facts = (s != p.all_mask, pre != p.all_mask, not s & pre)
            if len(set(facts)) != 1:
                cex = {kind: _fmt(p, s), "equivalences": f"({facts[0]},{facts[1]},{facts[2]})"}
                break
        if cex:
            break
    return True, "", cex is None, cex


def _check_lem_cideal_dd(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    c = cp.comp
    hyp_i = all(p.le(c[x], c[c[c[x]]]) for x in range(p.n))
    hyp_ii = all(p.le(c[c[c[x]]], c[x]) for x in range(p.n))
    met = hyp_i or hyp_ii
    note = "" if met else "needs x'<=x''' for all x (or the dual x'''<=x')"
    parts = []
    if hyp_i or not met:
        parts.append("ideal")
    if hyp_ii or not met:
        parts.append("filter")
    cex = None
    if "ideal" in parts:
        for i in ctx.analysis.c_ideals:
            img2 = cp.comp_image(cp.comp_image(i))
            if img2 & ~i:
                cex = {"c_ideal": _fmt(p, i), "double_image": _fmt(p, img2)}
                break
    if cex is None and "filter" in parts:
        for f in ctx.analysis.c_filters:
            img2 = cp.comp_image(cp.comp_image(f))
            if img2 & ~f:
                cex = {"c_filter": _fmt(p, f), "double_image": _fmt(p, img2)}
                break
    return met, note, cex is None, cex


def _check_lem_triple_a0(ctx: _Context):
    """Exact over all 2^n subsets A: a in A_0 iff a' in A, and a'' in A_0 iff
    a''' in A, so some A fails exactly when a' != a''' for some a, and then
    {a'} fails.  A failing A holds one of a', a''' without the other, whose
    singleton is no larger a mask: the first failing singleton is the first
    failing subset in mask order."""
    cp, p, c = ctx.cp, ctx.cp.poset, ctx.cp.comp
    met = cp.props.triple_identity
    note = "" if met else "needs the identity x''' = x'"
    for k in range(p.n):
        for a in range(p.n):
            if (c[a] == k) != (c[c[c[a]]] == k):
                return met, note, False, {"subset": _fmt(p, 1 << k), "element": p.names[a]}
    return met, note, True, None


def _check_thm_f0_cideal(ctx: _Context):
    cp, p, a = ctx.cp, ctx.cp.poset, ctx.analysis
    props = cp.props
    hyp_i = props.antitone and props.x_le_xdd
    hyp_ii = props.antitone and props.xdd_le_x
    met = hyp_i or hyp_ii
    note = "" if met else "needs antitone with x<=x'' (or the dual x''<=x)"
    cex = None
    if hyp_i or not met:
        for f in a.filters:
            pre = cp.comp_preimage(f)
            if not a.is_ideal(pre) or pre not in a.c_ideal_witnesses:
                cex = {"filter": _fmt(p, f), "preimage": _fmt(p, pre)}
                break
    if cex is None and (hyp_ii or not met):
        for i in a.ideals:
            pre = cp.comp_preimage(i)
            if not a.is_filter(pre) or pre not in a.c_filter_witnesses:
                cex = {"ideal": _fmt(p, i), "preimage": _fmt(p, pre)}
                break
    return met, note, cex is None, cex


def _check_cor_involution(ctx: _Context):
    cp, p, a = ctx.cp, ctx.cp.poset, ctx.analysis
    met = cp.props.antitone and cp.props.involution
    note = "" if met else "needs an antitone involution"
    cex = None
    for i in a.ideals:
        pre = cp.comp_preimage(i)
        if not a.is_filter(pre) or cp.comp_preimage(pre) != i or i not in a.c_ideal_witnesses:
            cex = {"ideal": _fmt(p, i), "preimage": _fmt(p, pre)}
            break
    if cex is None:
        for f in a.filters:
            pre = cp.comp_preimage(f)
            if not a.is_ideal(pre) or cp.comp_preimage(pre) != f or f not in a.c_filter_witnesses:
                cex = {"filter": _fmt(p, f), "preimage": _fmt(p, pre)}
                break
    return met, note, cex is None, cex


def _check_rem_principal_l0(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    met = cp.props.antitone and cp.props.involution
    note = "" if met else "needs an antitone involution"
    cex = None
    for a in range(p.n):
        ca = cp.comp[a]
        if cp.comp_preimage(p.down[a]) != p.up[ca] or cp.comp_preimage(p.up[ca]) != p.down[a]:
            cex = {"element": p.names[a]}
            break
    return met, note, cex is None, cex


def _check_lem_prime_ccond(ctx: _Context):
    cp, p, a = ctx.cp, ctx.cp.poset, ctx.analysis
    met = bool(a.prime_ideals or a.prime_filters)
    note = "" if met else "no prime ideals and no prime filters on this instance"
    cex = None
    for i in a.prime_ideals:
        if not cp.c_condition(i):
            cex = {"prime_ideal": _fmt(p, i)}
            break
    if cex is None:
        for f in a.prime_filters:
            if not cp.c_condition(f):
                cex = {"prime_filter": _fmt(p, f)}
                break
    return met, note, cex is None, cex


def _check_thm5_i_ii(ctx: _Context):
    p, a = ctx.cp.poset, ctx.analysis
    met = bool(a.ccond_ideals)
    note = "" if met else "no ideal satisfies the c-condition"
    cex = None
    for i in a.ccond_ideals:
        if i not in a.maximal_ideal_set:
            cex = {"ideal": _fmt(p, i)}
            break
    return met, note, cex is None, cex


def _lu_condition(a: Analysis, ideal_mask: int) -> bool:
    """Is every LU-union over the ideal, for x outside it, an ideal?  Over
    the principal ideal down[g] that union is the one cell lu[x][g] (see
    :func:`~cideals.substructures.lu_union`); LEM_JOINSEMI_LU reads it too."""
    p = a.poset
    cells = p.lu[a.down_generator[ideal_mask]]
    return all(a.is_ideal(cells[x]) for x in iter_bits(p.all_mask & ~ideal_mask))


def _ul_condition(a: Analysis, filter_mask: int) -> bool:
    """Is every UL-union over the filter, for x outside it, a filter?  Over
    the principal filter up[g] that union is the one cell ul[x][g]."""
    p = a.poset
    cells = p.ul[a.up_generator[filter_mask]]
    return all(a.is_filter(cells[x]) for x in iter_bits(p.all_mask & ~filter_mask))


def _check_thm5_ii_iii_iv_i(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    distributive = ctx.analysis.distributivity.holds
    qualifying = [i for i in ctx.analysis.maximal_ideals if _lu_condition(ctx.analysis, i)]
    met = distributive and bool(qualifying)
    if distributive:
        note = "" if qualifying else "no maximal ideal with all LU-unions ideals"
    else:
        note = "poset is not distributive"
    cex = None
    for i in qualifying:
        if not cp.c_condition(i):
            cex = {"ideal": _fmt(p, i)}
            break
    return met, note, cex is None, cex


def _check_thm5_v_vi(ctx: _Context):
    p, a = ctx.cp.poset, ctx.analysis
    met = bool(a.ccond_filters)
    note = "" if met else "no filter satisfies the c-condition"
    cex = None
    for f in a.ccond_filters:
        if f not in a.ultrafilter_set:
            cex = {"filter": _fmt(p, f)}
            break
    return met, note, cex is None, cex


def _check_thm5_iii_vi_vii_v(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    distributive = ctx.analysis.distributivity.holds
    qualifying = [f for f in ctx.analysis.ultrafilters if _ul_condition(ctx.analysis, f)]
    met = distributive and bool(qualifying)
    if distributive:
        note = "" if qualifying else "no ultrafilter with all UL-unions filters"
    else:
        note = "poset is not distributive"
    cex = None
    for f in qualifying:
        if not cp.c_condition(f):
            cex = {"filter": _fmt(p, f)}
            break
    return met, note, cex is None, cex


def _check_lem_joinsemi_lu(ctx: _Context):
    p, an = ctx.cp.poset, ctx.analysis
    met = an.semilattice_flags[0]
    note = "" if met else "poset is not a join-semilattice"
    cex = None
    for i in an.ideals:
        g = an.down_generator[i]
        for a in range(p.n):
            union = p.lu[a][g]
            if not an.is_ideal(union):
                cex = {"ideal": _fmt(p, i), "element": p.names[a], "union": _fmt(p, union)}
                break
        if cex:
            break
    return met, note, cex is None, cex


def _verify_separation_witness(
    ideal_mask: int, filter_mask: int, witness: int, analysis: Analysis
) -> bool:
    """Definition-level re-check, independent of the construction path."""
    return (
        analysis.is_ideal(witness)
        and witness in analysis.c_ideal_witnesses
        and not ideal_mask & ~witness
        and not witness & filter_mask
    )


def _separation_pairs(ctx: _Context, filter_ok) -> list[tuple[int, int]]:
    return [
        (i, f)
        for f in ctx.analysis.filters
        if filter_ok(f)
        for i in ctx.analysis.ideals
        if not i & f
    ]


def _check_separation(ctx: _Context, mode: str):
    cp, p, a = ctx.cp, ctx.cp.poset, ctx.analysis
    props = cp.props
    notes = []
    if mode == "second":
        if not a.distributivity.holds:
            notes.append("poset is not distributive")
        if not props.antitone:
            notes.append("complementation is not antitone")

        def filter_ok(f: int) -> bool:
            if f not in a.ultrafilter_set:
                return False
            g = p.least(f)
            return g is not None and all(
                p.meet(x, g) is not None for x in iter_bits(p.all_mask & ~f)
            )

    else:
        if not props.antitone:
            notes.append("complementation is not antitone")
        if not props.x_le_xdd:
            notes.append("x<=x'' fails")
        if mode == "prime":
            def filter_ok(f: int) -> bool:
                return f in a.prime_filter_set
        else:
            def filter_ok(f: int) -> bool:
                return cp.c_condition(f)

    pairs = _separation_pairs(ctx, filter_ok)
    if not pairs:
        kind = {
            "first": "no disjoint (ideal, filter) pair with the filter satisfying the c-condition",
            "prime": "no disjoint (ideal, prime filter) pair",
            "second": "no disjoint (ideal, qualifying ultrafilter) pair",
        }[mode]
        notes.append(kind)
    met = not notes
    cex = None
    for i, f in pairs:
        if met:
            if mode == "second":
                result = separate_second(cp, i, f, analysis=a)
            else:
                result = separate_first(cp, i, f, prime_mode=(mode == "prime"), analysis=a)
            witness = result.witness
        else:
            witness = cp.comp_preimage(f)
        if witness is None or not _verify_separation_witness(i, f, witness, a):
            cex = {
                "ideal": _fmt(p, i),
                "filter": _fmt(p, f),
                "candidate": _fmt(p, cp.comp_preimage(f)),
            }
            break
    return met, "; ".join(notes), cex is None, cex


_CHECKERS = {
    StatementId.LEM_BOOLEAN: _check_lem_boolean,
    StatementId.LEM_CL_PRIME: _check_lem_cl_prime,
    StatementId.LEM_CL_PRINCIPAL: _check_lem_cl_principal,
    StatementId.LEM_PROPER_PAIR: _check_lem_proper_pair,
    StatementId.PROP_PROPER_EQUIV: _check_prop_proper_equiv,
    StatementId.LEM_CIDEAL_DD: _check_lem_cideal_dd,
    StatementId.LEM_TRIPLE_A0: _check_lem_triple_a0,
    StatementId.THM_F0_CIDEAL: _check_thm_f0_cideal,
    StatementId.COR_INVOLUTION: _check_cor_involution,
    StatementId.REM_PRINCIPAL_L0: _check_rem_principal_l0,
    StatementId.LEM_PRIME_CCOND: _check_lem_prime_ccond,
    StatementId.THM5_I_II: _check_thm5_i_ii,
    StatementId.THM5_II_III_IV_I: _check_thm5_ii_iii_iv_i,
    StatementId.THM5_V_VI: _check_thm5_v_vi,
    StatementId.THM5_III_VI_VII_V: _check_thm5_iii_vi_vii_v,
    StatementId.LEM_JOINSEMI_LU: _check_lem_joinsemi_lu,
    StatementId.THM_SEP1: lambda ctx: _check_separation(ctx, "first"),
    StatementId.COR_SEP1_PRIME: lambda ctx: _check_separation(ctx, "prime"),
    StatementId.THM_SEP2: lambda ctx: _check_separation(ctx, "second"),
}


def _run_checker(ctx: _Context, sid: StatementId) -> TheoremCheckResult:
    met, note, ok, cex = _CHECKERS[sid](ctx)
    if met:
        return TheoremCheckResult(sid, True, ok, cex, detail=note)
    if ok is None:  # the conclusion was not evaluated; claim nothing about it
        probe = None
    elif ok:
        probe = "unguarded conclusion happens to hold"
    else:
        probe = "unguarded conclusion fails: " + ", ".join(f"{k}={v}" for k, v in cex.items())
    return TheoremCheckResult(sid, False, None, None, detail=note, probe=probe)


def check_statement(
    cp: ComplementedPoset,
    sid: StatementId | str,
    budget: int = DEFAULT_BUDGET,
) -> TheoremCheckResult:
    """Check one statement on one instance; ``budget`` caps the
    LEM_CL_PRINCIPAL downset walk only."""
    sid = StatementId(sid)
    return _run_checker(_Context(cp, budget), sid)


def run_all(
    cp: ComplementedPoset,
    budget: int = DEFAULT_BUDGET,
    analysis: Analysis | None = None,
    *,
    seed: int | None = None,
) -> list[TheoremCheckResult]:
    """Check every statement; output order and content are deterministic.

    ``analysis`` is a shared :class:`Analysis` of ``cp``; ``budget`` caps
    the LEM_CL_PRINCIPAL downset walk only.  ``seed`` is accepted and
    ignored, since no statement samples.  It stays only because
    ``perfbench/workloads.py`` passes ``CAMPAIGN_RUN_SEED``; it goes with
    that constant at the next change to the benchmark.
    """
    ctx = _Context(cp, budget, analysis)
    return [_run_checker(ctx, sid) for sid in StatementId]


# -- constructive separation procedures --------------------------------------


def separate_first(
    cp: ComplementedPoset,
    ideal_mask: int,
    filter_mask: int,
    prime_mode: bool = False,
    analysis: Analysis | None = None,
) -> SeparationResult:
    """Build the separating c-ideal J := F_0 once the hypotheses hold.

    Hypotheses are checked in order: antitone; x<=x'' for all x; the filter
    satisfies the c-condition (or is prime, in prime mode); disjointness.
    The first failure is reported without a witness.  Malformed inputs raise
    ``NotIdeal``/``NotFilter``.  ``analysis`` is a shared analysis of ``cp``.
    """
    p = cp.poset
    a = analysis or Analysis(p, cp)
    if not a.is_ideal(ideal_mask):
        raise NotIdeal(f"{p.format_set(ideal_mask)} is not an ideal")
    if not a.is_filter(filter_mask):
        raise NotFilter(f"{p.format_set(filter_mask)} is not a filter")

    def fail(reason: str) -> SeparationResult:
        return SeparationResult(ideal_mask, filter_mask, failure=reason)

    if not cp.props.antitone:
        return fail(FAIL_NOT_ANTITONE)
    if not cp.props.x_le_xdd:
        return fail(FAIL_X_LE_XDD)
    if prime_mode:
        if filter_mask not in a.prime_filter_set:
            return fail(FAIL_NOT_PRIME)
        if not cp.c_condition(filter_mask):  # guaranteed for prime filters
            raise PosetError("internal error: prime filter misses the c-condition")
    elif not cp.c_condition(filter_mask):
        return fail(FAIL_NO_CCOND)
    if ideal_mask & filter_mask:
        return fail(FAIL_NOT_DISJOINT)

    witness = cp.comp_preimage(filter_mask)
    if not _verify_separation_witness(ideal_mask, filter_mask, witness, a):
        raise PosetError("internal error: constructed witness failed verification")
    return SeparationResult(ideal_mask, filter_mask, witness=witness)


def separate_second(
    cp: ComplementedPoset,
    ideal_mask: int,
    filter_mask: int,
    analysis: Analysis | None = None,
) -> SeparationResult:
    """Separation via distributivity and an ultrafilter with enough meets.

    Checks, in order: the poset is distributive; the complementation is
    antitone; the filter is an ultrafilter; its least element g (every finite
    filter is principal) admits a meet with every element outside the filter;
    disjointness.  The construction then forces the filter to satisfy the
    c-condition and the complementation to be an involution; both are
    verified before delegating to :func:`separate_first`.
    """
    p = cp.poset
    a = analysis or Analysis(p, cp)
    if not a.is_ideal(ideal_mask):
        raise NotIdeal(f"{p.format_set(ideal_mask)} is not an ideal")
    if not a.is_filter(filter_mask):
        raise NotFilter(f"{p.format_set(filter_mask)} is not a filter")

    def fail(reason: str) -> SeparationResult:
        return SeparationResult(ideal_mask, filter_mask, failure=reason)

    if not a.distributivity.holds:
        return fail(FAIL_NOT_DISTRIBUTIVE)
    if not cp.props.antitone:
        return fail(FAIL_NOT_ANTITONE)
    if filter_mask not in a.ultrafilter_set:
        return fail(FAIL_NOT_ULTRA)
    g = p.least(filter_mask)
    if g is None:
        raise PosetError("internal error: finite filter without least element")
    for x in iter_bits(p.all_mask & ~filter_mask):
        if p.meet(x, g) is None:
            return fail(FAIL_MEET_MISSING)
    if ideal_mask & filter_mask:
        return fail(FAIL_NOT_DISJOINT)
    if not cp.c_condition(filter_mask):
        raise PosetError("internal error: qualifying ultrafilter misses the c-condition")
    if not cp.props.involution:
        raise PosetError("internal error: distributivity did not force an involution")
    delegated = separate_first(cp, ideal_mask, filter_mask, analysis=a)
    return SeparationResult(
        ideal_mask,
        filter_mask,
        witness=delegated.witness,
        detail=f"ultrafilter generated by {p.names[g]}",
    )


def separate(
    cp: ComplementedPoset,
    ideal_mask: int,
    filter_mask: int,
    mode: str,
) -> SeparationResult:
    """Dispatch by mode: ``first``, ``prime`` or ``second``."""
    if mode == "first":
        return separate_first(cp, ideal_mask, filter_mask)
    if mode == "prime":
        return separate_first(cp, ideal_mask, filter_mask, prime_mode=True)
    if mode == "second":
        return separate_second(cp, ideal_mask, filter_mask)
    raise PosetError(f"unknown separation mode {mode!r}")
