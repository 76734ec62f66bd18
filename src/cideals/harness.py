"""Mechanical verification of the statement catalog on one complemented poset.

Every statement is checked from first principles: hypotheses are evaluated
exactly as stated, conclusions by exhaustive evaluation of the definitions,
never by replaying a proof.  A statement whose hypotheses fail reports
``hypotheses_met=False`` with the conclusion left undecided, so reports
distinguish "verified" from "not applicable"; a probe note records whether
the unguarded conclusion would have held anyway, which shows when the
hypotheses are doing real work.  Each checker returns only a note (empty
when the hypotheses hold) and its first counterexample, or None; one
function, ``_run_checker``, turns that pair into every result.

The catalog is one table, ``_CATALOG``, with one (tag, checker,
description) row per statement in report order; :data:`StatementId`,
``DESCRIPTIONS`` and the checker table are all built from it, so a new
statement is one new row.

Every filter fact is the ideal fact of the order dual: the filters of P are
the ideals of P^d, and ``cp.dual()`` keeps the complement map.  So each
statement about both families runs one loop over the two sides, ``cp`` for
ideals and ``cp.dual()`` for filters, and the filter halves of Theorem 5 are
its ideal checkers run on the dual side.  LEM_CL_PRINCIPAL reads neither
family, since both assume it: each side's verdict is kept on its order
facts, the definition-level ideal test run on a complete witness family of
O(n^2) downsets, so every instance is decided exactly.

The separation theorems are also exposed as one constructive procedure,
:func:`separate`, with a mode per theorem.  Each mode's hypotheses are
written once, in check order, in a table that the procedure and the
statement checker both read: the procedure reports the first one that
fails, and the checker notes each failed global hypothesis and quantifies
over the pairs that pass the rest.  The witness ideal is the
complement-preimage of the filter, re-verified before it is returned: an
ideal by the cone table, holding the ideal and missing the filter.  Every
hypothesis and the witness depend on the filter alone, so the checker runs
the procedure once per qualifying filter and checks the witness against
each further disjoint ideal with one mask test.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from itertools import starmap

from .complement import ComplementedPoset
from .errors import NotFilter, NotIdeal, PosetError
from .poset import record
from .substructures import OrderFacts, is_filter


class _StatementTag(str, enum.Enum):
    """Base of :data:`StatementId`, whose members are built from ``_CATALOG``:
    a tag whose ``str`` is its value."""

    def __str__(self) -> str:
        return self.value


@record
class TheoremCheckResult:
    """Outcome of one statement check.

    ``conclusion_holds`` is absent when hypotheses are unmet; a present
    counterexample implies ``conclusion_holds=False``.  ``probe`` carries the
    hypothesis-minimality note (what the unguarded conclusion would do) and
    is informational only; every result with unmet hypotheses carries one.
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
FAIL_NOT_DISTRIBUTIVE = "NotDistributive"


@record
class SeparationResult:
    """Witness c-ideal of a separation run, or the first failed hypothesis."""

    ideal_in: int
    filter_in: int
    witness: int | None = None
    failure: str | None = None
    detail: str = ""


@dataclass
class _Context:
    """What the checkers share for one instance: the facts of its order and
    its two sides, ``sides``, which maps a family name to the complemented
    poset whose ideals that family is: the filters of ``cp`` are the ideals
    of ``cp.dual()``."""

    cp: ComplementedPoset

    def __post_init__(self):
        self.order = self.cp.poset.facts
        self.sides = {"ideal": self.cp, "filter": self.cp.dual()}


# -- individual checkers ----------------------------------------------------
# each returns (note, counterexample): an empty note means the hypotheses
# hold, otherwise it says which fail; a counterexample of None means the
# conclusion holds, guarded when the hypotheses hold and unguarded (the
# probe) when they do not.  Each returns at its first counterexample.


def _check_lem_boolean(ctx: _Context):
    """a is forced when every ideal holding a holds a''.  The ideals holding
    a are the cones ``down[g]`` with g in ``up[a]``, and ``down[g]`` holds
    a'' exactly when g lies in ``up[a'']``.  So a is forced when ``up[a]``
    lies inside ``up[a'']``: one mask test per element, O(n) in all."""
    cp, p = ctx.cp, ctx.cp.poset
    met = cp.props.antitone and cp.props.x_le_xdd
    note = "" if met else "needs an antitone complementation with x<=x'' for all x"
    up = p.up
    for a in range(p.n):
        add = cp.comp[cp.comp[a]]
        if not up[a] & ~up[add] and add != a:
            return note, {"element": p.names[a], "double_complement": p.names[add]}
    return note, None


def _check_lem_cl_prime(ctx: _Context):
    """Every filter is an up-cone (LEM_CL_PRINCIPAL), so P\\I is a prime
    filter exactly when it is a prime ideal of the dual."""
    p, a, f = ctx.cp.poset, ctx.order, ctx.sides["filter"].poset.facts
    for i in a.ideals:
        rest = p.all_mask & ~i
        facts = (i in a.prime_ideals, rest in f.prime_ideals, is_filter(p, rest))
        if len(set(facts)) != 1:
            return "", {"ideal": p.format_set(i), "equivalences": f"({facts[0]},{facts[1]},{facts[2]})"}
    image = {p.all_mask & ~i for i in a.prime_ideals}
    if image != set(f.prime_ideals):
        return "", {
            "prime_ideal_complements": "+".join(sorted(p.format_set(m) for m in image)),
            "prime_filters": "+".join(sorted(p.format_set(m) for m in f.prime_ideals)),
        }
    return "", None


def _check_lem_cl_principal(ctx: _Context):
    """Reads the verdict kept on each side's order facts, not the cone
    families, which assume the result; the filter side reads the dual's,
    and only when the ideal side holds."""
    for kind, side in ctx.sides.items():
        q = side.poset
        found = q.facts.principal_walk
        if found is not None:
            return "", {f"non_principal_{kind}": q.format_set(found)}
    return "", None


def _check_lem_proper_pair(ctx: _Context):
    """The members a of s with a' in s are ``s & s_0``, and s_0 is a read
    of the cone table; the first such a is its lowest bit.  No a with
    a' = a is skipped, since none lies in a proper set: the join and the
    meet of a and a' would both be a, so a would be the top and the bottom,
    and n = 1, where no ideal or filter is proper.  Cost: one preimage read
    and one mask test per family member, O(n) in all."""
    cp, p = ctx.cp, ctx.cp.poset
    for kind, side in ctx.sides.items():
        for s in side.poset.facts.ideals:
            both = s & cp.comp_preimage(s) if s != p.all_mask else 0  # proper members only
            if both:
                a = (both & -both).bit_length() - 1
                return "", {f"proper_{kind}": p.format_set(s), "element": p.names[a]}
    return "", None


def _check_prop_proper_equiv(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    for kind, side in ctx.sides.items():
        for s in side.poset.facts.ideals:
            pre = cp.comp_preimage(s)
            facts = (s != p.all_mask, pre != p.all_mask, not s & pre)
            if len(set(facts)) != 1:
                return "", {kind: p.format_set(s), "equivalences": f"({facts[0]},{facts[1]},{facts[2]})"}
    return "", None


def _check_lem_cideal_dd(ctx: _Context):
    """x'<=x''' read on the dual order is x'''<=x', the filter side's
    hypothesis."""
    cp, p, c, sides = ctx.cp, ctx.cp.poset, ctx.cp.comp, ctx.sides
    pairs = [(c[x], c[c[c[x]]]) for x in range(p.n)]
    hyps = {kind: all(starmap(side.poset.le, pairs)) for kind, side in sides.items()}
    met = any(hyps.values())
    note = "" if met else "needs x'<=x''' for all x (or the dual x'''<=x')"
    # unmet, both sides are probed
    for kind, side in sides.items():
        for s in side.facts.c_ideals if hyps[kind] or not met else ():
            # I'' lies inside I exactly when I lies inside (I_0)_0 = {x | x'' in I}
            if s & ~cp.comp_preimage(cp.comp_preimage(s)):
                img2 = cp.comp_image(cp.comp_image(s))
                return note, {f"c_{kind}": p.format_set(s), "double_image": p.format_set(img2)}
    return note, None


def _check_lem_triple_a0(ctx: _Context):
    """Exact over all 2^n subsets A: a in A_0 iff a' in A, and a'' in A_0 iff
    a''' in A, so some A fails exactly when a' != a''' for some a, and then
    {a'} fails.  A failing A holds one of a', a''' without the other, whose
    singleton is no larger a mask: the first failing singleton is the first
    failing subset in mask order.

    The singleton {k} fails at a exactly when a' != a''' and k is one of
    the two.  So the first k is the least a' or a''' over the failing a,
    and its first a is the least failing a that has k as its a' or a''':
    the pair a scan over k, then a, meets first.  Cost: O(n)."""
    cp, p, c = ctx.cp, ctx.cp.poset, ctx.cp.comp
    note = "" if cp.props.triple_identity else "needs the identity x''' = x'"
    failing = [(a, c[a], c[c[c[a]]]) for a in range(p.n) if c[a] != c[c[c[a]]]]
    if failing:
        k = min(min(ca, caaa) for _, ca, caaa in failing)
        a = next(a for a, ca, caaa in failing if k in (ca, caaa))
        return note, {"subset": p.format_set(1 << k), "element": p.names[a]}
    return note, None


def _check_thm_f0_cideal(ctx: _Context):
    """On each side, F_0 is a c-ideal for every filter F, the members of the
    other side's family; on the dual side that reads "I_0 is a c-filter for
    every ideal I", and its x<=x'' flag is the original's x''<=x."""
    cp, p = ctx.cp, ctx.cp.poset
    sides = list(ctx.sides.items())
    hyps = [side.props.antitone and side.props.x_le_xdd for _, side in sides]
    met = any(hyps)
    note = "" if met else "needs antitone with x<=x'' (or the dual x''<=x)"
    for (_, side), (kind, other), hyp in zip(sides, reversed(sides), hyps):
        witnesses = side.facts.c_ideal_witnesses
        for s in other.poset.facts.ideals if hyp or not met else ():
            pre = cp.comp_preimage(s)
            if pre not in witnesses:
                return note, {kind: p.format_set(s), "preimage": p.format_set(pre)}
    return note, None


def _check_cor_involution(ctx: _Context):
    """I_0 is a filter exactly when it is a key of the other side's witness
    map, whose keys are the preimages of the ideals that are filters
    (dually for filters)."""
    cp, p = ctx.cp, ctx.cp.poset
    note = "" if cp.props.antitone and cp.props.involution else "needs an antitone involution"
    sides = list(ctx.sides.items())
    for (kind, side), (_, other) in zip(sides, reversed(sides)):
        witnesses, other_witnesses = side.facts.c_ideal_witnesses, other.facts.c_ideal_witnesses
        for s in side.poset.facts.ideals:
            pre = cp.comp_preimage(s)
            if pre not in other_witnesses or cp.comp_preimage(pre) != s or s not in witnesses:
                return note, {kind: p.format_set(s), "preimage": p.format_set(pre)}
    return note, None


def _check_rem_principal_l0(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    note = "" if cp.props.antitone and cp.props.involution else "needs an antitone involution"
    for a in range(p.n):
        ca = cp.comp[a]
        if cp.comp_preimage(p.down[a]) != p.up[ca] or cp.comp_preimage(p.up[ca]) != p.down[a]:
            return note, {"element": p.names[a]}
    return note, None


def _check_lem_prime_ccond(ctx: _Context):
    cp, p = ctx.cp, ctx.cp.poset
    primes = {kind: side.poset.facts.prime_ideals for kind, side in ctx.sides.items()}
    note = "" if any(primes.values()) else "no prime ideals and no prime filters on this instance"
    for kind, family in primes.items():
        for s in family:
            if not cp.c_condition(s):
                return note, {f"prime_{kind}": p.format_set(s)}
    return note, None


def _check_thm5_maximal(ctx: _Context, kind: str):
    """THM5_I_II (ideals), THM5_V_VI (filters): a member of the family with
    the c-condition is maximal."""
    cf = ctx.sides[kind].facts
    note = "" if cf.ccond_ideals else f"no {kind} satisfies the c-condition"
    for s in cf.ccond_ideals:
        if s not in cf.order.maximal_ideals:
            return note, {kind: ctx.cp.poset.format_set(s)}
    return note, None


def _union_condition(facts: OrderFacts, mask: int) -> bool:
    """Is every LU-union over the ideal, for x outside it, an ideal?  Every
    ideal is a principal down[g], and the union of LU(x,i) over i <= g is
    the one cell lu[x][g]: U(x,g) lies inside U(x,i), so LU(x,i) lies
    inside LU(x,g), which is one of the cones.  So the row
    ``union_rows[g]``, which LEM_JOINSEMI_LU reads too, must hold every x
    outside the ideal.  On the dual's facts it asks the same of the
    UL-unions over a filter."""
    return facts.union_rows[facts.down_generator[mask]] | mask == facts.poset.all_mask


#: the maximal members THM5_II_III_IV_I and THM5_III_VI_VII_V quantify over
_THM5_QUALIFYING = {
    "ideal": "maximal ideal with all LU-unions ideals",
    "filter": "ultrafilter with all UL-unions filters",
}


def _check_thm5_ccond(ctx: _Context, kind: str):
    """THM5_II_III_IV_I (ideals), THM5_III_VI_VII_V (filters): on a
    distributive poset, a maximal member whose unions all stay in the family
    satisfies the c-condition."""
    cp, p = ctx.cp, ctx.cp.poset
    o = ctx.sides[kind].poset.facts
    qualifying = [s for s in o.maximal_ideals if _union_condition(o, s)]
    # the identity and its dual are equivalent globally, so the instance's
    # own distributivity report answers for both sides
    if not ctx.order.distributivity.holds:
        note = "poset is not distributive"
    else:
        note = "" if qualifying else f"no {_THM5_QUALIFYING[kind]}"
    for s in qualifying:
        if not cp.c_condition(s):
            return note, {kind: p.format_set(s)}
    return note, None


def _check_lem_joinsemi_lu(ctx: _Context):
    p, an = ctx.cp.poset, ctx.order
    note = "" if an.semilattice_flags[0] else "poset is not a join-semilattice"
    for i in an.ideals:
        g = an.down_generator[i]
        missing = p.all_mask & ~an.union_rows[g]
        if missing:  # its lowest bit is the first a whose union is no ideal
            a = (missing & -missing).bit_length() - 1
            return note, {"ideal": p.format_set(i), "element": p.names[a], "union": p.format_set(p.lu[a][g])}
    return note, None


@record
class _Hypotheses:
    """The hypotheses of one separation mode, in the order they are checked.

    ``global_checks`` holds (failure code, checker note, holds(cp)) triples
    and ``filter_checks`` (failure code, holds(cp, dual, filter_mask))
    pairs, where ``dual`` is ``cp.dual()``, the side that holds the filter
    facts, bound once by the caller.  ``implied`` holds (message, holds(cp,
    dual, filter_mask)) pairs, the guarantees: the checks before them imply
    them, so the procedure raises an internal error with the message of the
    first one that fails, and the checker does not read them.  Disjointness
    of the ideal and the filter is checked last.  ``no_pair`` is the
    checker's note when no disjoint (ideal, filter) pair passes the
    per-filter checks; ``detail``, if set, describes a success from the same
    arguments.
    """

    global_checks: tuple
    filter_checks: tuple
    no_pair: str
    implied: tuple = ()
    detail: Callable[[ComplementedPoset, ComplementedPoset, int], str] | None = None


_ANTITONE = (FAIL_NOT_ANTITONE, "complementation is not antitone", lambda cp: cp.props.antitone)
_X_LE_XDD = (FAIL_X_LE_XDD, "x<=x'' fails", lambda cp: cp.props.x_le_xdd)

#: the separation modes: THM_SEP1, COR_SEP1_PRIME and THM_SEP2
_MODES = {
    "first": _Hypotheses(
        (_ANTITONE, _X_LE_XDD),
        ((FAIL_NO_CCOND, lambda cp, d, f: d.c_condition(f)),),
        "no disjoint (ideal, filter) pair with the filter satisfying the c-condition",
    ),
    "prime": _Hypotheses(
        (_ANTITONE, _X_LE_XDD),
        ((FAIL_NOT_PRIME, lambda cp, d, f: f in d.poset.facts.prime_ideals),),
        "no disjoint (ideal, prime filter) pair",
        (("prime filter misses the c-condition", lambda cp, d, f: d.c_condition(f)),),
    ),
    # the construction is THM_SEP1's: distributivity and an ultrafilter
    # force the c-condition and an involution, hence x<=x''.  An ultrafilter
    # of a bounded poset is U(a) for an atom a, and a meets every element
    # outside U(a) in the bottom, so the meets the theorem asks for exist
    "second": _Hypotheses(
        (
            (FAIL_NOT_DISTRIBUTIVE, "poset is not distributive", lambda cp: cp.poset.facts.distributivity.holds),
            _ANTITONE,
        ),
        ((FAIL_NOT_ULTRA, lambda cp, d, f: f in d.poset.facts.maximal_ideals),),
        "no disjoint (ideal, qualifying ultrafilter) pair",
        (
            ("finite filter without least element", lambda cp, d, f: cp.poset.least(f) is not None),
            ("ultrafilter not generated by an atom",
             lambda cp, d, f: cp.poset.down[d.poset.facts.down_generator[f]].bit_count() == 2),
            ("qualifying ultrafilter misses the c-condition", lambda cp, d, f: d.c_condition(f)),
            ("distributivity did not force an involution", lambda cp, d, f: cp.props.involution),
            ("an involution without x<=x''", lambda cp, d, f: cp.props.x_le_xdd),
        ),
        lambda cp, d, f: f"ultrafilter generated by {cp.poset.names[d.poset.facts.down_generator[f]]}",
    ),
}

#: the names of the separation modes, in table order
SEPARATION_MODES = tuple(_MODES)


def _verify_separation_witness(
    cp: ComplementedPoset, ideal_mask: int, filter_mask: int, witness: int
) -> bool:
    """Re-check, independent of the construction path: the witness map's
    keys are the preimages that are ideals, read off the cone table."""
    return (
        witness in cp.facts.c_ideal_witnesses
        and not ideal_mask & ~witness
        and not witness & filter_mask
    )


def _check_separation(ctx: _Context, mode: str):
    """Met when every global hypothesis holds and some disjoint pair passes
    the per-filter checks.  Each such filter F, with its disjoint ideals in
    family order, is evaluated once: all that :func:`separate` checks but
    disjointness, and its witness J := F_0, depend on F alone.  So met, F
    goes through :func:`separate` once, with its first disjoint ideal, and
    J is re-checked against each disjoint ideal; a pair that fails raises
    the internal error :func:`separate` would raise on it.  Unmet, each
    filter's candidate F_0 is probed against each of its disjoint ideals."""
    cp, p, o, dual = ctx.cp, ctx.cp.poset, ctx.order, ctx.sides["filter"]
    hyps = _MODES[mode]
    notes = [note for _code, note, holds in hyps.global_checks if not holds(cp)]
    qualifying = dual.poset.facts.ideals
    for _code, holds in hyps.filter_checks:
        qualifying = [f for f in qualifying if holds(cp, dual, f)]
    groups = [(f, ideals) for f in qualifying if (ideals := [i for i in o.ideals if not i & f])]
    if not groups:
        notes.append(hyps.no_pair)
    note = "; ".join(notes)
    for f, ideals in groups:
        witness = cp.comp_preimage(f) if note else separate(cp, ideals[0], f, mode).witness
        for i in ideals:
            if not _verify_separation_witness(cp, i, f, witness):
                if not note:
                    raise PosetError("internal error: constructed witness failed verification")
                return note, {
                    "ideal": p.format_set(i),
                    "filter": p.format_set(f),
                    "candidate": p.format_set(witness),
                }
    return note, None


#: the statement catalog, one (tag, checker, description) row per statement,
#: in report order
_CATALOG = (
    ("LEM_BOOLEAN", _check_lem_boolean,
     "if ' is antitone with x<=x'' everywhere, an element whose every ideal-membership forces in its double complement is Boolean"),
    ("LEM_CL_PRIME", _check_lem_cl_prime,
     "I is a prime ideal iff P\\I is a filter iff P\\I is a prime filter; complementation of sets is a bijection between prime ideals and prime filters"),
    ("LEM_CL_PRINCIPAL", _check_lem_cl_principal,
     "on a finite poset every ideal and every filter is principal"),
    ("LEM_PROPER_PAIR", _check_lem_proper_pair,
     "a proper ideal never contains both an element and its complement"),
    ("PROP_PROPER_EQUIV", _check_prop_proper_equiv,
     "I proper iff I_0 != P iff I and I_0 are disjoint (dually for filters)"),
    ("LEM_CIDEAL_DD", _check_lem_cideal_dd,
     "x'<=x''' everywhere forces I''<=I for c-ideals; x'''<=x' dually for c-filters"),
    ("LEM_TRIPLE_A0", _check_lem_triple_a0,
     "under x'''=x', membership of a in A_0 is equivalent to membership of a''"),
    ("THM_F0_CIDEAL", _check_thm_f0_cideal,
     "antitone with x<=x'': F_0 is a c-ideal for every filter F; antitone with x''<=x: I_0 is a c-filter for every ideal I"),
    ("COR_INVOLUTION", _check_cor_involution,
     "under an antitone involution, I_0 is a filter with (I_0)_0 = I, so every ideal is a c-ideal (dually for filters)"),
    ("REM_PRINCIPAL_L0", _check_rem_principal_l0,
     "under an antitone involution, L(a)_0 = U(a') and L(a) = U(a')_0"),
    ("LEM_PRIME_CCOND", _check_lem_prime_ccond,
     "every prime ideal and every prime filter satisfies the c-condition"),
    ("THM5_I_II", lambda ctx: _check_thm5_maximal(ctx, "ideal"),
     "an ideal satisfying the c-condition is maximal"),
    ("THM5_II_III_IV_I", lambda ctx: _check_thm5_ccond(ctx, "ideal"),
     "on a distributive poset, a maximal ideal whose LU-unions are ideals satisfies the c-condition"),
    ("THM5_V_VI", lambda ctx: _check_thm5_maximal(ctx, "filter"),
     "a filter satisfying the c-condition is an ultrafilter"),
    ("THM5_III_VI_VII_V", lambda ctx: _check_thm5_ccond(ctx, "filter"),
     "on a distributive poset, an ultrafilter whose UL-unions are filters satisfies the c-condition"),
    ("LEM_JOINSEMI_LU", _check_lem_joinsemi_lu,
     "on a join-semilattice, the union of LU(a,i) over an ideal is always an ideal"),
    ("THM_SEP1", lambda ctx: _check_separation(ctx, "first"),
     "antitone, x<=x'', F with the c-condition disjoint from I: J := F_0 is a c-ideal separating them"),
    ("COR_SEP1_PRIME", lambda ctx: _check_separation(ctx, "prime"),
     "antitone, x<=x'', F a prime filter disjoint from I: a separating c-ideal exists"),
    ("THM_SEP2", lambda ctx: _check_separation(ctx, "second"),
     "distributive, antitone, F a principal ultrafilter with all meets against its generator: a separating c-ideal exists"),
)

#: identifiers of the checkable statements, in fixed report order
StatementId = _StatementTag(
    "StatementId", [(tag, tag) for tag, _, _ in _CATALOG], module=__name__, qualname="StatementId"
)
DESCRIPTIONS: dict[StatementId, str] = {StatementId(tag): text for tag, _, text in _CATALOG}
_CHECKERS = {StatementId(tag): check for tag, check, _ in _CATALOG}
#: tag -> member, so that a query reads its tag with one lookup, not an Enum call
_BY_TAG = {sid.value: sid for sid in StatementId}


def _run_checker(ctx: _Context, sid: StatementId, check) -> TheoremCheckResult:
    """The one place a result is built, from ``check``, the checker of
    ``sid``: met, with the verdict, or unmet, with the probe."""
    note, cex = check(ctx)
    if not note:
        return TheoremCheckResult(sid, True, cex is None, cex)
    if cex is None:
        probe = "unguarded conclusion happens to hold"
    else:
        probe = "unguarded conclusion fails: " + ", ".join(f"{k}={v}" for k, v in cex.items())
    return TheoremCheckResult(sid, False, None, detail=note, probe=probe)


def check_statement(cp: ComplementedPoset, sid: StatementId | str) -> TheoremCheckResult:
    """Check one statement on one instance.  A tag that names no statement
    raises the ValueError of ``StatementId(sid)``."""
    sid = _BY_TAG[sid] if isinstance(sid, str) and sid in _BY_TAG else StatementId(sid)
    return _run_checker(_Context(cp), sid, _CHECKERS[sid])


def run_all(cp: ComplementedPoset, *, seed: int | None = None) -> list[TheoremCheckResult]:
    """Check every statement; output order and content are deterministic.

    ``seed`` is accepted and ignored, since no statement samples.  It stays
    only because ``perfbench/workloads.py`` passes ``CAMPAIGN_RUN_SEED``; it
    goes with that constant at the next change to the benchmark.

    The checkers are read from the live ``_CHECKERS`` table, in report
    order, on every call, so an entry replaced after import runs.
    """
    ctx = _Context(cp)
    return [_run_checker(ctx, sid, check) for sid, check in _CHECKERS.items()]


# -- constructive separation procedures --------------------------------------


def _check_inputs(cp: ComplementedPoset, dual: ComplementedPoset, ideal_mask: int, filter_mask: int) -> None:
    """Raise NotIdeal/NotFilter on malformed inputs.  A finite ideal has a
    greatest element, so the ideals of ``cp`` are exactly its principal
    cones, the keys of ``down_generator``, and the filters are those of
    ``dual``, ``cp.dual()``.  A mask outside the universe raises PosetError
    when the message formats it."""
    p = cp.poset
    if ideal_mask not in p.facts.down_generator:
        raise NotIdeal(f"{p.format_set(ideal_mask)} is not an ideal")
    if filter_mask not in dual.poset.facts.down_generator:
        raise NotFilter(f"{p.format_set(filter_mask)} is not a filter")


def separate(
    cp: ComplementedPoset,
    ideal_mask: int,
    filter_mask: int,
    mode: str,
) -> SeparationResult:
    """Build the separating c-ideal J := F_0 once the hypotheses of ``mode``
    (``first``, ``prime`` or ``second``) hold.

    The hypotheses are checked in order.  ``first``: the complementation is
    antitone; x<=x'' for all x; the filter satisfies the c-condition.
    ``prime``: the same, with the filter prime instead.  ``second``: the
    poset is distributive; the complementation is antitone; the filter is an
    ultrafilter.  The theorem's last hypothesis, that the filter's least
    element g has a meet with every element outside the filter, always
    holds: g is an atom, so that meet is the bottom.  Every mode then checks
    that the ideal and filter are disjoint.  The first failure is reported
    without a witness.  What the hypotheses imply is asserted: a prime
    filter, and in ``second`` the ultrafilter, satisfies the c-condition,
    the ultrafilter's generator is an atom, and ``second`` forces an
    involution.  The witness is re-verified before it is returned: an ideal
    by the cone table, holding the ideal and missing the filter.  Malformed
    inputs raise ``NotIdeal``/``NotFilter``.
    """
    hyps = _MODES.get(mode)
    if hyps is None:
        raise PosetError(f"unknown separation mode {mode!r}")
    dual = cp.dual()
    _check_inputs(cp, dual, ideal_mask, filter_mask)
    for code, _note, holds in hyps.global_checks:
        if not holds(cp):
            return SeparationResult(ideal_mask, filter_mask, failure=code)
    for code, holds in hyps.filter_checks:
        if not holds(cp, dual, filter_mask):
            return SeparationResult(ideal_mask, filter_mask, failure=code)
    for message, holds in hyps.implied:
        if not holds(cp, dual, filter_mask):
            raise PosetError(f"internal error: {message}")
    if ideal_mask & filter_mask:
        return SeparationResult(ideal_mask, filter_mask, failure=FAIL_NOT_DISJOINT)
    witness = cp.comp_preimage(filter_mask)
    if not _verify_separation_witness(cp, ideal_mask, filter_mask, witness):
        raise PosetError("internal error: constructed witness failed verification")
    detail = hyps.detail(cp, dual, filter_mask) if hyps.detail else ""
    return SeparationResult(ideal_mask, filter_mask, witness=witness, detail=detail)


def separate_first(cp: ComplementedPoset, ideal_mask: int, filter_mask: int) -> SeparationResult:
    """:func:`separate` in mode ``first``."""
    return separate(cp, ideal_mask, filter_mask, "first")


def separate_second(cp: ComplementedPoset, ideal_mask: int, filter_mask: int) -> SeparationResult:
    """:func:`separate` in mode ``second``."""
    return separate(cp, ideal_mask, filter_mask, "second")
