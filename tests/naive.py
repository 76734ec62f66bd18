"""Independent definitional oracle used to cross-check the library.

Everything here is deliberately naive: relations are sets of name pairs,
subsets are frozensets of names, and quantified definitions are evaluated
by explicit enumeration (all 2^n subsets where needed).  None of the
library's representations or search strategies are reused, so agreement
between the two paths is meaningful evidence.  The module imports only the
standard library, nothing from ``cideals``; a test checks its imports.

``VERDICTS`` holds one verdict per statement of the catalog, all 19: the
hypotheses as stated and the first counterexample of the conclusion, as
the checker writes it.  The facts of an order that they read, the families
and their prime and maximal members, distributivity, the join flag and the
union cells, are built once per order by ``_order``.
"""

from functools import lru_cache, partial
from itertools import chain, combinations
from typing import NamedTuple


def closure(elements, pairs):
    """Reflexive-transitive closure as a set of (lower, upper) pairs."""
    le = {(x, x) for x in elements} | {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(le):
            for c, d in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    return le


def lower_cone(elements, le, subset):
    return frozenset(x for x in elements if all((x, y) in le for y in subset))


def upper_cone(elements, le, subset):
    return frozenset(x for x in elements if all((y, x) in le for y in subset))


def meet(elements, le, x, y):
    cone = lower_cone(elements, le, {x, y})
    for m in cone:
        if all((w, m) in le for w in cone):
            return m
    return None


def join(elements, le, x, y):
    cone = upper_cone(elements, le, {x, y})
    for m in cone:
        if all((m, w) in le for w in cone):
            return m
    return None


def generator(elements, le, s):
    """The g whose down-cone is ``s``, else the g whose up-cone is ``s``."""
    for cone in (lower_cone, upper_cone):
        g = next((g for g in s if cone(elements, le, {g}) == s), None)
        if g is not None:
            return g
    return None


def lu_union(elements, le, a, s):
    """The union of the cones L(U(a, m)) over the members m of ``s``."""
    return frozenset().union(*(lower_cone(elements, le, upper_cone(elements, le, {a, m})) for m in s))


def ul_union(elements, le, a, s):
    """The union of the cones U(L(a, m)) over the members m of ``s``."""
    return frozenset().union(*(upper_cone(elements, le, lower_cone(elements, le, {a, m})) for m in s))


def all_subsets(elements):
    items = sorted(elements)
    return (
        frozenset(combo)
        for combo in chain.from_iterable(
            combinations(items, r) for r in range(len(items) + 1)
        )
    )


def downsets(elements, le):
    """Every subset that holds each element below one of its members."""
    return [s for s in all_subsets(elements) if all(x in s for x, y in le if y in s)]


def is_ideal(elements, le, s):
    if not s:
        return False
    if any(not lower_cone(elements, le, {x}) <= s for x in s):
        return False
    return all(upper_cone(elements, le, {x, y}) & s for x in s for y in s)


def is_filter(elements, le, s):
    if not s:
        return False
    if any(not upper_cone(elements, le, {x}) <= s for x in s):
        return False
    return all(lower_cone(elements, le, {x, y}) & s for x in s for y in s)


def ideals(elements, le):
    """The subsets that pass :func:`is_ideal`, which only downsets can."""
    return [s for s in downsets(elements, le) if is_ideal(elements, le, s)]


def filters(elements, le):
    return [s for s in downsets(elements, {(y, x) for x, y in le}) if is_filter(elements, le, s)]


def is_prime_ideal(elements, le, s):
    if not is_ideal(elements, le, s) or s == frozenset(elements):
        return False
    return all(
        {x, y} & s
        for x in elements
        for y in elements
        if lower_cone(elements, le, {x, y}) <= s
    )


def is_prime_filter(elements, le, s):
    if not is_filter(elements, le, s) or s == frozenset(elements):
        return False
    return all(
        {x, y} & s
        for x in elements
        for y in elements
        if upper_cone(elements, le, {x, y}) <= s
    )


def maximal(family, universe):
    """The members of ``family`` other than ``universe`` that no other such
    member holds."""
    proper = [s for s in family if s != universe]
    return [s for s in proper if not any(s < t for t in proper)]


def maximal_ideals(elements, le):
    return maximal(ideals(elements, le), frozenset(elements))


def ultrafilters(elements, le):
    return maximal(filters(elements, le), frozenset(elements))


def is_distributive(elements, le):
    for x in elements:
        for y in elements:
            for z in elements:
                lhs = lower_cone(elements, le, upper_cone(elements, le, {x, y}) | {z})
                rhs = lower_cone(
                    elements,
                    le,
                    upper_cone(
                        elements,
                        le,
                        lower_cone(elements, le, {x, z}) | lower_cone(elements, le, {y, z}),
                    ),
                )
                if lhs != rhs:
                    return False, (x, y, z), lhs, rhs
    return True, None, None, None


def comp_image(comp, s):
    return frozenset(comp[x] for x in s)


def comp_preimage(elements, comp, s):
    return frozenset(x for x in elements if comp[x] in s)


def c_condition(elements, comp, s):
    return all((x in s) != (comp[x] in s) for x in elements)


def antitone(le, comp):
    """x <= y gives y' <= x'."""
    return all((comp[y], comp[x]) in le for x, y in le)


def boolean_elements(elements, comp):
    return frozenset(x for x in elements if comp[comp[x]] == x)


#: each family's partner: the filters for the ideals and the ideals for the filters
OTHER = {"ideal": "filter", "filter": "ideal"}


class _Order(NamedTuple):
    """The facts of one order that the statement verdicts read; each field
    but the last two maps "ideal" and "filter" to that side's value."""

    family: dict  # the members, in the checkers' family order
    prime: dict
    maximal: dict  # the maximal proper members
    unions: dict  # member s -> element a -> union of LU(a, m) (UL on filters) over m in s
    distributive: bool
    join_semilattice: bool


def order_facts(elements, le):
    return _order(tuple(elements), frozenset(le))


@lru_cache(maxsize=256)
def _order(elements, le):
    """The facts of the order given in immutable form, built once for all
    the complementations of one order that a caller sweeps, and kept for
    the next caller that reads the same order.  Each family is
    the members of the 2^n subsets, listed by size, then by the tuple of
    member positions in ``elements``."""
    universe, position = frozenset(elements), {x: i for i, x in enumerate(elements)}

    def key(s):
        return len(s), sorted(position[x] for x in s)

    facts = _Order({}, {}, {}, {}, is_distributive(elements, le)[0],
                   all(join(elements, le, x, y) is not None for x in elements for y in elements))
    for kind, every, is_prime, union in (
        ("ideal", ideals, is_prime_ideal, lu_union), ("filter", filters, is_prime_filter, ul_union)
    ):
        family = facts.family[kind] = sorted(every(elements, le), key=key)
        facts.prime[kind] = [s for s in family if is_prime(elements, le, s)]
        facts.maximal[kind] = maximal(family, universe)
        facts.unions[kind] = {s: {a: union(elements, le, a, s) for a in elements} for s in family}
    return facts


def c_ideals(elements, le, comp, kind="ideal"):
    """The ideals I with I = F_0 for some filter F, in family order; with
    ``kind`` "filter", the c-filters, dually."""
    facts = order_facts(elements, le)
    preimages = {comp_preimage(elements, comp, t) for t in facts.family[OTHER[kind]]}
    return [s for s in facts.family[kind] if s in preimages]


def c_filters(elements, le, comp):
    return c_ideals(elements, le, comp, "filter")


# -- one verdict per statement ---------------------------------------------------
# each takes (elements, le, comp) and returns (hypotheses met, the first
# counterexample of the unguarded conclusion as the checker writes it, or
# None): sets as braces with members in ``elements`` order, each family
# scanned in family order, and the two sides in the checker's order.


def braces(elements, s):
    return "{" + ",".join(x for x in elements if x in s) + "}"


def _involution(le, comp):
    return antitone(le, comp) and all(comp[comp[x]] == x for x in comp)


def lem_boolean(elements, le, comp):
    """An a with a'' != a such that every ideal holding a holds a''."""
    every_ideal = order_facts(elements, le).family["ideal"]
    met = antitone(le, comp) and all((x, comp[comp[x]]) in le for x in elements)
    for a in elements:
        add = comp[comp[a]]
        if add != a and all(add in s for s in every_ideal if a in s):
            return met, {"element": a, "double_complement": add}
    return met, None


def lem_cl_prime(elements, le, comp):
    """Per ideal I: I prime, P\\I a prime filter and P\\I a filter agree;
    then the complements of the prime ideals are the prime filters."""
    facts, universe = order_facts(elements, le), frozenset(elements)
    for s in facts.family["ideal"]:
        rest = universe - s
        found = (s in facts.prime["ideal"], rest in facts.prime["filter"], rest in facts.family["filter"])
        if len(set(found)) != 1:
            return True, {"ideal": braces(elements, s), "equivalences": "({},{},{})".format(*found)}
    image = {universe - s for s in facts.prime["ideal"]}
    if image != set(facts.prime["filter"]):
        return True, {
            "prime_ideal_complements": "+".join(sorted(braces(elements, s) for s in image)),
            "prime_filters": "+".join(sorted(braces(elements, s) for s in facts.prime["filter"])),
        }
    return True, None


def lem_cl_principal(elements, le, comp):
    """An ideal, then a filter, that is not the cone of an element: the
    families are every subset that passes the definition, so this assumes
    no principality."""
    family = order_facts(elements, le).family
    for kind, cone in (("ideal", lower_cone), ("filter", upper_cone)):
        cones = {cone(elements, le, {g}) for g in elements}
        for s in family[kind]:
            if s not in cones:
                return True, {f"non_principal_{kind}": braces(elements, s)}
    return True, None


def lem_proper_pair(elements, le, comp):
    """A proper ideal or filter holding some a and a'."""
    universe = frozenset(elements)
    for kind, family in order_facts(elements, le).family.items():
        for s in family:
            a = next((a for a in elements if a in s and comp[a] in s), None)
            if a is not None and s != universe:
                return True, {f"proper_{kind}": braces(elements, s), "element": a}
    return True, None


def prop_proper_equiv(elements, le, comp):
    """Per ideal or filter S: S proper, S_0 proper and S disjoint from S_0
    agree."""
    universe = frozenset(elements)
    for kind, family in order_facts(elements, le).family.items():
        for s in family:
            pre = comp_preimage(elements, comp, s)
            found = (s != universe, pre != universe, not s & pre)
            if len(set(found)) != 1:
                return True, {kind: braces(elements, s), "equivalences": "({},{},{})".format(*found)}
    return True, None


def lem_cideal_dd(elements, le, comp):
    """A c-ideal I with I'' outside I when x' <= x''' for all x, or a
    c-filter F with F'' outside F when x''' <= x'; unmet, both."""
    triple = [(comp[x], comp[comp[comp[x]]]) for x in elements]
    hyps = {"ideal": all(pair in le for pair in triple), "filter": all((y, x) in le for x, y in triple)}
    met = any(hyps.values())
    for kind, hyp in hyps.items():
        for s in c_ideals(elements, le, comp, kind) if hyp or not met else ():
            twice = comp_image(comp, comp_image(comp, s))
            if not twice <= s:
                return met, {f"c_{kind}": braces(elements, s), "double_image": braces(elements, twice)}
    return met, None


def lem_triple_a0(elements, le, comp):
    """Over all 2^n subsets A in bitmask order of ``elements``, an a where
    a in A_0 and a'' in A_0 disagree."""
    met = all(comp[comp[comp[x]]] == comp[x] for x in elements)
    n = len(elements)
    for bits in range(1 << n):
        subset = frozenset(elements[i] for i in range(n) if bits >> i & 1)
        pre = comp_preimage(elements, comp, subset)
        for a in elements:
            if (a in pre) != (comp[comp[a]] in pre):
                return met, {"subset": braces(elements, subset), "element": a}
    return met, None


def thm_f0_cideal(elements, le, comp):
    """Antitone with x <= x'': a filter F whose F_0 is no c-ideal; antitone
    with x'' <= x: an ideal I whose I_0 is no c-filter; unmet, both."""
    anti, twice = antitone(le, comp), [(x, comp[comp[x]]) for x in elements]
    hyps = {"filter": anti and all(pair in le for pair in twice),
            "ideal": anti and all((y, x) in le for x, y in twice)}
    met = any(hyps.values())
    for kind, hyp in hyps.items():
        c_family = c_ideals(elements, le, comp, OTHER[kind])
        for s in order_facts(elements, le).family[kind] if hyp or not met else ():
            pre = comp_preimage(elements, comp, s)
            if pre not in c_family:
                return met, {kind: braces(elements, s), "preimage": braces(elements, pre)}
    return met, None


def cor_involution(elements, le, comp):
    """Under an antitone involution: an ideal I, then a filter, with I_0 no
    filter, (I_0)_0 != I or I no c-ideal."""
    family = order_facts(elements, le).family
    for kind, other in OTHER.items():
        c_family = c_ideals(elements, le, comp, kind)
        for s in family[kind]:
            pre = comp_preimage(elements, comp, s)
            if pre not in family[other] or comp_preimage(elements, comp, pre) != s or s not in c_family:
                return _involution(le, comp), {kind: braces(elements, s), "preimage": braces(elements, pre)}
    return _involution(le, comp), None


def rem_principal_l0(elements, le, comp):
    """Under an antitone involution: an a with L(a)_0 != U(a') or
    U(a')_0 != L(a)."""
    for a in elements:
        down, up = lower_cone(elements, le, {a}), upper_cone(elements, le, {comp[a]})
        if comp_preimage(elements, comp, down) != up or comp_preimage(elements, comp, up) != down:
            return _involution(le, comp), {"element": a}
    return _involution(le, comp), None


def lem_prime_ccond(elements, le, comp):
    """A prime ideal or prime filter without the c-condition."""
    prime = order_facts(elements, le).prime
    for kind, family in prime.items():
        for s in family:
            if not c_condition(elements, comp, s):
                return any(prime.values()), {f"prime_{kind}": braces(elements, s)}
    return any(prime.values()), None


def thm5_maximal(kind, elements, le, comp):
    """THM5_I_II (ideals), THM5_V_VI (filters): a member with the
    c-condition that is not maximal."""
    facts = order_facts(elements, le)
    members = [s for s in facts.family[kind] if c_condition(elements, comp, s)]
    found = next((s for s in members if s not in facts.maximal[kind]), None)
    return bool(members), found and {kind: braces(elements, found)}


def thm5_ccond(kind, elements, le, comp):
    """THM5_II_III_IV_I (ideals), THM5_III_VI_VII_V (filters), on a
    distributive poset: a maximal member without the c-condition whose
    unions, with each a outside it, are all members."""
    facts = order_facts(elements, le)
    family = set(facts.family[kind])
    qualifying = [s for s in facts.maximal[kind]
                  if all(u in family for a, u in facts.unions[kind][s].items() if a not in s)]
    found = next((s for s in qualifying if not c_condition(elements, comp, s)), None)
    return facts.distributive and bool(qualifying), found and {kind: braces(elements, found)}


def lem_joinsemi_lu(elements, le, comp):
    """On a join-semilattice: an ideal I and an a whose union of LU(a, i)
    over i in I is no ideal."""
    facts = order_facts(elements, le)
    for s in facts.family["ideal"]:
        for a, union in facts.unions["ideal"][s].items():
            if union not in facts.family["ideal"]:
                return facts.join_semilattice, {"ideal": braces(elements, s), "element": a,
                                                "union": braces(elements, union)}
    return facts.join_semilattice, None


def separation_pairs(mode, elements, le, comp):
    """(the global hypotheses hold, the disjoint (ideal I, qualifying filter
    F) pairs, filters first, in family order) of the separation statement of
    ``mode``: THM_SEP1 ("first", antitone with x <= x'', F with the
    c-condition), COR_SEP1_PRIME ("prime", the same, F prime) or THM_SEP2
    ("second", distributive and antitone, F a maximal proper filter)."""
    facts = order_facts(elements, le)
    if mode == "second":
        hyps = facts.distributive and antitone(le, comp)
    else:
        hyps = antitone(le, comp) and all((x, comp[comp[x]]) in le for x in elements)
    qualifying = {
        "first": [f for f in facts.family["filter"] if c_condition(elements, comp, f)],
        "prime": facts.prime["filter"],
        "second": facts.maximal["filter"],
    }[mode]
    return hyps, [(i, f) for f in qualifying for i in facts.family["ideal"] if not i & f]


def separation(mode, elements, le, comp):
    """Met when the global hypotheses hold and some pair qualifies: the
    first pair whose F_0 is no ideal holding I and missing F."""
    hyps, pairs = separation_pairs(mode, elements, le, comp)
    met, ideals = hyps and bool(pairs), order_facts(elements, le).family["ideal"]
    for i, f in pairs:
        pre = comp_preimage(elements, comp, f)
        if pre not in ideals or not i <= pre or pre & f:
            return met, {"ideal": braces(elements, i), "filter": braces(elements, f), "candidate": braces(elements, pre)}
    return met, None


#: statement tag -> its verdict, in the catalog's order
VERDICTS = {
    "LEM_BOOLEAN": lem_boolean,
    "LEM_CL_PRIME": lem_cl_prime,
    "LEM_CL_PRINCIPAL": lem_cl_principal,
    "LEM_PROPER_PAIR": lem_proper_pair,
    "PROP_PROPER_EQUIV": prop_proper_equiv,
    "LEM_CIDEAL_DD": lem_cideal_dd,
    "LEM_TRIPLE_A0": lem_triple_a0,
    "THM_F0_CIDEAL": thm_f0_cideal,
    "COR_INVOLUTION": cor_involution,
    "REM_PRINCIPAL_L0": rem_principal_l0,
    "LEM_PRIME_CCOND": lem_prime_ccond,
    "THM5_I_II": partial(thm5_maximal, "ideal"),
    "THM5_II_III_IV_I": partial(thm5_ccond, "ideal"),
    "THM5_V_VI": partial(thm5_maximal, "filter"),
    "THM5_III_VI_VII_V": partial(thm5_ccond, "filter"),
    "LEM_JOINSEMI_LU": lem_joinsemi_lu,
    "THM_SEP1": partial(separation, "first"),
    "COR_SEP1_PRIME": partial(separation, "prime"),
    "THM_SEP2": partial(separation, "second"),
}


# -- independent transcription of the built-in diagrams ------------------------

FIGURES = {
    "fig1": {
        "elements": ["0", "a", "b", "c", "1"],
        "covers": [
            ("0", "a"), ("0", "b"), ("0", "c"),
            ("a", "1"), ("b", "1"), ("c", "1"),
        ],
        "comp": {"0": "1", "a": "b", "b": "c", "c": "b", "1": "0"},
    },
    "fig2a": {
        "elements": ["0", "a", "b", "c", "d", "e", "f", "g", "1"],
        "covers": [
            ("0", "a"), ("0", "b"), ("0", "f"), ("0", "g"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "e"), ("d", "e"),
            ("e", "1"), ("f", "1"), ("g", "1"),
        ],
        "comp": {
            "0": "1", "a": "f", "b": "f", "c": "f", "d": "f",
            "e": "f", "f": "e", "g": "c", "1": "0",
        },
    },
    "fig2b": {
        "elements": ["0", "a", "b", "c", "d", "e", "f", "1"],
        "covers": [
            ("0", "a"), ("0", "b"), ("0", "f"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "e"), ("d", "e"),
            ("e", "1"), ("f", "1"),
        ],
        "comp": {
            "0": "1", "a": "f", "b": "f", "c": "f", "d": "f",
            "e": "f", "f": "e", "1": "0",
        },
    },
    "fig3": {
        "elements": ["0", "a", "b", "c", "d", "d'", "c'", "b'", "a'", "1"],
        "covers": [
            ("0", "a"), ("0", "b"), ("0", "c"), ("0", "d"),
            ("a", "d'"), ("a", "c'"), ("a", "b'"),
            ("b", "d'"), ("b", "a'"),
            ("c", "d'"), ("c", "a'"),
            ("d", "c'"), ("d", "b'"), ("d", "a'"),
            ("d'", "1"), ("c'", "1"), ("b'", "1"), ("a'", "1"),
        ],
        "comp": {
            "0": "1", "1": "0",
            "a": "a'", "a'": "a", "b": "b'", "b'": "b",
            "c": "c'", "c'": "c", "d": "d'", "d'": "d",
        },
    },
    "fig4": {
        "elements": ["0", "a", "b", "c", "d", "e", "e'", "d'", "c'", "b'", "a'", "1"],
        "covers": [
            ("0", "a"), ("0", "b"), ("0", "c"), ("0", "d"),
            ("a", "e"), ("b", "e"), ("c", "e'"), ("d", "e'"),
            ("a", "b'"), ("b", "a'"), ("c", "d'"), ("d", "c'"),
            ("e", "d'"), ("e", "c'"), ("e'", "b'"), ("e'", "a'"),
            ("d'", "1"), ("c'", "1"), ("b'", "1"), ("a'", "1"),
        ],
        "comp": {
            "0": "1", "1": "0",
            "a": "a'", "a'": "a", "b": "b'", "b'": "b",
            "c": "c'", "c'": "c", "d": "d'", "d'": "d",
            "e": "e'", "e'": "e",
        },
    },
}


def figure(name):
    """(elements, closed le relation, comp dict) for one transcription."""
    fig = FIGURES[name]
    return fig["elements"], closure(fig["elements"], fig["covers"]), fig["comp"]
