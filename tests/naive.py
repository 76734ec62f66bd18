"""Independent definitional oracle used to cross-check the library.

Everything here is deliberately naive: relations are sets of name pairs,
subsets are frozensets of names, and quantified definitions are evaluated
by explicit enumeration (all 2^n subsets where needed).  None of the
library's representations or search strategies are reused, so agreement
between the two paths is meaningful evidence.
"""

from itertools import chain, combinations


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


def all_subsets(elements):
    items = sorted(elements)
    return (
        frozenset(combo)
        for combo in chain.from_iterable(
            combinations(items, r) for r in range(len(items) + 1)
        )
    )


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
    return [s for s in all_subsets(elements) if is_ideal(elements, le, s)]


def filters(elements, le):
    return [s for s in all_subsets(elements) if is_filter(elements, le, s)]


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


def maximal_ideals(elements, le):
    universe = frozenset(elements)
    proper = [s for s in ideals(elements, le) if s != universe]
    return [s for s in proper if not any(s < t for t in proper)]


def ultrafilters(elements, le):
    universe = frozenset(elements)
    proper = [s for s in filters(elements, le) if s != universe]
    return [s for s in proper if not any(s < t for t in proper)]


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
    return all(len(s & {x, comp[x]}) == 1 for x in elements)


def boolean_elements(elements, comp):
    return frozenset(x for x in elements if comp[comp[x]] == x)


def triple_a0_counterexample(elements, comp):
    """First (subset, element) where a in A_0 and a'' in A_0 disagree, over
    all 2^n subsets A in bitmask order of ``elements``; None if none does.
    The subset is a tuple in ``elements`` order."""
    n = len(elements)
    for bits in range(1 << n):
        subset = tuple(elements[i] for i in range(n) if bits >> i & 1)
        pre = comp_preimage(elements, comp, frozenset(subset))
        for a in elements:
            if (a in pre) != (comp[comp[a]] in pre):
                return subset, a
    return None


def c_ideals(elements, le, comp):
    every_filter = filters(elements, le)
    return [
        s
        for s in ideals(elements, le)
        if any(comp_preimage(elements, comp, f) == s for f in every_filter)
    ]


def c_filters(elements, le, comp):
    every_ideal = ideals(elements, le)
    return [
        s
        for s in filters(elements, le)
        if any(comp_preimage(elements, comp, i) == s for i in every_ideal)
    ]


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
