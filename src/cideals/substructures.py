"""Ideals, filters, and their classification on finite (complemented) posets.

An ideal is a nonempty, downward-closed set in which every pair of members
has an upper bound inside the set; a filter is the dual.  The empty set is
neither.  On a finite poset every ideal and every filter is principal, so
the families are read off the principal cones: the n sets ``down[i]`` are
the ideals and the n sets ``up[i]`` the filters.

Each fact lives on the immutable object it describes.  :class:`OrderFacts`,
read as ``Poset.facts``, holds the ideal family and every flag of its
members that the order alone fixes, and answers each ideal test once per
distinct mask.  :class:`ComplementFacts`, read as ``ComplementedPoset.facts``,
holds the c-ideals and the c-condition; one poset can carry many
complementations, and they all share its order facts.  Both hold the ideal
side only: the filters of P are the ideals of its order dual, so each filter
fact is the ideal fact of ``p.dual().facts`` or ``cp.dual().facts``, read
from the duals the objects keep.  The filter-side functions are written the
same way: each of ``is_filter``, ``enumerate_filters``, ``is_prime_filter``,
``is_ultrafilter``, ``find_c_filter_witness`` and ``ul_union`` is one call
to its ideal twin on ``p.dual()`` or ``cp.dual()``, and
``principal_generator`` runs one greatest-element test on both.

That principality is itself a checked statement (LEM_CL_PRINCIPAL).  Its
oracle, :func:`directed_downsets`, does not assume it: it walks every
downward closed subset, up to the fixed cap ``DEFAULT_BUDGET``, and keeps
the directed ones: a walked set is directed exactly when it lies inside
the cone of its last element in the walk's linear extension.  The verdict
depends on the order alone, so it is kept on the order facts as
``principal_walk``.

All enumerations and witness searches use one deterministic order: subsets
sorted by size, then lexicographically by membership.

:func:`family_rows` gives every ideal or filter with its class columns, and
``CLASSES`` names the class each column selects.  The ``ideals``/``filters
--class`` listings, the text report's row tags and the corpus diff against
the published lists all read those rows through that one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complement import ComplementedPoset
from .errors import PosetError, ScaleLimit
from .poset import DistributivityReport, Poset, iter_bits, sort_key

#: cap on the number of downward-closed subsets one walk of
#: :func:`directed_downsets` visits before giving up with ScaleLimit
DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class SubsetClassification:
    """Every ideal/filter-theoretic flag of one subset, with witnesses.

    ``c_ideal_witness`` is the first filter F (deterministic order) whose
    preimage under the complement map equals the subject, when the subject
    is an ideal; ``c_filter_witness`` is the dual.  ``None`` means absent.
    """

    subject: int
    is_ideal: bool
    is_filter: bool
    proper: bool
    principal_generator: int | None
    maximal_ideal: bool
    prime_ideal: bool
    ultrafilter: bool
    prime_filter: bool
    c_ideal_witness: int | None
    c_filter_witness: int | None
    c_condition: bool


@dataclass(frozen=True)
class ClassRow:
    """One ideal or filter with its classification columns.

    ``generator`` names the row in listings: an ideal's greatest element, a
    filter's least.  ``ccond``/``is_c``/``witness`` are ``None`` on
    poset-only instances.
    """

    mask: int
    generator: int
    proper: bool
    principal: int | None
    maximal: bool
    prime: bool
    ccond: bool | None
    is_c: bool | None
    witness: int | None


#: per family, each ``ideals``/``filters --class`` class, in listing order,
#: and the ClassRow flag that selects it; ``all`` selects every row
CLASSES = {
    "ideal": {"all": None, "proper": "proper", "maximal": "maximal", "prime": "prime",
              "c-ideal": "is_c", "c-condition": "ccond"},
    "filter": {"all": None, "proper": "proper", "ultrafilter": "maximal", "prime": "prime",
               "c-filter": "is_c", "c-condition": "ccond"},
}


def is_downset(p: Poset, mask: int) -> bool:
    return all(not p.down[x] & ~mask for x in iter_bits(mask))


def _pairs_bounded(up: tuple[int, ...], mask: int) -> bool:
    """Does every pair of members of ``mask`` have an upper bound in it?

    ``up`` holds the upper cones.  This holds exactly when ``mask`` has at
    most one maximal member, one whose upper cone meets ``mask`` in itself
    alone.  Two distinct maximal members have no common bound in ``mask``,
    since such a bound would equal each of them.  Conversely ``mask`` is
    finite, so every member lies below a maximal one, and a sole maximal
    member bounds every pair.
    """
    return sum(up[x] & mask == 1 << x for x in iter_bits(mask)) <= 1


def is_ideal(p: Poset, mask: int) -> bool:
    p.check_mask(mask)
    return bool(mask) and is_downset(p, mask) and _pairs_bounded(p.up, mask)


def is_filter(p: Poset, mask: int) -> bool:
    return is_ideal(p.dual(), mask)


def _extension(p: Poset) -> list[int]:
    """The walk's linear extension: elements by cone size, then index."""
    return sorted(range(p.n), key=lambda i: (p.down[i].bit_count(), i))


def _enumerate_downsets(p: Poset, budget: int) -> list[int]:
    """All downward-closed subsets, including the empty one.

    Elements are added along :func:`_extension`: once the downsets inside
    the first k elements are known, element k extends exactly those that
    hold everything strictly below it, as one block.  Raises ScaleLimit as
    soon as the count of downsets passes ``budget``.
    """
    out = [0]
    for e in _extension(p):
        bit = 1 << e
        below = p.down[e] ^ bit
        grown = [d | bit for d in out if not below & ~d]
        if len(out) + len(grown) > budget:
            raise ScaleLimit(f"more than {budget} downward-closed subsets")
        out += grown
    return out


def directed_downsets(p: Poset) -> list[int]:
    """Every ideal of ``p`` found by walking all downward-closed subsets.

    A walked set is kept when it is nonempty and directed, which one cone
    test decides.  A set S in the block of element e holds e and earlier
    elements of the extension only; an element above e comes later, so e is
    the only member of S that is >= e.  An upper bound in S of x and e is
    then e, so x <= e: S is directed exactly when it lies inside ``down[e]``.
    This uses the definition alone, not that S is downward closed, nor any
    principality, so this is the oracle for it.  The blocks come in
    extension order, so one pointer into the extension finds each e.  On
    ``p.dual()`` it yields the filters of ``p``.  Sorted like the families.
    Raises ScaleLimit once the walk passes ``DEFAULT_BUDGET`` downsets,
    before any set is tested.
    """
    order, down = _extension(p), p.down
    found, t, outside, off_cone = [], 0, ~(1 << order[0]), ~down[order[0]]
    for s in _enumerate_downsets(p, DEFAULT_BUDGET):
        while s & outside:  # s is in a later block
            t += 1
            outside, off_cone = outside & ~(1 << order[t]), ~down[order[t]]
        if s and not s & off_cone:
            found.append(s)
    found.sort(key=sort_key)
    return found


def enumerate_ideals(p: Poset) -> list[int]:
    """All ideals, sorted by size then lexicographic membership.

    These are the principal down-cones: on a finite poset every ideal has a
    greatest element (LEM_CL_PRINCIPAL, checked by :func:`directed_downsets`).
    """
    return sorted(p.down, key=sort_key)


def enumerate_filters(p: Poset) -> list[int]:
    """All filters, the principal up-cones, in the same deterministic order."""
    return enumerate_ideals(p.dual())


def principal_generator(p: Poset, mask: int) -> int | None:
    """Generator of a principal ideal or filter: its greatest (resp. least)
    element, preferring the ideal reading when both apply.  A set is the
    principal ideal ``down[g]`` exactly when g is its greatest element and
    ``down[g]`` is the set; a principal filter is that of the dual."""
    p.check_mask(mask)
    for q in (p, p.dual()):
        g = q.greatest(mask)
        if g is not None and q.down[g] == mask:
            return g
    return None


def is_prime_ideal(p: Poset, mask: int) -> bool:
    """Proper ideal I with {x,y} meeting I whenever L(x,y) is inside I."""
    if mask == p.all_mask or not is_ideal(p, mask):
        return False
    down = p.down
    for x in range(p.n):
        for y in range(x, p.n):
            if not (down[x] & down[y]) & ~mask and not ((1 << x) | (1 << y)) & mask:
                return False
    return True


def is_prime_filter(p: Poset, mask: int) -> bool:
    return is_prime_ideal(p.dual(), mask)


def is_maximal_ideal(p: Poset, mask: int, ideals: list[int]) -> bool:
    """Maximal proper ideal: no other proper member of ``ideals``, the
    enumerated ideals, is a superset of it."""
    return mask != p.all_mask and is_ideal(p, mask) and not any(
        s != p.all_mask and s != mask and not mask & ~s for s in ideals
    )


def is_ultrafilter(p: Poset, mask: int, filters: list[int]) -> bool:
    return is_maximal_ideal(p.dual(), mask, filters)


def find_c_ideal_witness(cp: ComplementedPoset, mask: int, filters: list[int]) -> int | None:
    """First filter F with F_0 equal to ``mask``, or None, by linear scan."""
    for f in filters:
        if cp.comp_preimage(f) == mask:
            return f
    return None


def find_c_filter_witness(cp: ComplementedPoset, mask: int, ideals: list[int]) -> int | None:
    return find_c_ideal_witness(cp.dual(), mask, ideals)


def _first_by_preimage(cp: ComplementedPoset, family: list[int]) -> dict[int, int]:
    """Complement-preimage -> the first member of ``family`` with it."""
    out: dict[int, int] = {}
    for s in family:
        out.setdefault(cp.comp_preimage(s), s)
    return out


class _Memo(dict):
    """mask -> ``test(subject, mask)``, computed on the first lookup of each
    mask; a lookup that hits is a plain dict read."""

    def __init__(self, test, subject):  # starts empty, as dict.__new__ made it
        self.test, self.subject = test, subject

    def __missing__(self, mask: int) -> bool:
        value = self[mask] = self.test(self.subject, mask)
        return value


class OrderFacts:
    """The ideal family of one poset and every flag of its members that the
    order alone fixes, each computed on first use and then kept.  Read it as
    ``Poset.facts``: every complementation built on that poset object shares
    it.  The filter side is ``poset.dual().facts``.

    The families are lists in family order, of at most n members each, and
    are searched directly for membership.  ``down_generator`` maps each
    principal ideal ``down[g]`` to g; the cones of distinct elements differ,
    so the map is one-to-one.

    ``is_ideal(mask)`` is the definition-level test of :func:`is_ideal`; it
    runs once per distinct mask and is then answered from a memo that lives
    as long as the poset.  The statement checkers put every mask they test
    through it: family members, complements, preimages, separation witnesses
    and the pair-table cells ``lu[a][g]`` that are the LU-unions over
    principal ideals (see :func:`lu_union`).  Those masks number O(n^2).
    """

    def __init__(self, poset: Poset):
        self.poset = poset
        self._ideal_memo = _Memo(is_ideal, poset)
        self.is_ideal = self._ideal_memo.__getitem__

    def generator(self, mask: int) -> int | None:
        """:func:`principal_generator` of ``mask``, read from the generator
        maps of the poset and its dual: a principal ideal ``down[g]`` is
        exactly an ideal whose greatest element g has it as its cone, and
        dually."""
        g = self.down_generator.get(mask)
        return self.poset.dual().facts.down_generator.get(mask) if g is None else g

    @cached_property
    def down_generator(self) -> dict[int, int]:
        return {cone: g for g, cone in enumerate(self.poset.down)}

    @cached_property
    def ideals(self) -> list[int]:
        return enumerate_ideals(self.poset)

    @cached_property
    def distributivity(self) -> DistributivityReport:
        return self.poset.is_distributive()

    @cached_property
    def semilattice_flags(self) -> tuple[bool, bool]:
        """(is_join_semilattice, is_meet_semilattice)."""
        return self.poset.semilattice_flags()

    @cached_property
    def principal_walk(self) -> tuple[int | None, str]:
        """LEM_CL_PRINCIPAL on this order, by :func:`directed_downsets`:
        the first walked ideal without a greatest element, or None, and the
        ScaleLimit message when the walk passed its cap, else "".  An
        over-cap walk is kept too: the cap is fixed, so a second walk ends
        the same way.  Past the loop every kept set is the cone of its
        greatest element, and distinct elements have distinct cones, so
        fewer than n kept sets means the walk dropped an ideal: an internal
        error, not a verdict."""
        q = self.poset
        try:
            found = directed_downsets(q)
        except ScaleLimit as exc:
            return None, str(exc)
        for s in found:
            g = q.greatest(s)
            if g is None or q.down[g] != s:
                return s, ""
        if len(found) != q.n:
            raise PosetError(f"internal error: kept {len(found)} of {q.n} principal ideals")
        return None, ""

    @cached_property
    def maximal_ideals(self) -> list[int]:
        return [i for i in self.ideals if is_maximal_ideal(self.poset, i, self.ideals)]

    @cached_property
    def prime_ideals(self) -> list[int]:
        return [i for i in self.ideals if is_prime_ideal(self.poset, i)]


class ComplementFacts:
    """The facts of one complementation that its order alone does not fix,
    each computed on first use and then kept.  Read it as
    ``ComplementedPoset.facts``; ``order`` is the poset's ``facts``.  The
    c-filter side is ``cp.dual().facts``.

    ``c_ideal_witnesses`` maps a preimage F_0 to the first filter F with
    it, so an ideal is a c-ideal exactly when it is a key, with that F as
    its witness.  ``c_condition(mask)`` answers each distinct mask once,
    from a memo that lives as long as the complemented poset.
    """

    def __init__(self, cp: ComplementedPoset):
        self.cp = cp
        self.order = cp.poset.facts
        self._ccond_memo = _Memo(ComplementedPoset.c_condition, cp)
        self.c_condition = self._ccond_memo.__getitem__

    @cached_property
    def c_ideal_witnesses(self) -> dict[int, int]:
        return _first_by_preimage(self.cp, self.cp.poset.dual().facts.ideals)

    @cached_property
    def c_ideals(self) -> list[int]:
        return [i for i in self.order.ideals if i in self.c_ideal_witnesses]

    @cached_property
    def ccond_ideals(self) -> list[int]:
        return [i for i in self.order.ideals if self.c_condition(i)]


def classify(cp: ComplementedPoset, mask: int) -> SubsetClassification:
    """Every classification flag of one subset, read from the facts of
    ``cp`` and, for the filter flags, of ``cp.dual()``."""
    p, dual = cp.poset, cp.dual()
    p.check_mask(mask)
    o, do = p.facts, dual.poset.facts
    ideal_flag = mask in o.down_generator
    filter_flag = mask in do.down_generator
    proper = (ideal_flag or filter_flag) and mask != p.all_mask
    # each list is computed only when its family holds the mask, so a
    # one-off call derives no list it does not read
    return SubsetClassification(
        subject=mask,
        is_ideal=ideal_flag,
        is_filter=filter_flag,
        proper=proper,
        principal_generator=o.generator(mask),
        maximal_ideal=ideal_flag and mask in o.maximal_ideals,
        prime_ideal=ideal_flag and mask in o.prime_ideals,
        ultrafilter=filter_flag and mask in do.maximal_ideals,
        prime_filter=filter_flag and mask in do.prime_ideals,
        c_ideal_witness=cp.facts.c_ideal_witnesses.get(mask) if ideal_flag else None,
        c_filter_witness=dual.facts.c_ideal_witnesses.get(mask) if filter_flag else None,
        c_condition=cp.c_condition(mask),
    )


def family_rows(p: Poset, cp: ComplementedPoset | None, kind: str) -> tuple[ClassRow, ...]:
    """The classified ideals (``kind`` "ideal") or filters ("filter") of
    ``p``, with the complementation columns of ``cp`` when it is given.  The
    filters are the ideals of the order dual, classified the same way; the
    ``principal`` column still prefers the ideal reading of ``p``."""
    generator = p.facts.generator
    if kind == "filter":
        p, cp = p.dual(), cp and cp.dual()
    a = p.facts
    witnesses = cp.facts.c_ideal_witnesses if cp else {}
    rows = []
    for mask in a.ideals:
        witness = witnesses.get(mask)
        rows.append(
            ClassRow(
                mask=mask,
                generator=a.down_generator[mask],
                proper=mask != p.all_mask,
                principal=generator(mask),
                maximal=mask in a.maximal_ideals,
                prime=mask in a.prime_ideals,
                ccond=cp.facts.c_condition(mask) if cp else None,
                is_c=(witness is not None) if cp else None,
                witness=witness,
            )
        )
    return tuple(rows)


def lu_union(p: Poset, a: int, ideal_mask: int) -> tuple[int, bool]:
    """Union of the cones LU({a, i}) over i in the ideal, plus ideal status.

    The cones are rows of ``p.lu``.  Each is a lower cone, hence a downset,
    and a union of downsets is a downset; so the union is an ideal exactly
    when it is nonempty and has at most one maximal member (see
    :func:`_pairs_bounded`).

    Over a principal ideal ``down[g]`` the union is the one cell
    ``p.lu[a][g]``: for i <= g, U(a,g) is inside U(a,i), so LU(a,i) is
    inside LU(a,g), which is itself one of the cones.  The statement
    checkers read that cell; this function ORs the rows of any mask.
    """
    p.check_mask(ideal_mask)
    row, union = p.lu[a], 0
    for i in iter_bits(ideal_mask):
        union |= row[i]
    return union, bool(union) and _pairs_bounded(p.up, union)


def ul_union(p: Poset, a: int, filter_mask: int) -> tuple[int, bool]:
    """Dual construction for filters: union of UL({a, f}) over f in the
    filter, with its filter status; the rows of ``p.ul`` are those of the
    dual's ``lu``.  Over a principal filter ``up[g]`` the union is the one
    cell ``p.ul[a][g]``."""
    return lu_union(p.dual(), a, filter_mask)
