"""Ideals, filters, and their classification on finite (complemented) posets.

An ideal is a nonempty, downward-closed set in which every pair of members
has an upper bound inside the set; a filter is the dual.  The empty set is
neither.  On a finite poset every ideal and every filter is principal, so
the families are read off the principal cones: the n sets ``down[i]`` are
the ideals and the n sets ``up[i]`` the filters.

Each fact lives on the immutable object it describes.  :class:`OrderFacts`,
read as ``Poset.facts``, holds the ideal family, every flag of its
members that the order alone fixes and the ideal verdicts of the pair-table
cells.  :class:`ComplementFacts`, read as ``ComplementedPoset.facts``, holds
the c-ideals and the ideals with the c-condition; one poset can carry
many complementations, and they all share its order facts.  Both hold the ideal
side only: the filters of P are the ideals of its order dual, so each filter
fact is the ideal fact of ``p.dual().facts`` or ``cp.dual().facts``, read
from the duals the objects keep.  The filter-side functions are written the
same way: each of ``is_filter``, ``enumerate_filters``, ``is_prime_filter``,
``is_ultrafilter`` and ``find_c_filter_witness`` is one call to its ideal
twin on ``p.dual()`` or ``cp.dual()``, and ``principal_generator`` reads
the generator maps of both from the order facts.

The LU-union over an ideal, which Theorem 5 and LEM_JOINSEMI_LU quantify
over, is one cell of the pair table: every ideal is a principal ``down[g]``,
and the union of LU(a,i) over i <= g is ``p.lu[a][g]``.  The UL-union over
a filter ``up[g]`` is the cell ``p.dual().lu[a][g]``.  The order facts keep,
per g, the mask of the a whose cell is an ideal: ``union_rows``.

That principality is itself a checked statement (LEM_CL_PRINCIPAL).  Its
oracle, :func:`directed_downsets`, does not assume it: it walks every
downward closed subset, up to the fixed cap ``DEFAULT_BUDGET``, and keeps
the directed ones: a walked set is directed exactly when it lies inside
the cone of its last element in the walk's linear extension.  Each element
adds one block of sets, and it scans only the blocks from that of its last
predecessor on, since no earlier set holds that predecessor; the directed
sets are then kept one block at a time.  The verdict depends on the order
alone, so it is kept on the order facts as ``principal_walk``.

All enumerations and witness searches use one deterministic order: subsets
sorted by size, then lexicographically by membership.

:func:`family_rows` gives every ideal or filter with its class columns, and
``CLASSES`` names the class each column selects.  The ``ideals``/``filters
--class`` listings, the text report's row tags and the corpus diff against
the published lists all read those rows through that one table.
"""

from __future__ import annotations

from bisect import bisect_left
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


def is_ideal(p: Poset, mask: int) -> bool:
    """Is ``mask`` a nonempty downset in which every pair of members has an
    upper bound inside it?  One pass over the members.

    A member x with ``down[x] & ~mask`` breaks downward closure.  Every pair
    is bounded in a nonempty ``mask`` exactly when it has one maximal
    member, one whose upper cone meets ``mask`` in itself alone.  Two
    distinct maximal members have no common bound in ``mask``, since such a
    bound would equal each of them.  Conversely ``mask`` is finite, so every
    member lies below a maximal one, and a sole maximal member bounds every
    pair.  The empty set has no maximal member.
    """
    p.check_mask(mask)
    down, up, maximal = p.down, p.up, 0
    for x in iter_bits(mask):
        if down[x] & ~mask:
            return False
        maximal += up[x] & mask == 1 << x
    return maximal == 1


def is_filter(p: Poset, mask: int) -> bool:
    return is_ideal(p.dual(), mask)


def _extension(p: Poset) -> list[int]:
    """The walk's linear extension: elements by cone size, then index."""
    return sorted(range(p.n), key=lambda i: (p.down[i].bit_count(), i))


def _enumerate_downsets(p: Poset, budget: int) -> list[int]:
    """All downward-closed subsets, including the empty one.

    Elements are added along :func:`_extension`: once the downsets inside
    the first k elements are known, element k extends exactly those that
    hold everything strictly below it, as one block, the run of sets it
    appends.  Raises ScaleLimit as soon as the count of downsets passes
    ``budget``.

    Element e scans only a window, a suffix of the list.  A set in the
    block of element f holds f and elements before f in the extension only.
    Each member of ``below``, the elements strictly below e, has a smaller
    cone than e, so it comes earlier and its block is already written.  Let
    m be the member of ``below`` that comes last in the extension, the
    highest bit of ``ranks``.  A set before the block of m holds only
    elements before m, so it lacks m and cannot hold ``below``: the window
    starts at the block of m, or is the whole list when ``below`` is empty.
    A set in the window is extended when it holds all of ``below``.
    """
    out, starts, rank, down = [0], [], [0] * p.n, p.down
    for t, e in enumerate(_extension(p)):
        bit = 1 << e
        below = down[e] ^ bit
        ranks = 0  # one bit per member of below, at its place in the extension
        for x in iter_bits(below):
            ranks |= rank[x]
        window = out[starts[ranks.bit_length() - 1]:] if ranks else out
        grown = [d | bit for d in window if d & below == below]
        if len(out) + len(grown) > budget:
            raise ScaleLimit(f"more than {budget} downward-closed subsets")
        rank[e] = 1 << t
        starts.append(len(out))
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
    principality, so this is the oracle for it.  On ``p.dual()`` it yields
    the filters of ``p``.  Sorted like the families.  Raises ScaleLimit once
    the walk passes ``DEFAULT_BUDGET`` downsets, before any set is tested.

    Each block is tested whole, in extension order after the empty set.
    Along the list, the key ``s & later``, with ``later`` the elements after
    e in the extension, is 0 up to the end of the block of e and positive
    from there on: the sets up to it hold e and earlier elements only, and a
    set in a later block holds that block's element.  So ``bisect_left``
    for 1 on that key finds where the block of e ends, and the next block
    starts there.
    """
    order, down = _extension(p), p.down
    walked = _enumerate_downsets(p, DEFAULT_BUDGET)
    found, lo, later = [], 1, p.all_mask
    for e in order:
        later ^= 1 << e
        hi = bisect_left(walked, 1, lo, key=later.__and__)
        off_cone = ~down[e]
        found += [s for s in walked[lo:hi] if not s & off_cone]
        lo = hi
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
    element, preferring the ideal reading when both apply; read from the
    order facts by :meth:`OrderFacts.generator`."""
    p.check_mask(mask)
    return p.facts.generator(mask)


def is_prime_ideal(p: Poset, mask: int) -> bool:
    """Proper ideal I with {x,y} meeting I whenever L(x,y) is inside I.

    A principal cone is an ideal without the member test.  With O the rest
    of P, the condition asks that every x and y in O have a common lower
    bound in O: for each x in O, the up-cones of the members of
    ``down[x] & O`` cover O.
    """
    if mask == p.all_mask or not (mask in p.facts.down_generator or is_ideal(p, mask)):
        return False
    down, up, outside = p.down, p.up, p.all_mask & ~mask
    for x in iter_bits(outside):
        reach = 0
        for z in iter_bits(down[x] & outside):
            reach |= up[z]
        if outside & ~reach:
            return False
    return True


def is_prime_filter(p: Poset, mask: int) -> bool:
    return is_prime_ideal(p.dual(), mask)


def is_maximal_ideal(p: Poset, mask: int) -> bool:
    """Maximal proper ideal: no other proper ideal of ``p``, read from
    ``p.facts.ideals``, is a superset of it.  A principal cone is an ideal
    without the member test."""
    return mask != p.all_mask and (mask in p.facts.down_generator or is_ideal(p, mask)) and not any(
        s != p.all_mask and s != mask and not mask & ~s for s in p.facts.ideals
    )


def is_ultrafilter(p: Poset, mask: int) -> bool:
    return is_maximal_ideal(p.dual(), mask)


def find_c_ideal_witness(cp: ComplementedPoset, mask: int) -> int | None:
    """First filter F of ``cp.poset`` with F_0 equal to ``mask``, or None,
    by linear scan of the filters, ``cp.poset.dual().facts.ideals``."""
    return next((f for f in cp.poset.dual().facts.ideals if cp.comp_preimage(f) == mask), None)


def find_c_filter_witness(cp: ComplementedPoset, mask: int) -> int | None:
    return find_c_ideal_witness(cp.dual(), mask)


def _first_by_preimage(cp: ComplementedPoset, family: list[int]) -> dict[int, int]:
    """Complement-preimage -> the first member of ``family`` with it, for
    the preimages that pass the definition-level :func:`is_ideal` on
    ``cp.poset``."""
    first: dict[int, int] = {}
    for s in family:
        first.setdefault(cp.comp_preimage(s), s)
    return {pre: s for pre, s in first.items() if is_ideal(cp.poset, pre)}


class OrderFacts:
    """The ideal family of one poset and every flag of its members that the
    order alone fixes, each computed on first use and then kept.  Read it as
    ``Poset.facts``: every complementation built on that poset object shares
    it.  The filter side is ``poset.dual().facts``.

    The families are lists in family order, of at most n members each, and
    are searched directly for membership.  ``down_generator`` maps each
    principal ideal ``down[g]`` to g; the cones of distinct elements differ,
    so the map is one-to-one.  Every fact is a table of at most n^2 entries,
    filled from the order alone: no mask a caller passes is kept.
    """

    def __init__(self, poset: Poset):
        self.poset = poset

    def generator(self, mask: int) -> int | None:
        """The generator of ``mask`` as a principal ideal ``down[g]``, else
        as a principal filter ``up[g]``, else None: read from the generator
        maps of the poset and its dual, since distinct elements have
        distinct cones."""
        g = self.down_generator.get(mask)
        return self.poset.dual().facts.down_generator.get(mask) if g is None else g

    @cached_property
    def down_generator(self) -> dict[int, int]:
        return {cone: g for g, cone in enumerate(self.poset.down)}

    @cached_property
    def ideals(self) -> list[int]:
        return enumerate_ideals(self.poset)

    @cached_property
    def union_rows(self) -> tuple[int, ...]:
        """Per g, the mask of the a whose pair-table cell ``lu[a][g]``, the
        LU-union over the ideal ``down[g]``, passes the definition-level
        :func:`is_ideal`; each distinct cell is tested once, and when every
        cell passes each row is the whole poset.  The table is symmetric, so
        row g of ``lu`` lists those cells.  On the dual's facts, bit a of
        row g says whether the UL-union over the filter ``up[g]`` is a
        filter.
        """
        q = self.poset
        bad = {cell for cell in set().union(*q.lu) if not is_ideal(q, cell)}
        if not bad:
            return (q.all_mask,) * q.n
        return tuple(q.all_mask & ~sum(1 << a for a, cell in enumerate(row) if cell in bad) for row in q.lu)

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
        the first walked ideal that is not a principal cone ``down[g]``, or
        None, and the ScaleLimit message when the walk passed its cap, else
        "".  An over-cap walk is kept too: the cap is fixed, so a second
        walk ends the same way.  Past the loop every kept set is a cone, and
        distinct elements have distinct cones, so fewer than n kept sets
        means the walk dropped an ideal: an internal error, not a verdict."""
        q = self.poset
        try:
            found = directed_downsets(q)
        except ScaleLimit as exc:
            return None, str(exc)
        for s in found:
            if s not in self.down_generator:
                return s, ""
        if len(found) != q.n:
            raise PosetError(f"internal error: kept {len(found)} of {q.n} principal ideals")
        return None, ""

    @cached_property
    def maximal_ideals(self) -> list[int]:
        return [i for i in self.ideals if is_maximal_ideal(self.poset, i)]

    @cached_property
    def prime_ideals(self) -> list[int]:
        return [i for i in self.ideals if is_prime_ideal(self.poset, i)]


class ComplementFacts:
    """The facts of one complementation that its order alone does not fix,
    each computed on first use and then kept.  Read it as
    ``ComplementedPoset.facts``; ``order`` is the poset's ``facts``.  The
    c-filter side is ``cp.dual().facts``.

    ``c_ideal_witnesses`` maps each preimage F_0 that is an ideal to the
    first filter F with it: its keys are exactly the c-ideals, each with
    that F as its witness.  The c-condition is ``cp.c_condition``, one mask
    comparison against the preimage; a family member's preimage is a read
    of the cone table the complemented poset keeps, so nothing here keys a
    caller's mask.
    """

    def __init__(self, cp: ComplementedPoset):
        self.cp = cp
        self.order = cp.poset.facts

    @cached_property
    def c_ideal_witnesses(self) -> dict[int, int]:
        return _first_by_preimage(self.cp, self.cp.poset.dual().facts.ideals)

    @cached_property
    def c_ideals(self) -> list[int]:
        return [i for i in self.order.ideals if i in self.c_ideal_witnesses]

    @cached_property
    def ccond_ideals(self) -> list[int]:
        return [i for i in self.order.ideals if self.cp.c_condition(i)]


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


def family_rows(q: Poset | ComplementedPoset, kind: str) -> tuple[ClassRow, ...]:
    """The classified ideals (``kind`` "ideal") or filters ("filter") of
    ``q``: with the complementation columns when ``q`` is a complemented
    poset, without them when it is a poset.  The filters are the ideals of
    the order dual, classified the same way; the ``principal`` column still
    prefers the ideal reading of the poset."""
    cp = q if isinstance(q, ComplementedPoset) else None
    p = cp.poset if cp else q
    generator = p.facts.generator
    if kind == "filter":
        p, cp = p.dual(), cp and cp.dual()
    a = p.facts
    witnesses = cp.facts.c_ideal_witnesses if cp else {}
    return tuple(
        ClassRow(
            mask=mask,
            generator=a.down_generator[mask],
            proper=mask != p.all_mask,
            principal=generator(mask),
            maximal=mask in a.maximal_ideals,
            prime=mask in a.prime_ideals,
            ccond=cp.c_condition(mask) if cp else None,
            is_c=(mask in witnesses) if cp else None,
            witness=witnesses.get(mask),
        )
        for mask in a.ideals
    )
