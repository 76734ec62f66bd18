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

That principality is itself a checked statement (LEM_CL_PRINCIPAL), kept on
the order facts as ``principal_walk``.  It does not assume principality:
it decides a witness family of O(n^2) downsets, the n cones and
``down[x] | down[y]`` for each incomparable pair, by the definition of an
ideal, and its docstring proves the family complete.  The family is
bit-sliced (Biham, "A fast new DES implementation in software", FSE 1997):
each set is one bit lane across n integers, a column per element, and
:func:`ideal_lanes` evaluates :func:`is_ideal`'s test on every lane at once,
in one pass over the elements.  The columns are built by
``_enumerate_downsets``, a name kept from the exponential downset walk it
replaced because the benchmark's span tracer wraps it by that name; and
``DEFAULT_BUDGET``, the walk's cap, bounds nothing now but stays exported
because the benchmark's environment record reads it.  Both names go at the
next change to the benchmark.

All enumerations and witness searches use one deterministic order: subsets
sorted by size, then lexicographically by membership.

:func:`family_rows` gives every ideal or filter with its class columns, and
``CLASSES`` names the class each column selects.  The ``ideals``/``filters
--class`` listings, the text report's row tags and the corpus diff against
the published lists all read those rows through that one table.
"""

from __future__ import annotations

from typing import Sequence

from .complement import ComplementedPoset
from .errors import PosetError
from .poset import DistributivityReport, Poset, fact, iter_bits, record, sort_key

#: the cap of the downset walk that LEM_CL_PRINCIPAL no longer makes: it
#: bounds nothing, and stays only because the benchmark's environment record
#: reads it; it goes at the next change to the benchmark
DEFAULT_BUDGET = 1 << 20


@record
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


@record
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
    upper bound inside it?  At most one pass over the members.

    A member x with ``down[x] & ~mask`` breaks downward closure.  Every pair
    is bounded in a nonempty ``mask`` exactly when it has one maximal
    member, one whose upper cone meets ``mask`` in itself alone.  Two
    distinct maximal members have no common bound in ``mask``, since such a
    bound would equal each of them, so the pass returns False at the second
    maximal member it meets.  Conversely ``mask`` is finite, so every member
    lies below a maximal one, and a sole maximal member bounds every pair.
    The empty set has no maximal member.

    The range test of :meth:`Poset.check_mask` is made inline, and that
    method is called only when it fails, to raise its PosetError: a
    negative mask also has bits outside ``all_mask``.  Cost: O(n) mask
    operations.
    """
    if mask & ~p.all_mask:
        p.check_mask(mask)
    down, up, maximal, rest = p.down, p.up, False, mask
    while rest:  # iter_bits inlined: this is a hot kernel
        low = rest & -rest
        x = low.bit_length() - 1
        if down[x] & ~mask:
            return False
        if up[x] & mask == low:
            if maximal:
                return False
            maximal = True
        rest ^= low
    return maximal


def is_filter(p: Poset, mask: int) -> bool:
    return is_ideal(p.dual(), mask)


def ideal_lanes(p: Poset, columns: Sequence[int]) -> int:
    """The mask of the lanes whose set is an ideal: :func:`is_ideal` run on
    every lane at once.  Each set is one bit lane: ``columns[m]``, one
    column per element of ``p``, is the mask of the lanes whose set holds
    m.  A lane that no column holds is the empty set.

    The test is :func:`is_ideal`'s, each mask operation taking one step of
    it in every lane.  A lane that holds m but not some d < m, ``columns[m]
    & ~columns[d]``, is not downward closed; ``closed`` keeps the lanes of
    ``columns[m]`` that hold every such d, so ``column ^ closed`` gathers
    those lanes for all d at once.  A lane that holds m and no u > m,
    ``columns[m] & ~OR(columns[u])``, has m as a maximal member: ``one``
    gathers the lanes with a first maximal member, ``two`` those with a
    second.  So the ideals are the closed lanes with exactly one maximal
    member, and :func:`is_ideal`'s proof applies lane by lane; the empty set
    has no maximal member.

    Cost: one pass over the elements, with one mask operation per
    comparable pair d < m, O(n^2) operations whatever the number of lanes;
    each is as wide as the lanes, so its own cost grows with their number
    once the integers outgrow the interpreter's per-operation overhead.
    """
    down, up = p.down, p.up
    bad = one = two = 0
    for m, column in enumerate(columns):
        closed, above = column, 0
        rest = down[m] ^ (1 << m)
        while rest:  # iter_bits inlined, here and below: this is a hot kernel
            low = rest & -rest
            closed &= columns[low.bit_length() - 1]
            rest ^= low
        rest = up[m] ^ (1 << m)
        while rest:
            low = rest & -rest
            above |= columns[low.bit_length() - 1]
            rest ^= low
        bad |= column ^ closed  # closed lies inside column
        top = column & ~above
        two |= one & top
        one |= top
    return one & ~(two | bad)


def _enumerate_downsets(p: Poset) -> list[int]:
    """The witness family of LEM_CL_PRINCIPAL as the n columns of
    :func:`ideal_lanes`, every member downward closed.  Lane g < n is the
    cone ``down[g]``.  Lane n + x*n + y is ``down[x] | down[y]``, the least
    downset holding x and y, for each incomparable pair x < y by index;
    the other lanes of that n*n grid are empty.  So the nonempty lanes, in
    lane order, list the cones in index order, then the pairs in pair
    order.  Distinct pairs give distinct sets, since x and y are the
    maximal members of theirs, and no pair's set is a cone.

    A lane's generators are g for a cone and x and y for a pair, and m
    lies in the lane's set exactly when one of them lies in ``up[m]``.  So
    column m is the union, over z in ``up[m]``, of ``held[z]``, the lanes
    with z as a generator: lane z and the valid grid lanes of row z and of
    grid column z.  With ``valid`` the grid mask of the incomparable pairs,
    ``rows[x]`` its row x, R = sum 2^(x*n) (``spread``) and rows(u) the
    whole grid rows x in u, that is ``up[m] | ((rows(up[m]) | up[m]*R) &
    valid) << n``.  Cost: O(n) mask operations for ``rows``, ``valid`` and
    ``held``, then one union per comparable pair m <= z: O(n^2) mask
    operations on integers of n + n^2 bits."""
    n, down, up, full = p.n, p.down, p.up, p.all_mask
    rows = [(full & ~(down[x] | up[x])) >> (x + 1) << (x + 1 + x * n) for x in range(n)]
    valid, spread = sum(rows), sum(1 << x * n for x in range(n))
    held = [1 << z | (rows[z] | spread << z & valid) << n for z in range(n)]
    columns = []
    for m in range(n):
        column, rest = 0, up[m]
        while rest:  # iter_bits inlined: this is a hot kernel
            low = rest & -rest
            column |= held[low.bit_length() - 1]
            rest ^= low
        columns.append(column)
    return columns


def enumerate_ideals(p: Poset) -> list[int]:
    """All ideals, sorted by size then lexicographic membership.

    These are the principal down-cones: on a finite poset every ideal has a
    greatest element (LEM_CL_PRINCIPAL, checked by
    :attr:`OrderFacts.principal_walk`).
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
    todo = outside
    while todo:  # iter_bits inlined, here and below: this is a hot kernel
        low = todo & -todo
        reach, rest = 0, down[low.bit_length() - 1] & outside
        while rest:
            bit = rest & -rest
            reach |= up[bit.bit_length() - 1]
            rest ^= bit
        if outside & ~reach:
            return False
        todo ^= low
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
    the preimages that are ideals of ``cp.poset``.  A preimage that is a
    principal cone, a key of ``down_generator``, is an ideal without the
    member test; every other one gets the definition-level :func:`is_ideal`.

    Cost: one preimage per member, a cone-table read for a cone of either
    side, and one :func:`is_ideal` pass, O(n) mask operations, per distinct
    preimage that is not a cone: O(n^2) at worst, O(n) when every preimage
    is a cone.
    """
    first: dict[int, int] = {}
    for s in family:
        first.setdefault(cp.comp_preimage(s), s)
    q = cp.poset
    cones = q.facts.down_generator
    return {pre: s for pre, s in first.items() if pre in cones or is_ideal(q, pre)}


class OrderFacts:
    """The ideal family of one poset and every flag of its members that the
    order alone fixes, each computed on first use and then kept.  Read it as
    ``Poset.facts``: every complementation built on that poset object shares
    it.  The filter side is ``poset.dual().facts``.

    The families are lists in family order, of at most n members each, and
    are searched directly for membership.  ``down_generator`` maps each
    principal ideal ``down[g]`` to g; the cones of distinct elements differ,
    so the map is one-to-one.  Every fact is a table of at most n^2 entries,
    filled from the order alone: no mask a caller passes is kept.  Each
    fact's docstring gives its cost in n, counted in mask operations, each
    on an n-bit integer, and apart from the facts it reads.
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

    @fact
    def down_generator(self) -> dict[int, int]:
        """Cone -> generator.  Cost: n entries, O(n) mask hashes."""
        return {cone: g for g, cone in enumerate(self.poset.down)}

    @fact
    def ideals(self) -> list[int]:
        """The n principal cones in family order.  Cost: n keys of up to n
        characters each, then O(n log n) key comparisons."""
        return enumerate_ideals(self.poset)

    @fact
    def union_rows(self) -> tuple[int, ...]:
        """Per g, the mask of the a whose pair-table cell ``lu[a][g]``, the
        LU-union over the ideal ``down[g]``, passes the definition-level
        :func:`is_ideal`; each distinct cell is tested once, and when every
        cell passes each row is the whole poset.  The table is symmetric, so
        row g of ``lu`` lists those cells.  On the dual's facts, bit a of
        row g says whether the UL-union over the filter ``up[g]`` is a
        filter.

        A cell that is a principal cone is an ideal, but these cells take
        the member test all the same.  LEM_JOINSEMI_LU's hypothesis is that
        every cell is a cone, and its conclusion reads these rows: read off
        the generator map, the conclusion would restate the hypothesis, and
        the checker would verify nothing.

        Cost: one :func:`is_ideal` pass, O(n) mask operations, per distinct
        cell of ``lu``, of which there are at most n^2: O(n^3) at worst;
        then n rows of up to n cells when some cell fails.
        """
        q = self.poset
        bad = {cell for cell in set().union(*q.lu) if not is_ideal(q, cell)}
        if not bad:
            return (q.all_mask,) * q.n
        return tuple(q.all_mask & ~sum(1 << a for a, cell in enumerate(row) if cell in bad) for row in q.lu)

    @fact
    def distributivity(self) -> DistributivityReport:
        """:meth:`Poset.is_distributive`.  Cost: O(1) mask operations per
        pair x <= y, n^2/2 pairs; one cone closure of O(n) per element
        whose join-irreducibility a pair reads; and at most one pass of n
        closures over z: O(n^2) in all, past ``lu``."""
        return self.poset.is_distributive()

    @fact
    def semilattice_flags(self) -> tuple[bool, bool]:
        """(is_join_semilattice, is_meet_semilattice).  Cost: the union of
        the n^2 cells of ``lu`` on the poset and on its dual, O(n^2) mask
        hashes, past both ``lu`` tables."""
        return self.poset.semilattice_flags()

    @fact
    def principal_walk(self) -> int | None:
        """LEM_CL_PRINCIPAL on this order: the first set, in ``sort_key``
        order, of the witness family :func:`_enumerate_downsets` that
        :func:`ideal_lanes`, the definition-level ideal test, accepts and
        that is not a cone ``down[g]``, or None.  The family comes as lanes:
        the n cones, then one lane per incomparable pair, and no pair's set
        is a cone, so the strays are the accepted pair lanes, each decoded
        to ``down[x] | down[y]``.  Past them, the accepted lanes are cones,
        so fewer than n means a cone was rejected: an internal error, not a
        verdict.

        The family is complete: a set that the definition accepts and that
        is not a cone is a nonempty downset with two maximal members x and
        y, since a sole maximal member m would make it ``down[m]``.  They
        are incomparable, and the set holds ``down[x] | down[y]``, the least
        downset that holds them.  Inside either set an upper bound of x and
        y would equal each of them, so the pair decides both alike: the
        definition accepts such a set only if it accepts that family member.

        Cost: the n columns and one :func:`ideal_lanes` call on them, O(n^2)
        mask operations on integers of n + n^2 bits, for the n cones and up
        to n(n-1)/2 pairs together; then one union per accepted pair lane.
        It makes no :func:`is_ideal` and no ``check_mask`` call.  Each
        operation reads O(n^2) bits, so past a few hundred elements the time
        grows as n^4 machine-word operations, while the count stays n^2."""
        q = self.poset
        n, down = q.n, q.down
        accepted = ideal_lanes(q, _enumerate_downsets(q))
        pairs = accepted >> n
        if pairs:
            return min((down[lane // n] | down[lane % n] for lane in iter_bits(pairs)), key=sort_key)
        if accepted != q.all_mask:
            raise PosetError(f"internal error: kept {accepted.bit_count()} of {n} principal ideals")
        return None

    @fact
    def maximal_ideals(self) -> list[int]:
        """The ideals that :func:`is_maximal_ideal` accepts, in family order,
        read off the cones.  The proper ideals are the cones ``down[h]``
        other than P, and ``down[h]`` holds ``down[g]`` exactly when g <= h.
        So a proper cone ``down[g]`` is maximal exactly when every h > g has
        ``down[h]`` = P, that is when h is the top: ``up[g]`` holds g and at
        most the top besides.  P itself, ``down[top]``, fails that test,
        since ``up[top]`` without the top is empty.

        Cost: one mask test per generator, n in all, past ``ideals``."""
        q, generator = self.poset, self.down_generator
        top = 0 if q.top is None else 1 << q.top
        return [i for i in self.ideals if q.up[generator[i]] & ~top == 1 << generator[i]]

    @fact
    def prime_ideals(self) -> list[int]:
        """Cost: per ideal, the up-cones of ``down[x]`` outside it for each
        x outside it: O(n^2) mask operations each, O(n^3) in all."""
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

    @fact
    def c_ideal_witnesses(self) -> dict[int, int]:
        """Read by :func:`_first_by_preimage` off the filters.  Cost: n
        preimage reads from the cone table, then one :func:`is_ideal` pass
        of O(n) per distinct preimage that is not a cone: O(n^2) mask
        operations at worst, past the dual's ``ideals``."""
        return _first_by_preimage(self.cp, self.cp.poset.dual().facts.ideals)

    @fact
    def c_ideals(self) -> list[int]:
        """Cost: n lookups in ``c_ideal_witnesses``, O(n) mask hashes."""
        return [i for i in self.order.ideals if i in self.c_ideal_witnesses]

    @fact
    def ccond_ideals(self) -> list[int]:
        """Cost: n :meth:`~cideals.complement.ComplementedPoset.c_condition`
        tests, each a cone-table read and one comparison: O(n)."""
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
