"""Ideals, filters, and their classification on finite (complemented) posets.

An ideal is a nonempty, downward-closed set in which every pair of members
has an upper bound inside the set; a filter is the dual.  The empty set is
neither.  On a finite poset every ideal and every filter is principal, so
the families are read off the principal cones: the n sets ``down[i]`` are
the ideals and the n sets ``up[i]`` the filters.  :class:`Analysis` derives
the families and every flag of their members once per call.

That principality is itself a checked statement (LEM_CL_PRINCIPAL).  Its
oracle, :func:`directed_downsets`, does not assume it: it walks every
downward closed subset, up to a budget, and keeps the directed ones.

All enumerations and witness searches use one deterministic order: subsets
sorted by size, then lexicographically by membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complement import ComplementedPoset
from .errors import ScaleLimit
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


def is_downset(p: Poset, mask: int) -> bool:
    return all(not p.down[x] & ~mask for x in iter_bits(mask))


def is_upset(p: Poset, mask: int) -> bool:
    return all(not p.up[x] & ~mask for x in iter_bits(mask))


def is_ideal(p: Poset, mask: int) -> bool:
    p.check_mask(mask)
    if not mask or not is_downset(p, mask):
        return False
    members = list(iter_bits(mask))
    for i, x in enumerate(members):
        for y in members[i:]:
            if not p.up[x] & p.up[y] & mask:
                return False
    return True


def is_filter(p: Poset, mask: int) -> bool:
    p.check_mask(mask)
    if not mask or not is_upset(p, mask):
        return False
    members = list(iter_bits(mask))
    for i, x in enumerate(members):
        for y in members[i:]:
            if not p.down[x] & p.down[y] & mask:
                return False
    return True


def subset_role(p: Poset, mask: int) -> tuple[bool, bool]:
    """(is_ideal, is_filter); the empty set is neither."""
    return is_ideal(p, mask), is_filter(p, mask)


def _enumerate_downsets(p: Poset, budget: int) -> list[int]:
    """All downward-closed subsets, including the empty one.

    Elements are added along a linear extension: once the downsets inside
    the first k elements are known, element k extends exactly those that
    hold everything strictly below it.  Raises ScaleLimit as soon as the
    count of downsets passes ``budget``.
    """
    out = [0]
    for e in sorted(range(p.n), key=lambda i: (p.down[i].bit_count(), i)):
        bit = 1 << e
        below = p.down[e] ^ bit
        grown = [d | bit for d in out if not below & ~d]
        if len(out) + len(grown) > budget:
            raise ScaleLimit(
                f"more than {budget} downward-closed subsets; "
                "raise the walk budget to decide"
            )
        out += grown
    return out


def directed_downsets(p: Poset, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Every ideal of ``p`` found by walking all downward-closed subsets.

    A walked set is kept when it is nonempty and every pair of its members
    has a common upper bound inside it; downward closure needs no re-check,
    since the walk only emits downsets.  No principality is assumed, so this
    is the oracle for it.  On ``p.dual()`` it yields the filters of ``p``.
    Sorted like the families.  Raises ScaleLimit once the walk passes
    ``budget`` downsets.
    """
    found = [d for d in _enumerate_downsets(p, budget) if d and _directed(p, d)]
    found.sort(key=sort_key)
    return found


def _directed(p: Poset, mask: int) -> bool:
    """Does every pair of members have a common upper bound in ``mask``?

    Bits are peeled inline rather than with ``iter_bits``: this runs once
    per walked downset, and most pairs fail early.
    """
    rest = mask
    while rest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1  # the members after x
        above = p.up[x] & mask
        others = rest
        while others:
            low = others & -others
            if not above & p.up[low.bit_length() - 1]:
                return False
            others ^= low
    return True


def enumerate_ideals(p: Poset) -> list[int]:
    """All ideals, sorted by size then lexicographic membership.

    These are the principal down-cones: on a finite poset every ideal has a
    greatest element (LEM_CL_PRINCIPAL, checked by :func:`directed_downsets`).
    """
    return sorted(p.down, key=sort_key)


def enumerate_filters(p: Poset) -> list[int]:
    """All filters, the principal up-cones, in the same deterministic order."""
    return sorted(p.up, key=sort_key)


def principal_generator(p: Poset, mask: int) -> int | None:
    """Generator of a principal ideal or filter: its greatest (resp. least)
    element, preferring the ideal reading when both apply."""
    if is_ideal(p, mask):
        g = p.greatest(mask)
        if g is not None and p.down[g] == mask:
            return g
    if is_filter(p, mask):
        g = p.least(mask)
        if g is not None and p.up[g] == mask:
            return g
    return None


def is_prime_ideal(p: Poset, mask: int) -> bool:
    """Proper ideal I with {x,y} meeting I whenever L(x,y) is inside I."""
    if mask == p.all_mask or not is_ideal(p, mask):
        return False
    for x in range(p.n):
        for y in range(x, p.n):
            if not (p.down[x] & p.down[y]) & ~mask and not ((1 << x) | (1 << y)) & mask:
                return False
    return True


def is_prime_filter(p: Poset, mask: int) -> bool:
    if mask == p.all_mask or not is_filter(p, mask):
        return False
    for x in range(p.n):
        for y in range(x, p.n):
            if not (p.up[x] & p.up[y]) & ~mask and not ((1 << x) | (1 << y)) & mask:
                return False
    return True


def is_maximal_ideal(p: Poset, mask: int, ideals: list[int]) -> bool:
    """Maximal proper ideal, by pairwise inclusion over all enumerated ideals."""
    if mask == p.all_mask or not is_ideal(p, mask):
        return False
    return not any(i != p.all_mask and i != mask and not mask & ~i for i in ideals)


def is_ultrafilter(p: Poset, mask: int, filters: list[int]) -> bool:
    if mask == p.all_mask or not is_filter(p, mask):
        return False
    return not any(f != p.all_mask and f != mask and not mask & ~f for f in filters)


def find_c_ideal_witness(cp: ComplementedPoset, mask: int, filters: list[int]) -> int | None:
    """First filter F with F_0 equal to ``mask``, or None, by linear scan."""
    for f in filters:
        if cp.comp_preimage(f) == mask:
            return f
    return None


def find_c_filter_witness(cp: ComplementedPoset, mask: int, ideals: list[int]) -> int | None:
    for i in ideals:
        if cp.comp_preimage(i) == mask:
            return i
    return None


def _first_by_preimage(cp: ComplementedPoset, family: list[int]) -> dict[int, int]:
    """Complement-preimage -> the first member of ``family`` with it."""
    out: dict[int, int] = {}
    for s in family:
        out.setdefault(cp.comp_preimage(s), s)
    return out


class Analysis:
    """The ideal and filter families of one poset and every flag of their
    members, each computed on first use and then kept.

    One object serves one call: the report, the statement harness and
    :func:`classify` read it instead of each re-deriving the families.  List
    attributes keep family order.  ``c_ideal_witnesses`` maps a preimage
    F_0 to the first filter F with it, so an ideal is a c-ideal exactly when
    it is a key, with that F as its witness; ``c_filter_witnesses`` is the
    dual.  The attributes from ``c_ideal_witnesses`` on need ``cp``.
    """

    def __init__(self, poset: Poset, cp: ComplementedPoset | None = None):
        self.poset = poset
        self.cp = cp

    @cached_property
    def ideals(self) -> list[int]:
        return enumerate_ideals(self.poset)

    @cached_property
    def filters(self) -> list[int]:
        return enumerate_filters(self.poset)

    @cached_property
    def distributivity(self) -> DistributivityReport:
        return self.poset.is_distributive()

    @cached_property
    def semilattice_flags(self) -> tuple[bool, bool]:
        """(is_join_semilattice, is_meet_semilattice)."""
        return self.poset.semilattice_flags()

    @cached_property
    def maximal_ideals(self) -> list[int]:
        return [i for i in self.ideals if is_maximal_ideal(self.poset, i, self.ideals)]

    @cached_property
    def ultrafilters(self) -> list[int]:
        return [f for f in self.filters if is_ultrafilter(self.poset, f, self.filters)]

    @cached_property
    def prime_ideals(self) -> list[int]:
        return [i for i in self.ideals if is_prime_ideal(self.poset, i)]

    @cached_property
    def prime_filters(self) -> list[int]:
        return [f for f in self.filters if is_prime_filter(self.poset, f)]

    @cached_property
    def c_ideal_witnesses(self) -> dict[int, int]:
        return _first_by_preimage(self.cp, self.filters)

    @cached_property
    def c_filter_witnesses(self) -> dict[int, int]:
        return _first_by_preimage(self.cp, self.ideals)

    @cached_property
    def c_ideals(self) -> list[int]:
        return [i for i in self.ideals if i in self.c_ideal_witnesses]

    @cached_property
    def c_filters(self) -> list[int]:
        return [f for f in self.filters if f in self.c_filter_witnesses]

    @cached_property
    def ccond_ideals(self) -> list[int]:
        return [i for i in self.ideals if self.cp.c_condition(i)]

    @cached_property
    def ccond_filters(self) -> list[int]:
        return [f for f in self.filters if self.cp.c_condition(f)]


def classify(
    cp: ComplementedPoset, mask: int, analysis: Analysis | None = None
) -> SubsetClassification:
    """Compute every classification flag of one subset.

    Pass the ``analysis`` of ``cp`` to share it when classifying many
    subsets of the same poset.
    """
    p = cp.poset
    p.check_mask(mask)
    a = analysis or Analysis(p, cp)
    ideal_flag = mask in a.ideals
    filter_flag = mask in a.filters
    proper = (ideal_flag or filter_flag) and mask != p.all_mask
    return SubsetClassification(
        subject=mask,
        is_ideal=ideal_flag,
        is_filter=filter_flag,
        proper=proper,
        principal_generator=principal_generator(p, mask),
        maximal_ideal=ideal_flag and mask in a.maximal_ideals,
        prime_ideal=ideal_flag and mask in a.prime_ideals,
        ultrafilter=filter_flag and mask in a.ultrafilters,
        prime_filter=filter_flag and mask in a.prime_filters,
        c_ideal_witness=a.c_ideal_witnesses.get(mask) if ideal_flag else None,
        c_filter_witness=a.c_filter_witnesses.get(mask) if filter_flag else None,
        c_condition=cp.c_condition(mask),
    )


def lu_union(p: Poset, a: int, ideal_mask: int) -> tuple[int, bool]:
    """Union of the cones LU({a, i}) over i in the ideal, plus ideal status."""
    p.check_mask(ideal_mask)
    union = 0
    for i in iter_bits(ideal_mask):
        union |= p.lower_cone(p.up[a] & p.up[i])
    return union, is_ideal(p, union)


def ul_union(p: Poset, a: int, filter_mask: int) -> tuple[int, bool]:
    """Dual construction for filters: union of UL({a, f}) over f in the filter."""
    p.check_mask(filter_mask)
    union = 0
    for f in iter_bits(filter_mask):
        union |= p.upper_cone(p.down[a] & p.down[f])
    return union, is_filter(p, union)


def complement_pairing(p: Poset, mask: int) -> int:
    """The set complement P minus the given subset."""
    p.check_mask(mask)
    return p.all_mask & ~mask
