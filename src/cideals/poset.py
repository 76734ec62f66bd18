"""Finite posets with cached cones, covers, bounds and pair tables.

Elements are dense indices ``0..n-1`` with unique display names.  Subsets are
plain ``int`` bitmasks over those indices, so every cone and ideal
computation is a handful of integer operations.  ``gen`` caps its random
posets at 24 elements; ``scripts/scaling.py`` decides instances up to B9
(n = 512) and the bounds plus a 512-antichain (n = 514).

A poset is immutable after construction; every operation here is a pure
function of its arguments and is safe for concurrent reads.  The
constructor checks the order and keeps the cones and bounds in
``__slots__``, which the hot loops read.  Every derived value is a
:class:`fact`, built from the cones on first read and kept in the instance
dict: the cover relation ``covers``, which only the DOT and instance-file
writers read, the pair table ``lu``, and ``facts``, the facts of the order
alone (the ideal family and its flags, distributivity).  ``fact`` does what
``functools.cached_property`` did here without its lock: on Python 3.10 and
3.11 that descriptor takes one lock per class on every fill.  The
order dual stays a method, ``dual()``, built on first call and kept: it is
linked back to this object before it is stored, and it is a method that
``perfbench/spans.py`` traces.  Each value is built whole before it is
stored and the fill is idempotent, so readers racing on it at worst build
the same value twice.  Every result record of the package, such as
:class:`DistributivityReport`, is made by :func:`record`, the helper
beside ``fact``: a frozen dataclass whose ``__init__`` fills the instance
dict in one update, not one ``object.__setattr__`` call per field.  The
filters of a poset are the ideals of its dual, so every filter fact is
read from ``dual().facts``, and the pair table U(L(x,y)) is
``dual().lu``.  Each dual method has one body:
``upper_cone``, ``least`` and ``is_dual_distributive`` call
``lower_cone``, ``greatest`` and ``is_distributive`` on the kept dual.  The
meet of x and y, when it exists, is ``greatest(down[x] & down[y])``.  A
pair with a join j has the pair-table cell ``down[j]``, and the semilattice
flags are read off the two pair tables.
Distributivity is decided by one test per pair of elements, on the
join-irreducibles of the Dedekind-MacNeille completion, not by a scan of
every triple.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Iterator, Sequence

from .errors import CycleDetected, DuplicateName, PosetError, UnknownName

#: characters that would make the instance-file / report / DOT grammars
#: ambiguous; display names may not contain them (nor any whitespace)
FORBIDDEN_NAME_CHARS = set("{},()=#<>;")
RESERVED_NAMES = frozenset({"none", "true", "false"})


def _validate_names(names: Sequence[str]) -> None:
    """Each test is one C-level call: ``str.split()`` splits at exactly the
    characters ``str.isspace`` accepts, so a name splits into itself alone
    exactly when it is nonempty and has no whitespace."""
    seen = set()
    for name in names:
        if name.split() != [name]:
            raise PosetError(f"invalid element name {name!r}: empty or has whitespace")
        if not FORBIDDEN_NAME_CHARS.isdisjoint(name):
            raise PosetError(f"invalid element name {name!r}: reserved character")
        if name in RESERVED_NAMES:
            raise PosetError(f"invalid element name {name!r}: reserved word")
        if name in seen:
            raise DuplicateName(f"duplicate element name {name!r}")
        seen.add(name)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: swaps the digits 0 and 1 of a binary string
_FLIP = str.maketrans("01", "10")


def sort_key(mask: int) -> tuple[int, str]:
    """Deterministic ordering of subsets: by size, then lexicographically by
    the increasing tuple of members, with a key built by C-level calls.

    For a nonempty set the string holds, at each place i below
    ``mask.bit_length()``, "0" when i is a member and "1" when it is not;
    the empty set is alone in its size.  Take two distinct sets of equal
    size and d, the lowest element in exactly one of them.  Below d they
    have the same members, so their tuples agree up to there, and the next
    entry is d in the set holding it and a larger member in the other, which
    has one because the sizes are equal: the set holding d comes first.
    Both strings reach place d, since each set has a member of at least d,
    and agree below it; at d the set holding d has "0" and the other "1".
    So neither key is a prefix of the other, and the strings compare as the
    tuples do.
    """
    return (mask.bit_count(), format(mask, "b")[::-1].translate(_FLIP))


class fact:
    """A value derived from its object alone, built on first read and then
    kept in the instance dict, where later reads find it before this
    non-data descriptor.  The value is built whole and then stored, so a
    reader never sees a part of it; readers racing on one fill at worst
    build it twice and store equal values.  Read on the class, it is the
    descriptor itself, with the builder's docstring."""

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


def record(cls):
    """Make ``cls`` a frozen dataclass whose ``__init__`` fills the instance
    dict in one update; the ``__init__`` that ``dataclass`` generates for a
    frozen class sets each field through its own ``object.__setattr__``
    call, about twice the cost.  The parameters, their defaults and
    annotations are the ones ``dataclass`` would generate, and equality,
    hashing, ``asdict``, ``replace`` and ``FrozenInstanceError`` are the
    dataclass's own.  Only fields with no default or a plain one are
    accepted: a ``default_factory``, ``init=False`` or ``__post_init__``
    raises TypeError."""
    cls = dataclass(frozen=True, init=False)(cls)
    fs = fields(cls)
    if hasattr(cls, "__post_init__") or any(f.default_factory is not MISSING or not f.init for f in fs):
        raise TypeError(f"record {cls.__qualname__} has a field that is not plain")
    defaults = {f"_d_{f.name}": f.default for f in fs if f.default is not MISSING}
    params = ", ".join(f"{f.name}=_d_{f.name}" if f"_d_{f.name}" in defaults else f.name for f in fs)
    update = ", ".join(f"{f.name}={f.name}" for f in fs)
    exec(f"def __init__(self, {params}):\n    self.__dict__.update({update})", defaults)
    init = cls.__init__ = defaults["__init__"]
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fs}, "return": None}
    return cls


@record
class DistributivityReport:
    """Whether L(U(x,y),z) = LU(L(x,z),L(y,z)) holds for every triple.

    ``witness`` is the lexicographically first violating triple of element
    indices, or ``None`` when the identity holds everywhere; ``lhs``/``rhs``
    are the two computed sides for that triple.
    """

    holds: bool
    witness: tuple[int, int, int] | None = None
    lhs: int | None = None
    rhs: int | None = None


class Poset:
    """A finite poset over named elements.

    ``down[i]`` is the bitmask of elements <= i, ``up[i]`` of elements >= i.
    ``covers`` is the transitive reduction of the strict order, built on
    first read.  ``bottom`` and ``top`` are element indices or ``None``;
    they are detected, never required.  ``lu[x][y]`` is L(U(x,y)); U(L(x,y))
    is ``dual().lu[x][y]``.
    """

    __slots__ = ("n", "names", "down", "up", "bottom", "top", "all_mask", "_index", "_dual", "__dict__")

    def __init__(self, names: Sequence[str], down: Sequence[int]):
        _validate_names(names)
        n = len(names)
        if n < 1:
            raise PosetError("a poset needs at least one element")
        all_mask = (1 << n) - 1
        down = tuple(down)
        if len(down) != n:
            raise PosetError(f"{len(down)} down-cones for {n} elements")
        if any(d < 0 or d & ~all_mask for d in down):
            raise PosetError("a down-cone is outside this poset's universe")
        # reflexivity, antisymmetry, transitivity are all machine-checked
        # here; the same pass fills the up-cones
        for i in range(n):
            if not (down[i] >> i) & 1:
                raise PosetError(f"relation not reflexive at {names[i]!r}")
        up = [0] * n
        for j, dj in enumerate(down):
            bit, rest = 1 << j, dj
            while rest:  # iter_bits inlined: this is a hot kernel
                low = rest & -rest
                i = low.bit_length() - 1
                di = down[i]
                if di & bit and i != j:
                    raise CycleDetected(f"{names[i]!r} <= {names[j]!r} <= {names[i]!r}")
                if di & ~dj:
                    raise PosetError(f"relation not transitive below {names[j]!r}")
                up[i] |= bit
                rest ^= low
        self.n = n
        self.names = tuple(names)
        self.down = down
        self.up = tuple(up)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.all_mask = all_mask
        self.bottom = next((i for i in range(n) if self.up[i] == all_mask), None)
        self.top = next((i for i in range(n) if down[i] == all_mask), None)
        self._dual = None

    # -- basics ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poset({self.n} elements: {' '.join(self.names)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.names == other.names
            and self.down == other.down
        )

    def __hash__(self) -> int:
        return hash((self.names, self.down))

    @property
    def bounded(self) -> bool:
        return self.bottom is not None and self.top is not None

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownName(f"unknown element name {name!r}") from None

    def le(self, i: int, j: int) -> bool:
        return bool((self.down[j] >> i) & 1)

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(self.names[i] for i in iter_bits(mask))

    def format_set(self, mask: int) -> str:
        self.check_mask(mask)
        names, out = self.names, []
        while mask:  # iter_bits inlined: this is a hot kernel
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return "{" + ",".join(out) + "}"

    def check_mask(self, mask: int) -> None:
        if mask < 0 or mask & ~self.all_mask:
            raise PosetError("element set is outside this poset's universe")

    # -- cones and bounds ----------------------------------------------------

    def lower_cone(self, mask: int) -> int:
        """All elements below every member of ``mask``; the whole poset for {}."""
        self.check_mask(mask)
        down, result = self.down, self.all_mask
        while mask:  # iter_bits inlined: this is a hot kernel
            low = mask & -mask
            result &= down[low.bit_length() - 1]
            mask ^= low
        return result

    def upper_cone(self, mask: int) -> int:
        return self.dual().lower_cone(mask)

    def greatest(self, mask: int) -> int | None:
        """The maximum element of ``mask``, if it has one."""
        for g in iter_bits(mask):
            if not mask & ~self.down[g]:
                return g
        return None

    def least(self, mask: int) -> int | None:
        return self.dual().greatest(mask)

    @fact
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The transitive reduction of the strict order as sorted (lower,
        upper) index pairs: i < j with nothing strictly between them.
        Cost: one cone intersection per pair i < j, at most n^2 mask
        operations (each on an n-bit integer)."""
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in iter_bits(self.up[i] ^ (1 << i))
            if self.up[i] & self.down[j] == (1 << i) | (1 << j)
        )

    @fact
    def lu(self) -> tuple[tuple[int, ...], ...]:
        """The pair table ``lu[x][y]`` = L(U(x,y)).

        When U(x,y) is an up-cone ``up[j]``, that is when x and y have the
        join j, the cell is ``down[j]`` without a cone intersection: an
        element below every member of ``up[j]`` is below j, and every
        element below j is below all of ``up[j]``.  Only the other pairs
        take ``lower_cone``.

        Cost: n^2 cells of one intersection and one lookup each, so n^2
        mask operations on a lattice; each pair without a join adds a
        ``lower_cone`` of up to n members, so O(n^3) at worst.
        """
        cells = dict(zip(self.up, self.down))  # up[j] -> down[j], never 0
        return tuple(tuple([cells.get(ux & uy) or self.lower_cone(ux & uy) for uy in self.up]) for ux in self.up)

    @fact
    def facts(self):
        """The order's :class:`~cideals.substructures.OrderFacts`, shared by
        every complementation on this object.  Cost: O(1); each fact costs
        its own when first read."""
        from .substructures import OrderFacts  # it imports this module

        return OrderFacts(self)

    # -- global structure ----------------------------------------------------

    def is_distributive(self) -> DistributivityReport:
        """Decide L(U(x,y),z) = LU(L(x,z),L(y,z)) for all x, y, z by pairs.

        Both sides are symmetric in x and y, so the report names the first
        violating triple (x, y, z) with x <= y (as indices), in the order
        x, then y, then z.  Write J for the elements j such that LU of the
        elements strictly below j is not down(j): the join-irreducibles of
        the Dedekind-MacNeille completion, in which P is join-dense.  A pair
        (x, y) has a violating z exactly when some j in J and in LU(x,y)
        lies below neither x nor y:

        - if so, take z = j: the left side is down(j), and the right side
          lies inside LU of the elements strictly below j, which is not
          down(j);
        - if not, the right side always lies inside the left.  Every w in
          the left side lies in LU of the members of J below w, and each of
          those is below z and in LU(x,y), so below x or below y, hence in
          L(x,z) or L(y,z); so w lies in the right side.

        So the first pair that fails this test is the first pair with any
        violating z, and one pass over z gives the triple and both sides.
        The test reads J only on LU(x,y) outside L(x) and L(y), so an
        element is decided the first time a pair reads it, and an order
        that fails early decides few.

        Cost: at most 2n closures, one per element decided and one per z of
        the final pass, each two ``lower_cone`` calls: at most 4n calls.
        """
        down, upper_cone = self.down, self.dual().lower_cone

        def closure(mask: int) -> int:
            return self.lower_cone(upper_cone(mask))

        undecided, irreducible = self.all_mask, 0
        for x, row in enumerate(self.lu):
            dx = down[x]
            for y in range(x, self.n):
                over = row[y] & ~(dx | down[y])
                if over & undecided:
                    for j in iter_bits(over & undecided):
                        if closure(down[j] ^ (1 << j)) != down[j]:
                            irreducible |= 1 << j
                    undecided &= ~over
                if over & irreducible:
                    below = dx | down[y]
                    for z, dz in enumerate(down):
                        lhs, rhs = row[y] & dz, closure(dz & below)
                        if lhs != rhs:
                            return DistributivityReport(False, (x, y, z), lhs, rhs)
                    raise PosetError("internal error: a join-irreducible of LU(x,y) gave no violating z")
        return DistributivityReport(True)

    def is_dual_distributive(self) -> DistributivityReport:
        """The dual identity U(L(x,y),z) = UL(U(x,z),U(y,z)); equivalent globally."""
        return self.dual().is_distributive()

    def semilattice_flags(self) -> tuple[bool, bool]:
        """(is_join_semilattice, is_meet_semilattice), read off the pair
        tables of this poset and of its dual.

        x and y have a join exactly when ``lu[x][y]`` is a principal cone
        ``down[g]``: a join j gives the cell ``down[j]`` (see :attr:`lu`),
        and conversely U(x,y) = UL(U(x,y)) = U(down[g]) = ``up[g]``, so g is
        the least upper bound.  The meets are the joins of the dual.
        """
        return tuple(q.facts.down_generator.keys() >= set().union(*q.lu) for q in (self, self.dual()))

    def dual(self) -> "Poset":
        """The order-dual poset over the same named elements, built on first
        call and kept; its own dual is this object.  Nothing is re-validated:
        the cones and the bounds swap."""
        if self._dual is None:
            dual = Poset.__new__(Poset)
            dual.n, dual.names, dual.all_mask, dual._index = self.n, self.names, self.all_mask, self._index
            dual.down, dual.up, dual.bottom, dual.top = self.up, self.down, self.top, self.bottom
            dual._dual = self
            self._dual = dual
        return self._dual

    def cover_pairs(self) -> list[tuple[str, str]]:
        return [(self.names[i], self.names[j]) for i, j in self.covers]


def build_poset(names: Sequence[str], pairs: Iterable[tuple[str, str]]) -> Poset:
    """Build a poset from element names and any subset of its order.

    ``pairs`` are (lower, upper) name pairs; the reflexive-transitive closure
    is always taken, so inputs may mix covers with longer relations.  Raises
    ``CycleDetected`` when the closure would violate antisymmetry.

    The closure is one pass of Warshall's algorithm over the down-cones:
    after pivot k, ``down[j]`` holds every i with a path i -> ... -> j whose
    inner points are all among the first k + 1 elements.  The names are
    validated once, by ``Poset``; an unknown name in ``pairs`` is reported
    first.
    """
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    down = [1 << i for i in range(n)]
    for a, b in pairs:
        for name in (a, b):
            if name not in index:
                raise UnknownName(f"unknown element name {name!r}")
        down[index[b]] |= 1 << index[a]
    for k in range(n):
        for j in range(n):
            if (down[j] >> k) & 1:
                down[j] |= down[k]
    return Poset(names, down)
