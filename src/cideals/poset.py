"""Finite posets with cached cones, covers, bounds, meets and joins.

Elements are dense indices ``0..n-1`` with unique display names.  Subsets are
plain ``int`` bitmasks over those indices, which keeps every cone and ideal
computation a handful of word operations at the target scale (n <= 24).

A poset is immutable after construction; every operation here is a pure
function of its arguments and is safe for concurrent reads.  The
constructor checks the order and keeps the cones and bounds in
``__slots__``, which the hot loops read.  Every derived value is a
``functools.cached_property``, built from the cones on first read and kept
in the instance dict: the cover relation ``covers``, which only the DOT and
instance-file writers read, the pair table ``lu``, and ``facts``, the facts
of the order alone (the ideal family and its flags, distributivity).  The
order dual stays a method, ``dual()``, built on first call and kept: it is
linked back to this object before it is stored, and it is a method that
``perfbench/spans.py`` traces.  Each value is built whole before it is
stored and the fill is idempotent, so readers racing on it at worst build
the same value twice.  The filters of a poset are the ideals of its dual,
so every filter fact is read from ``dual().facts``, and ``ul`` is
``dual().lu``.  Each dual method has one
body: ``upper_cone``, ``least``, ``join`` and ``is_dual_distributive`` call
``lower_cone``, ``greatest``, ``meet`` and ``is_distributive`` on the kept
dual, and the semilattice flags are one all-meets scan run on both.
Distributivity is decided by one test per pair of elements, on the
join-irreducibles of the Dedekind-MacNeille completion, not by a scan of
every triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CycleDetected, DuplicateName, PosetError, UnknownName

#: characters that would make the instance-file / report / DOT grammars
#: ambiguous; display names may not contain them (nor any whitespace)
FORBIDDEN_NAME_CHARS = set("{},()=#<>")
RESERVED_NAMES = frozenset({"none", "true", "false"})


def _validate_names(names: Sequence[str]) -> None:
    seen = set()
    for name in names:
        if not name or any(ch.isspace() for ch in name):
            raise PosetError(f"invalid element name {name!r}: empty or has whitespace")
        if any(ch in FORBIDDEN_NAME_CHARS for ch in name):
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


def sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Deterministic ordering of subsets: by size, then lexicographic."""
    return (mask.bit_count(), tuple(iter_bits(mask)))


@dataclass(frozen=True)
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
    they are detected, never required.  ``lu[x][y]`` is L(U(x,y)) and ``ul[x][y]`` is U(L(x,y)).
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
        for j in range(n):
            for i in iter_bits(down[j]):
                if i != j and (down[i] >> j) & 1:
                    raise CycleDetected(f"{names[i]!r} <= {names[j]!r} <= {names[i]!r}")
                if down[i] & ~down[j]:
                    raise PosetError(f"relation not transitive below {names[j]!r}")
                up[i] |= 1 << j
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
        return "{" + ",".join(self.names_of(mask)) + "}"

    def check_mask(self, mask: int) -> None:
        if mask < 0 or mask & ~self.all_mask:
            raise PosetError("element set is outside this poset's universe")

    # -- cones and bounds ----------------------------------------------------

    def lower_cone(self, mask: int) -> int:
        """All elements below every member of ``mask``; the whole poset for {}."""
        self.check_mask(mask)
        result = self.all_mask
        for y in iter_bits(mask):
            result &= self.down[y]
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

    def meet(self, x: int, y: int) -> int | None:
        """Greatest element of L(x,y), or ``None``; absence is a value."""
        return self.greatest(self.down[x] & self.down[y])

    def join(self, x: int, y: int) -> int | None:
        return self.dual().meet(x, y)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The transitive reduction of the strict order as sorted (lower,
        upper) index pairs: i < j with nothing strictly between them."""
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in iter_bits(self.up[i] ^ (1 << i))
            if self.up[i] & self.down[j] == (1 << i) | (1 << j)
        )

    @cached_property
    def lu(self) -> tuple[tuple[int, ...], ...]:
        """The pair table ``lu[x][y]`` = L(U(x,y)), once per unordered pair."""
        rows = [[0] * self.n for _ in range(self.n)]
        for x in range(self.n):
            for y in range(x, self.n):
                rows[x][y] = rows[y][x] = self.lower_cone(self.up[x] & self.up[y])
        return tuple(map(tuple, rows))

    @property
    def ul(self) -> tuple[tuple[int, ...], ...]:
        """The pair table ``ul[x][y]`` = U(L(x,y)): the dual's ``lu``."""
        return self.dual().lu

    @cached_property
    def facts(self):
        """The order's :class:`~cideals.substructures.OrderFacts`, shared by
        every complementation on this object."""
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
        """
        down, upper_cone = self.down, self.dual().lower_cone

        def closure(mask: int) -> int:
            return self.lower_cone(upper_cone(mask))

        irreducible = sum(1 << j for j, dj in enumerate(down) if closure(dj & ~(1 << j)) != dj)
        for x, row in enumerate(self.lu):
            for y in range(x, self.n):
                below = down[x] | down[y]
                if row[y] & irreducible & ~below:
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
        """(is_join_semilattice, is_meet_semilattice): the joins are the
        meets of the dual, so one all-meets scan runs on the dual, then here."""
        return tuple(
            all(q.meet(x, y) is not None for x in range(q.n) for y in range(x, q.n))
            for q in (self.dual(), self)
        )

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
