"""Complementations on bounded posets and their derived properties.

A complementation is a total unary map x -> x' with join(x, x') = top and
meet(x, x') = bottom for every x; the bounds must genuinely exist as the
join/meet of the pair.  The map need not be antitone nor an involution;
the property flags record which of the usual extras actually hold, and
everything downstream (ideal classification, theorem checks) branches on
them.

A complemented poset is immutable.  Its ``facts`` (c-ideals and the
c-condition) are a ``functools.cached_property``, built on first read, as
the poset's own ``facts`` are, and belong to this complementation alone.
Its order dual stays a method, ``dual()``, built on first call and kept
like the poset's, over the poset's kept dual and the same map; its
c-ideals are the c-filters of this complementation.  The flags,
``props``, are computed by the constructor and kept in a slot: most
statement checks and every separation read them, and the dual takes a
copy with two flags swapped instead of recomputing them.  De Morgan's
identities L(x,y)' = U(x',y') and U(x,y)' = L(x',y') hold exactly when
the map is an antitone bijection: with x = y = top the first makes the map
onto, with x = y it makes the map antitone, and an antitone bijection of a
finite poset is an order anti-automorphism, for which both hold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

from .errors import AxiomViolation, DuplicateName, NotBounded, PartialMap
from .poset import Poset, iter_bits


@dataclass(frozen=True)
class ComplementProperties:
    """Exhaustively verified flags of a validated complementation.

    ``involution`` implies ``x_le_xdd``, ``xdd_le_x`` and ``triple_identity``,
    and these four are computed independently so the implications can be
    cross-checked.  ``de_morgan`` (both identities L(x,y)' = U(x',y') and
    U(x,y)' = L(x',y')) is computed as "antitone and onto": with x = y = top
    the first identity makes the map onto, with x = y it makes it antitone,
    and an antitone bijection of a finite poset is an order
    anti-automorphism, for which both identities hold.
    """

    antitone: bool
    involution: bool
    x_le_xdd: bool
    xdd_le_x: bool
    triple_identity: bool
    de_morgan: bool


class ComplementedPoset:
    """A bounded poset together with a validated complementation."""

    __slots__ = ("poset", "comp", "props", "_dual", "__dict__")

    def __init__(self, poset: Poset, comp: Sequence[int]):
        if not poset.bounded:
            raise NotBounded("complementation requires both bottom and top")
        comp = tuple(comp)
        if len(comp) != poset.n:
            raise PartialMap("complement table must cover every element")
        if any(not 0 <= cx < poset.n for cx in comp):
            raise PartialMap("complement table names an element outside the poset")
        # join(x, x') is top exactly when U(x,x') = {top}, and meet(x, x')
        # is bottom exactly when L(x,x') = {bottom}
        top, bottom = 1 << poset.top, 1 << poset.bottom
        for x in range(poset.n):
            cx = comp[x]
            if poset.up[x] & poset.up[cx] != top:
                raise AxiomViolation(
                    poset.names[x],
                    f"join({poset.names[x]}, {poset.names[cx]}) is not the top element",
                )
            if poset.down[x] & poset.down[cx] != bottom:
                raise AxiomViolation(
                    poset.names[x],
                    f"meet({poset.names[x]}, {poset.names[cx]}) is not the bottom element",
                )
        self.poset = poset
        self.comp = comp
        self.props = self._compute_properties()
        self._dual = None

    def __repr__(self) -> str:
        table = " ".join(
            f"{self.poset.names[x]}->{self.poset.names[self.comp[x]]}" for x in range(self.poset.n)
        )
        return f"ComplementedPoset({table})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComplementedPoset)
            and self.poset == other.poset
            and self.comp == other.comp
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.comp))

    @cached_property
    def facts(self):
        """The :class:`~cideals.substructures.ComplementFacts` of this
        complementation; order facts stay on the poset."""
        from .substructures import ComplementFacts  # it imports this module

        return ComplementFacts(self)

    # -- the complement map on sets ------------------------------------------

    def comp_image(self, mask: int) -> int:
        """A' = {x' | x in A}, the pointwise image."""
        self.poset.check_mask(mask)
        out = 0
        for x in iter_bits(mask):
            out |= 1 << self.comp[x]
        return out

    def comp_preimage(self, mask: int) -> int:
        """A_0 = {x | x' in A}; monotone in A."""
        self.poset.check_mask(mask)
        out = 0
        for x in range(self.poset.n):
            if (mask >> self.comp[x]) & 1:
                out |= 1 << x
        return out

    def boolean_elements(self) -> int:
        """Elements with x'' = x; always contains bottom and top."""
        out = 0
        for x in range(self.poset.n):
            if self.comp[self.comp[x]] == x:
                out |= 1 << x
        return out

    def c_condition(self, mask: int) -> bool:
        """Does ``mask`` contain exactly one of x and x' for every x, that
        is, (x in mask) xor (x' in mask)?  On the one-element poset x = x',
        and no set qualifies."""
        self.poset.check_mask(mask)
        for x, cx in enumerate(self.comp):
            if not ((mask >> x) ^ (mask >> cx)) & 1:
                return False
        return True

    def dual(self) -> "ComplementedPoset":
        """Order-dual with the complement map unchanged, built on first call
        and kept; its own dual is this object.

        Nothing is re-validated: the axioms dualize (join and meet swap, as
        do top and bottom), and so do the flags.  x<=x'' and x''<=x trade
        places; antitone, De Morgan (an antitone bijection stays one; its two
        identities trade places) and the order-free involution and triple
        identity carry over.
        """
        if self._dual is None:
            dual = ComplementedPoset.__new__(ComplementedPoset)
            dual.poset, dual.comp = self.poset.dual(), self.comp
            props = self.props
            dual.props = replace(props, x_le_xdd=props.xdd_le_x, xdd_le_x=props.x_le_xdd)
            dual._dual = self
            self._dual = dual
        return self._dual

    # -- property computation -------------------------------------------------

    def _compute_properties(self) -> ComplementProperties:
        p, comp = self.poset, self.comp
        n = p.n
        antitone = all(
            p.le(comp[y], comp[x])
            for y in range(n)
            for x in iter_bits(p.down[y])
        )
        involution = all(comp[comp[x]] == x for x in range(n))
        x_le_xdd = all(p.le(x, comp[comp[x]]) for x in range(n))
        xdd_le_x = all(p.le(comp[comp[x]], x) for x in range(n))
        triple_identity = all(comp[comp[comp[x]]] == comp[x] for x in range(n))
        return ComplementProperties(
            antitone=antitone,
            involution=involution,
            x_le_xdd=x_le_xdd,
            xdd_le_x=xdd_le_x,
            triple_identity=triple_identity,
            de_morgan=antitone and len(set(comp)) == n,
        )


def attach_complementation(
    poset: Poset, mapping: Mapping[str, str] | Sequence[tuple[str, str]]
) -> ComplementedPoset:
    """Validate a complement table given by element names.

    Raises ``NotBounded``, ``PartialMap``, or ``AxiomViolation`` naming the
    lowest-indexed failing element.
    """
    if not poset.bounded:
        raise NotBounded("complementation requires both bottom and top")
    items = mapping.items() if isinstance(mapping, Mapping) else mapping
    table: dict[int, int] = {}
    for a, b in items:
        key = poset.index(a)
        if key in table:
            raise DuplicateName(f"duplicate complement entry for {a!r}")
        table[key] = poset.index(b)
    missing = [poset.names[x] for x in range(poset.n) if x not in table]
    if missing:
        raise PartialMap(f"complement table misses {', '.join(missing)}")
    return ComplementedPoset(poset, [table[x] for x in range(poset.n)])
