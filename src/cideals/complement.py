"""Complementations on bounded posets and their derived properties.

A complementation is a total unary map x -> x' with join(x, x') = top and
meet(x, x') = bottom for every x; the bounds must genuinely exist as the
join/meet of the pair.  The map need not be antitone nor an involution;
the property flags record which of the usual extras actually hold, and
everything downstream (ideal classification, theorem checks) branches on
them.

A complemented poset is immutable.  Its ``facts`` (c-ideals and the
ideals with the c-condition) are a :class:`~cideals.poset.fact`, built on
first read and kept, as the poset's own ``facts`` are, without the
class-wide lock that ``functools.cached_property`` takes on every fill on
Python 3.10 and 3.11; they belong to this complementation alone.  Its
order dual stays a method, ``dual()``, built on
first call and kept like the poset's, over the poset's kept dual and the
same map; its c-ideals are the c-filters of this complementation.  The
constructor keeps, in slots, the map, the flags ``props`` and the preimage
table ``pre``: ``pre[y]`` is the mask of the x with x' = y, so the preimage
A_0 of a set A is the OR of ``pre[y]`` over its members.  It also keeps the
preimages of the 2n principal cones, the sets nearly every preimage is
taken of, so each of those is one table read; a mask a caller passes is
computed afresh and never stored.  The cones of the order dual are the
same 2n masks and the map is the same, so the dual shares both tables.
Most statement checks and every separation read the flags, and the dual
takes a copy with two flags swapped instead of recomputing them.  De Morgan's
identities L(x,y)' = U(x',y') and U(x,y)' = L(x',y') hold exactly when
the map is an antitone bijection: with x = y = top the first makes the map
onto, with x = y it makes the map antitone, and an antitone bijection of a
finite poset is an order anti-automorphism, for which both hold.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import AxiomViolation, DuplicateName, NotBounded, PartialMap, UnknownName
from .poset import Poset, fact, iter_bits, record


@record
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

    __slots__ = ("poset", "comp", "pre", "_cone_pre", "props", "_dual", "__dict__")

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
        pre = [0] * poset.n
        for x, cx in enumerate(comp):
            pre[cx] |= 1 << x
        self.poset = poset
        self.comp = comp
        self.pre = tuple(pre)
        self._cone_pre = {cone: _gather(pre, cone) for cone in poset.down + poset.up}
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

    @fact
    def facts(self):
        """The :class:`~cideals.substructures.ComplementFacts` of this
        complementation; order facts stay on the poset.  Cost: O(1); each
        fact costs its own when first read."""
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
        """A_0 = {x | x' in A}, the OR of ``pre[y]`` over y in A; monotone
        in A.  A principal cone's is read from the kept cone table."""
        out = self._cone_pre.get(mask)
        if out is None:
            self.poset.check_mask(mask)
            out = _gather(self.pre, mask)
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
        and no set qualifies.

        x' lies in ``mask`` exactly when x lies in its preimage, so the
        condition says that x lies in the preimage exactly when x is not in
        ``mask``, for every x: the preimage is the complement of ``mask``.
        """
        return self.comp_preimage(mask) == self.poset.all_mask & ~mask

    def dual(self) -> "ComplementedPoset":
        """Order-dual with the complement map unchanged, built on first call
        and kept; its own dual is this object.  It shares the preimage
        table and the cone table: the map is the same, and the dual's
        cones are the same 2n masks.

        Nothing is re-validated: the axioms dualize (join and meet swap, as
        do top and bottom), and so do the flags.  x<=x'' and x''<=x trade
        places; antitone, De Morgan (an antitone bijection stays one; its two
        identities trade places) and the order-free involution and triple
        identity carry over.
        """
        if self._dual is None:
            dual = ComplementedPoset.__new__(ComplementedPoset)
            dual.poset, dual.comp, dual.pre, dual._cone_pre = self.poset.dual(), self.comp, self.pre, self._cone_pre
            props = self.props
            dual.props = ComplementProperties(
                props.antitone, props.involution, props.xdd_le_x, props.x_le_xdd,
                props.triple_identity, props.de_morgan,
            )
            dual._dual = self
            self._dual = dual
        return self._dual

    # -- property computation -------------------------------------------------

    def _compute_properties(self) -> ComplementProperties:
        """All six flags in one pass over the elements.  The map is antitone
        when y <= x gives x' <= y', that is when every y in ``down[x]`` has
        y' in ``up[x']``: one mask test per x.  Each other flag is one
        comparison per x."""
        comp, cone_pre, down, up = self.comp, self._cone_pre, self.poset.down, self.poset.up
        antitone = involution = x_le_xdd = xdd_le_x = triple_identity = True
        for x, cx in enumerate(comp):
            cxx = comp[cx]
            if down[x] & ~cone_pre[up[cx]]:
                antitone = False
            if cxx != x:
                involution = False
            if not (down[cxx] >> x) & 1:
                x_le_xdd = False
            if not (down[x] >> cxx) & 1:
                xdd_le_x = False
            if comp[cxx] != cx:
                triple_identity = False
        return ComplementProperties(
            antitone=antitone,
            involution=involution,
            x_le_xdd=x_le_xdd,
            xdd_le_x=xdd_le_x,
            triple_identity=triple_identity,
            de_morgan=antitone and len(set(comp)) == len(comp),
        )


def _gather(table: Sequence[int], mask: int) -> int:
    """The OR of ``table[y]`` over the members y of ``mask``."""
    out = 0
    while mask:  # iter_bits inlined: this is a hot kernel
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


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
    index = poset._index
    table: dict[int, int] = {}
    try:
        for a, b in items:
            key = index[a]
            if key in table:
                raise DuplicateName(f"duplicate complement entry for {a!r}")
            table[key] = index[b]
    except KeyError as exc:  # only a name lookup raises it
        raise UnknownName(f"unknown element name {exc.args[0]!r}") from None
    missing = [poset.names[x] for x in range(poset.n) if x not in table]
    if missing:
        raise PartialMap(f"complement table misses {', '.join(missing)}")
    return ComplementedPoset(poset, [table[x] for x in range(poset.n)])
