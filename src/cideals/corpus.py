"""Built-in benchmark instances and seeded random instance generation.

The five built-in entries transcribe the reference diagrams as data (cover
lists and complement tables), so a transcription fix never touches logic;
each entry also carries the classification lists published alongside the
diagrams, kept verbatim so the analyzer can diff its own computation against
them.  Published lists are optional: ``None`` means "not published", while
an empty set means "published as empty".

Random generation is deterministic in (size, seed): a layered DAG on the
middle elements plus forced bottom/top, and a backtracking search for a
complement table honoring requested property constraints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Iterable

from .complement import ComplementedPoset, attach_complementation
from .errors import BadSize, NotBounded, PosetError
from .poset import Poset, build_poset, iter_bits
from .substructures import CLASSES, family_rows

#: edge probability between rank-adjacent middle elements of random posets
DEFAULT_EDGE_DENSITY = 0.3

SUPPORTED_CONSTRAINTS = ("antitone", "involution")


def _listing(kind: str, klass: str):
    """A published list of the generators of one ``--class`` listing."""
    return field(default=None, metadata={"listing": (kind, klass)})


@dataclass(frozen=True)
class PublishedLists:
    """Classification lists as published with the reference diagrams.

    Ideal/filter lists are given by their principal generators; each field
    names the family and the ``--class`` class whose listing it publishes.
    """

    boolean: frozenset[str] | None = None
    maximal_ideals: frozenset[str] | None = _listing("ideal", "maximal")
    ultrafilters: frozenset[str] | None = _listing("filter", "ultrafilter")
    prime_ideals: frozenset[str] | None = _listing("ideal", "prime")
    prime_filters: frozenset[str] | None = _listing("filter", "prime")
    c_ideals: frozenset[str] | None = _listing("ideal", "c-ideal")
    c_filters: frozenset[str] | None = _listing("filter", "c-filter")
    c_condition_filters: frozenset[str] | None = _listing("filter", "c-condition")


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    poset: Poset
    cp: ComplementedPoset
    expected: PublishedLists


def _fs(tokens: str) -> frozenset[str]:
    return frozenset(tokens.split())


_RAW_CORPUS: list[dict] = [
    {
        "name": "fig1",
        "elements": "0 a b c 1",
        "covers": "0<a 0<b 0<c a<1 b<1 c<1",
        "comp": "0>1 a>b b>c c>b 1>0",
        "expected": PublishedLists(
            boolean=_fs("0 b c 1"),
            maximal_ideals=_fs("a b c"),
            ultrafilters=_fs("a b c"),
            prime_ideals=frozenset(),
            prime_filters=frozenset(),
            c_ideals=_fs("0 b 1"),
            c_filters=_fs("0 b 1"),
        ),
    },
    {
        "name": "fig2a",
        "elements": "0 a b c d e f g 1",
        "covers": "0<a 0<b 0<f 0<g a<c a<d b<c b<d c<e d<e e<1 f<1 g<1",
        "comp": "0>1 a>f b>f c>f d>f e>f f>e g>c 1>0",
        "expected": PublishedLists(
            boolean=_fs("0 e f 1"),
            maximal_ideals=_fs("e f g"),
            ultrafilters=_fs("a b f g"),
            prime_ideals=frozenset(),
            prime_filters=frozenset(),
            c_ideals=_fs("0 e f 1"),
            c_filters=_fs("0 g 1"),
            c_condition_filters=frozenset(),
        ),
    },
    {
        "name": "fig2b",
        "elements": "0 a b c d e f 1",
        "covers": "0<a 0<b 0<f a<c a<d b<c b<d c<e d<e e<1 f<1",
        "comp": "0>1 a>f b>f c>f d>f e>f f>e 1>0",
        "expected": PublishedLists(
            boolean=_fs("0 e f 1"),
            maximal_ideals=_fs("e f"),
            ultrafilters=_fs("a b f"),
            prime_ideals=_fs("e"),
            prime_filters=_fs("f"),
            c_ideals=_fs("0 e f 1"),
            c_filters=_fs("0 f 1"),
            c_condition_filters=_fs("f"),
        ),
    },
    {
        "name": "fig3",
        "elements": "0 a b c d d' c' b' a' 1",
        "covers": (
            "0<a 0<b 0<c 0<d "
            "a<d' a<c' a<b' b<d' b<a' c<d' c<a' d<c' d<b' d<a' "
            "d'<1 c'<1 b'<1 a'<1"
        ),
        "comp": "0>1 a>a' b>b' c>c' d>d' d'>d c'>c b'>b a'>a 1>0",
        "expected": PublishedLists(
            boolean=_fs("0 a b c d a' b' c' d' 1"),
            maximal_ideals=_fs("a' b' c' d'"),
            ultrafilters=_fs("a b c d"),
            prime_ideals=_fs("a' d'"),
            prime_filters=_fs("a b"),
            c_ideals=_fs("0 a b c d a' b' c' d' 1"),
            c_filters=_fs("0 a b c d a' b' c' d' 1"),
        ),
    },
    {
        "name": "fig4",
        "elements": "0 a b c d e e' d' c' b' a' 1",
        "covers": (
            "0<a 0<b 0<c 0<d "
            "a<e b<e c<e' d<e' "
            "a<b' b<a' c<d' d<c' "
            "e<d' e<c' e'<b' e'<a' "
            "d'<1 c'<1 b'<1 a'<1"
        ),
        "comp": "0>1 a>a' b>b' c>c' d>d' e>e' e'>e d'>d c'>c b'>b a'>a 1>0",
        "expected": PublishedLists(
            boolean=_fs("0 a b c d e e' a' b' c' d' 1"),
            maximal_ideals=_fs("a' b' c' d'"),
            ultrafilters=_fs("a b c d"),
            c_ideals=_fs("0 a b c d e e' a' b' c' d' 1"),
        ),
    },
]


def _parse_pairs(spec: str, sep: str) -> list[tuple[str, str]]:
    return [tuple(chunk.split(sep)) for chunk in spec.split()]


def builtin_corpus() -> list[CorpusEntry]:
    """The five built-in instances, validated on construction."""
    entries = []
    for raw in _RAW_CORPUS:
        poset = build_poset(raw["elements"].split(), _parse_pairs(raw["covers"], "<"))
        cp = attach_complementation(poset, _parse_pairs(raw["comp"], ">"))
        entries.append(CorpusEntry(raw["name"], poset, cp, raw["expected"]))
    return entries


def corpus_entry(name: str) -> CorpusEntry:
    for entry in builtin_corpus():
        if entry.name == name:
            return entry
    raise PosetError(f"no builtin instance named {name!r}")


def computed_lists(cp: ComplementedPoset) -> dict[str, frozenset[str]]:
    """Compute, by definition, the same lists the diagrams publish.

    Each ideal/filter list holds the generators of the rows of
    :func:`family_rows` that the ``--class`` class of its field selects.
    """
    p = cp.poset
    rows = {kind: family_rows(cp, kind) for kind in CLASSES}
    lists = {"boolean": frozenset(p.names_of(cp.boolean_elements()))}
    for listed in fields(PublishedLists)[1:]:  # all but boolean
        kind, klass = listed.metadata["listing"]
        flag = CLASSES[kind][klass]
        lists[listed.name] = frozenset(p.names[r.generator] for r in rows[kind] if getattr(r, flag))
    return lists


def published_divergences(entry: CorpusEntry) -> list[tuple[str, frozenset[str], frozenset[str]]]:
    """(list name, published, computed) triples where the two disagree."""
    computed = computed_lists(entry.cp)
    return [
        (field_name, published, computed[field_name])
        for field_name, published in vars(entry.expected).items()
        if published is not None and published != computed[field_name]
    ]


# -- random generation --------------------------------------------------------


def random_poset(n: int, seed: int, density: float = DEFAULT_EDGE_DENSITY) -> Poset:
    """A random bounded poset, deterministic in (n, seed).

    Middle elements are placed on ranks; edges appear between adjacent ranks
    with the configured density; bottom/top close the order.
    """
    if not 2 <= n <= 24:
        raise BadSize(f"size must be between 2 and 24, got {n}")
    rng = random.Random(f"poset:{n}:{seed}")
    mids = [f"x{i}" for i in range(1, n - 1)]
    # 0 < m < 1 for every middle element m: the closure puts the bounds there anyway
    pairs = [("0", "1"), *(("0", m) for m in mids), *((m, "1") for m in mids)]
    if mids:
        nranks = rng.randint(1, len(mids))
        ranks: list[list[str]] = [[] for _ in range(nranks)]
        for m in mids:
            ranks[rng.randrange(nranks)].append(m)
        ranks = [r for r in ranks if r]
        pairs += [(a, b) for lower, upper in zip(ranks, ranks[1:]) for a in lower for b in upper
                  if rng.random() < density]
    return build_poset(["0", *mids, "1"], pairs)


def random_complementation(
    p: Poset, seed: int, constraints: Iterable[str] = ()
) -> list[tuple[str, str]] | None:
    """Search for a complement table on ``p``, honoring constraint flags.

    ``constraints`` may contain "antitone" and/or "involution".  The search
    assigns images in a seeded order and prunes on the axioms plus any
    partially-checkable constraint; returns the table as name pairs, or
    ``None`` when no valid map exists.
    """
    if not p.bounded:
        raise NotBounded("random complementation needs a bounded poset")
    wanted = set(constraints)
    unknown = wanted.difference(SUPPORTED_CONSTRAINTS)
    if unknown:
        raise PosetError(f"unsupported constraint flags: {sorted(unknown)}")
    n = p.n
    antitone, involution = "antitone" in wanted, "involution" in wanted
    if involution and n % 2 and n > 1:
        return None  # x' = x forces x = top = bottom, so an involution pairs the elements off
    rng = random.Random(f"comp:{n}:{seed}:{','.join(sorted(wanted))}")
    # join(x, y) is top exactly when U(x,y) = {top}, and meet(x, y) is
    # bottom exactly when L(x,y) = {bottom}; both tests are symmetric in x, y
    top, bottom = 1 << p.top, 1 << p.bottom
    candidates: list[list[int]] = []
    for x in range(n):
        options = [
            y
            for y in range(n)
            if p.up[x] & p.up[y] == top and p.down[x] & p.down[y] == bottom
        ]
        if not options:
            return None
        rng.shuffle(options)
        candidates.append(options)
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    comp: list[int | None] = [None] * n

    def antitone_ok(x: int, y: int) -> bool:
        """Would x' := y keep z <= x => x' <= z' and x <= z => z' <= x' for
        every assigned z other than x?  Only z in x's cones can fail."""
        return all(
            comp[z] is None or (p.le(y, comp[z]) if p.le(z, x) else p.le(comp[z], y))
            for z in iter_bits((p.down[x] | p.up[x]) & ~(1 << x))
        )

    def assign(k: int) -> bool:
        if k == n:
            return True
        x = order[k]
        if comp[x] is not None:  # the partner of an earlier element under involution
            return assign(k + 1)
        for y in candidates[x]:
            # under involution every assigned element is paired, so an assigned y is taken
            moves = [(x, y), (y, x)] if involution else [(x, y)]
            if involution and comp[y] is not None or antitone and not all(antitone_ok(*m) for m in moves):
                continue
            for a, b in moves:
                comp[a] = b
            if assign(k + 1):
                return True
            for a, _ in moves:
                comp[a] = None
        return False

    if not assign(0):
        return None
    return [(p.names[x], p.names[comp[x]]) for x in range(n)]


# -- deterministic campaign instances -----------------------------------------

_PROFILES: tuple[frozenset[str], ...] = (
    frozenset(),
    frozenset({"antitone"}),
    frozenset({"involution"}),
    frozenset({"antitone", "involution"}),
)

_RANDOM_ATTEMPTS = 64


def _template_instance(n: int, profile: frozenset[str]) -> ComplementedPoset:
    """Bounds plus an antichain of middle elements; always complementable."""
    if n % 2 and "involution" in profile:
        n += 1  # an involution pairs elements off, so it needs an even size
    if n < 4:
        poset = build_poset(["0", "1"], [("0", "1")])
        return attach_complementation(poset, [("0", "1"), ("1", "0")])
    mids = [f"x{i}" for i in range(1, n - 1)]
    poset = build_poset(["0", *mids, "1"], [("0", m) for m in mids] + [(m, "1") for m in mids])
    table = [("0", "1"), ("1", "0")]
    if "involution" in profile:
        for a, b in zip(mids[0::2], mids[1::2]):
            table += [(a, b), (b, a)]
    else:
        table += [(m, mids[(i + 1) % len(mids)]) for i, m in enumerate(mids)]
    return attach_complementation(poset, table)


def random_complemented_poset(
    seed: int, max_size: int = 10
) -> tuple[ComplementedPoset, frozenset[str]]:
    """A deterministic complemented poset for campaign seeds.

    Cycles through constraint profiles by seed; sizes avoid 3 (no bounded
    3-element poset is complemented) and stay even when an involution is
    required.  Falls back to an antichain template if the random search
    finds nothing after a fixed number of attempts.  Raises BadSize unless
    2 <= max_size <= 24, the sizes ``random_poset`` accepts.
    """
    if not 2 <= max_size <= 24:
        raise BadSize(f"max_size must be between 2 and 24, got {max_size}")
    profile = _PROFILES[seed % len(_PROFILES)]
    sizes = [s for s in range(2, max_size + 1) if s != 3]
    if "involution" in profile:
        sizes = [s for s in sizes if s % 2 == 0]
    n = sizes[(seed // len(_PROFILES)) % len(sizes)]
    for attempt in range(_RANDOM_ATTEMPTS):
        sub_seed = seed * _RANDOM_ATTEMPTS + attempt
        p = random_poset(n, sub_seed)
        table = random_complementation(p, sub_seed, constraints=profile)
        if table is not None:
            return attach_complementation(p, table), profile
    return _template_instance(n, profile), profile
