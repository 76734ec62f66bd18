import functools
import importlib.util
import itertools
import operator
import random
from pathlib import Path

import pytest

import naive
from cideals import (
    Instance,
    Poset,
    attach_complementation,
    build_poset,
    builtin_corpus,
    emit_instance,
    enumerate_filters,
    enumerate_ideals,
    is_filter,
    is_ideal,
    random_complementation,
    random_complemented_poset,
)
from cideals.poset import iter_bits
from cideals.substructures import is_prime_ideal

ROOT = Path(__file__).resolve().parents[1]

#: ``scripts/machine_digests.py`` as a module, loaded once: the digest tests
#: read its constants and helpers, and every test its instance builders
_spec = importlib.util.spec_from_file_location("machine_digests", ROOT / "scripts" / "machine_digests.py")
SCRIPT = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(SCRIPT)
#: (elements, cover pairs, complement) of B_dim and of bounds plus a k-antichain
boolean_lattice, bounded_antichain = SCRIPT.boolean_lattice, SCRIPT.bounded_antichain


@pytest.fixture(scope="session")
def corpus():
    return {entry.name: entry for entry in builtin_corpus()}


@pytest.fixture(scope="session")
def fig1(corpus):
    return corpus["fig1"]


@pytest.fixture(scope="session")
def fig2a(corpus):
    return corpus["fig2a"]


@pytest.fixture(scope="session")
def fig2b(corpus):
    return corpus["fig2b"]


@pytest.fixture(scope="session")
def fig3(corpus):
    return corpus["fig3"]


@pytest.fixture(scope="session")
def fig4(corpus):
    return corpus["fig4"]


@pytest.fixture(scope="session")
def listing_instances(corpus, tmp_path_factory):
    """(instance file path, ComplementedPoset) for the corpus, campaign
    seeds 1-50 and the Boolean lattices B2-B4: the instances on which the
    ``ideals``/``filters --class`` listings are checked."""
    found = [(name, entry.cp) for name, entry in corpus.items()]
    found += [(f"campaign-{seed}", random_complemented_poset(seed)[0]) for seed in range(1, 51)]
    for dim in range(2, 5):
        elements, covers, comp = boolean_lattice(dim)
        p = build_poset(elements, covers)
        found.append((f"B{dim}", attach_complementation(p, comp)))
    folder = tmp_path_factory.mktemp("listing")
    out = []
    for name, cp in found:
        path = folder / f"{name}.poset"
        path.write_text(emit_instance(Instance(name, cp.poset, cp)))
        out.append((str(path), cp))
    return out


def corpus_campaign_boolean(corpus):
    """The complemented posets of the corpus, campaign seeds 1-200 and B2-B4;
    the seeds and lattices are built afresh on each call."""
    cps = [entry.cp for entry in corpus.values()]
    cps += [random_complemented_poset(seed)[0] for seed in range(1, 201)]
    for dim in (2, 3, 4):
        elements, covers, comp = boolean_lattice(dim)
        cps.append(attach_complementation(build_poset(elements, covers), comp))
    return cps


def names(poset, mask):
    return frozenset(poset.names_of(mask))


def mask(poset, tokens):
    return poset.mask_of(tokens.split())


def lane_sets(columns):
    """Lane -> its set, for every lane that some column holds: the sets
    that ``substructures.ideal_lanes`` decides, read back from its
    columns."""
    lanes = functools.reduce(operator.or_, columns, 0)
    return {lane: sum(1 << m for m, column in enumerate(columns) if column >> lane & 1) for lane in iter_bits(lanes)}


def assert_families_agree(p, elements, le):
    """The principal-cone families equal the naive oracle's families, and
    the LEM_CL_PRINCIPAL verdict of each side's order facts finds no ideal
    or filter that is not a cone."""
    ideals, filters = enumerate_ideals(p), enumerate_filters(p)
    assert p.facts.principal_walk is None and p.dual().facts.principal_walk is None
    assert {names(p, m) for m in ideals} == set(naive.ideals(elements, le))
    assert {names(p, m) for m in filters} == set(naive.filters(elements, le))


def naive_order(p):
    """(elements in index order, the closed order as name pairs) of ``p``."""
    elements = list(p.names)
    le = {(p.names[i], p.names[j]) for j in range(p.n) for i in iter_bits(p.down[j])}
    return elements, le


def naturally_labelled_posets(n):
    """One poset per distinct closure of a relation with i < j in every pair."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    found = {}
    for bits in range(1 << len(pairs)):
        down = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                down[j] |= 1 << i
        for j in range(n):  # every i below j is smaller, so down[i] is closed
            for i in iter_bits(down[j]):
                down[j] |= down[i]
        found.setdefault(tuple(down), None)
    return [Poset([f"e{i}" for i in range(n)], down) for down in found]


def naive_complementations(p):
    """(elements, le, every complement map as a dict), from the naive join
    and meet of the bounded poset ``p``."""
    elements, le = naive_order(p)
    top, bottom = p.names[p.top], p.names[p.bottom]
    options = [
        [y for y in elements
         if naive.join(elements, le, x, y) == top and naive.meet(elements, le, x, y) == bottom]
        for x in elements
    ]
    return elements, le, [dict(zip(elements, images)) for images in itertools.product(*options)]


@functools.cache
def small_complementations():
    """(poset, elements, le, every complement map) for each bounded
    naturally labelled poset on 1-6 points; 398 maps in all."""
    bounded = [p for n in range(1, 7) for p in naturally_labelled_posets(n) if p.bounded]
    return [(p, *naive_complementations(p)) for p in bounded]


def assert_distributivity_agrees(p, elements, le):
    """``is_distributive`` on ``p`` and on its dual, whose order is the
    reversed relation, gives the naive scan's verdict, first violating
    triple (by name, in the order of ``elements``) and both sides.  Returns
    how many of the two are not distributive."""
    failures = 0
    for q, order in ((p, le), (p.dual(), {(y, x) for x, y in le})):
        holds, witness, lhs, rhs = naive.is_distributive(elements, order)
        report = q.is_distributive()
        assert report.holds == holds
        if holds:
            assert report.witness is None
        else:
            assert tuple(q.names[i] for i in report.witness) == witness
            assert names(q, report.lhs) == lhs
            assert names(q, report.rhs) == rhs
        failures += not holds
    return failures


def reference_random_complementation(p, seed, constraints=()):
    """The search ``corpus.random_complementation`` replaced, kept verbatim
    but for its argument checks: the same seeded candidate order, with the
    partner test, the involution bookkeeping and the full antitone scan it
    had.  It has no parity exit, so on an odd poset of two or more points
    it searches to the end before it returns ``None`` under involution."""
    wanted = set(constraints)
    rng = random.Random(f"comp:{p.n}:{seed}:{','.join(sorted(wanted))}")
    n = p.n
    # join(x, y) is top exactly when U(x,y) = {top}, and meet(x, y) is
    # bottom exactly when L(x,y) = {bottom}
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
        for z in range(n):
            cz = comp[z]
            if cz is None or z == x:
                continue
            if p.le(z, x) and not p.le(y, cz):
                return False
            if p.le(x, z) and not p.le(cz, y):
                return False
        return True

    def assign(k: int) -> bool:
        if k == len(order):
            return True
        x = order[k]
        if comp[x] is not None:  # forced earlier by the involution constraint
            return assign(k + 1)
        for y in candidates[x]:
            if "antitone" in wanted and not antitone_ok(x, y):
                continue
            forced = None
            if "involution" in wanted:
                if comp[y] is not None and comp[y] != x:
                    continue
                if comp[y] is None and y != x:
                    if x not in candidates[y] or ("antitone" in wanted and not antitone_ok(y, x)):
                        continue
                    forced = y
            comp[x] = y
            if forced is not None:
                comp[forced] = x
            if assign(k + 1):
                return True
            comp[x] = None
            if forced is not None:
                comp[forced] = None
        return False

    if not assign(0):
        return None
    return [(p.names[x], p.names[comp[x]]) for x in range(n)]


#: the constraint profiles the campaign cycles through
PROFILES = ((), ("antitone",), ("involution",), ("antitone", "involution"))


def assert_complementation_matches_reference(p, seeds):
    """``random_complementation`` on ``p`` returns the reference search's
    table, or ``None`` with it, for each seed and profile.  Returns how many
    of the searches found a table."""
    found = 0
    for seed in seeds:
        for profile in PROFILES:
            table = random_complementation(p, seed, profile)
            assert table == reference_random_complementation(p, seed, profile), (p.names, p.down, seed, profile)
            found += table is not None
    return found


def assert_subset_tests_agree(p):
    """On every subset S of ``p``: ``is_ideal``/``is_filter`` give the
    naive all-pairs verdicts, and the shared ``facts.generator`` gives the
    naive generator."""
    elements, le = naive_order(p)
    for s in range(p.all_mask + 1):
        members = names(p, s)
        assert (is_ideal(p, s), is_filter(p, s)) == (
            naive.is_ideal(elements, le, members), naive.is_filter(elements, le, members)
        )
        g = p.facts.generator(s)
        assert (None if g is None else p.names[g]) == naive.generator(elements, le, members)


def kernel_masks(p):
    """The masks the order kernels are compared on when there are too many
    subsets: the empty set and every cone of either side, its complement,
    each union of two down-cones and each cell of either pair table."""
    cones = p.down + p.up
    found = {0} | set(cones) | {p.all_mask & ~c for c in cones}
    found |= {a | b for a in p.down for b in p.down}
    found |= {cell for q in (p, p.dual()) for row in q.lu for cell in row}
    return sorted(found)


def assert_kernels_match_naive(p, masks):
    """On ``p`` and on its dual, against the naive oracle on the same order:
    each cell ``lu[x][y]`` is L(U({x,y})), the semilattice flags say whether
    every pair has a join and a meet, and ``is_ideal`` and
    ``is_prime_ideal`` give the naive verdicts on each of ``masks``.
    Returns the ideals and the prime ideals counted over both sides, then
    the two flags of ``p``."""
    elements, le = naive_order(p)
    ideals = primes = 0
    for q, order in ((p, le), (p.dual(), {(y, x) for x, y in le})):
        pairs = list(itertools.combinations_with_replacement(enumerate(elements), 2))
        for (x, a), (y, b) in pairs:
            cone = naive.lower_cone(elements, order, naive.upper_cone(elements, order, {a, b}))
            assert names(q, q.lu[x][y]) == names(q, q.lu[y][x]) == cone, (q, a, b)
        flags = tuple(all(bound(elements, order, a, b) is not None for (_, a), (_, b) in pairs)
                      for bound in (naive.join, naive.meet))
        assert q.semilattice_flags() == flags, q
        for s in masks:
            members = names(q, s)
            ideal = naive.is_ideal(elements, order, members)
            prime = ideal and naive.is_prime_ideal(elements, order, members)
            assert (is_ideal(q, s), is_prime_ideal(q, s)) == (ideal, prime), (q, s)
            ideals += ideal
            primes += prime
    return (ideals, primes, *p.semilattice_flags())


def assert_union_cells_agree(p):
    """For every a and g, the pair-table cell ``lu[a][g]`` is the naive
    union of the cones LU(a,m) over m <= g, and bit a of the shared
    ``facts.union_rows[g]`` is the naive ideal verdict on it; dually the
    dual's cell ``dual().lu[a][g]`` is the naive union of UL(a,m) over
    m >= g, and bit a of the dual's row g is the naive filter verdict."""
    elements, le = naive_order(p)
    for q, cone, union_of, verdict in (
        (p, naive.lower_cone, naive.lu_union, naive.is_ideal),
        (p.dual(), naive.upper_cone, naive.ul_union, naive.is_filter),
    ):
        rows, verdicts = q.facts.union_rows, {}
        for g in elements:
            principal = cone(elements, le, {g})
            for a in elements:
                cell = q.lu[p.index(a)][p.index(g)]
                want = union_of(elements, le, a, principal)
                assert names(p, cell) == want, (p, a, g)
                if want not in verdicts:
                    verdicts[want] = verdict(elements, le, want)
                assert bool(rows[p.index(g)] >> p.index(a) & 1) == verdicts[want], (p, a, g)
