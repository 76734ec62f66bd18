"""Counted cost: the calls a fact makes, per side, against the bound its
docstring states, on B4-B6 and on the bounds plus a 16-, 32- and
64-antichain.

A count does not depend on the host, so a change that keeps every verdict
but multiplies the work fails here, where a time bound could not be
checked: ``is_ideal``'s range test calling ``Poset.check_mask`` on every
set, or the distributivity scan deciding the irreducibility of elements no
pair reads.  Each side is the poset or its order dual, built afresh, and the
counters wrap the module or class attribute that the fact calls through.
"""

import functools
import operator

import pytest

from cideals import build_poset, substructures
from cideals.poset import Poset
from conftest import boolean_lattice, bounded_antichain

INSTANCES = {
    **{f"B{dim}": boolean_lattice(dim) for dim in (4, 5, 6)},
    **{f"k={k}": bounded_antichain(k) for k in (16, 32, 64)},
}
#: per side, the lanes of the walk's one ``ideal_lanes`` call, n + the
#: incomparable pairs: B5 has 32 elements and 285 such pairs
WALK_LANES = {"B4": 71, "B5": 317, "B6": 1415, "k=16": 138, "k=32": 530, "k=64": 2082}
#: per side, the distinct cells of ``lu``: n on these lattices, where each
#: cell is a principal cone
UNION_CALLS = {"B4": 16, "B5": 32, "B6": 64, "k=16": 18, "k=32": 34, "k=64": 66}
#: per side, the ``lower_cone`` calls of ``is_distributive``, two per closure
CONE_CALLS = {"B4": 22, "B5": 52, "B6": 114, "k=16": 38, "k=32": 70, "k=64": 134}


def _sides(label):
    elements, covers, _ = INSTANCES[label]
    p = build_poset(elements, covers)
    return p, p.dual()


def _counter(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` with a wrapper that records the arguments of
    each call in the returned list."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("label", INSTANCES)
def test_principal_walk_tests_each_cone_and_incomparable_pair_once(label, monkeypatch):
    lane_calls = _counter(monkeypatch, substructures, "ideal_lanes")
    ideal_calls = _counter(monkeypatch, substructures, "is_ideal")
    range_calls = _counter(monkeypatch, Poset, "check_mask")
    for q in _sides(label):
        incomparable = sum(not (q.down[x] | q.up[x]) >> y & 1 for x in range(q.n) for y in range(x + 1, q.n))
        lane_calls.clear()
        assert q.facts.principal_walk is None
        [(o, columns)] = lane_calls
        lanes = functools.reduce(operator.or_, columns)
        assert o is q and len(columns) == q.n
        assert lanes.bit_count() == q.n + incomparable == WALK_LANES[label]
        assert ideal_calls == range_calls == []


@pytest.mark.parametrize("label", INSTANCES)
def test_union_rows_test_each_distinct_cell_once(label, monkeypatch):
    for q in _sides(label):
        q.lu  # filled first: only the rows' own calls count
        ideal_calls = _counter(monkeypatch, substructures, "is_ideal")
        range_calls = _counter(monkeypatch, Poset, "check_mask")
        rows = q.facts.union_rows
        monkeypatch.undo()
        assert rows == (q.all_mask,) * q.n
        assert sorted(mask for _, mask in ideal_calls) == sorted(set().union(*q.lu))
        assert len(ideal_calls) == UNION_CALLS[label] and range_calls == []


@pytest.mark.parametrize("label", INSTANCES)
def test_distributivity_makes_at_most_two_closures_per_element(label, monkeypatch):
    for q in _sides(label):
        q.lu, q.dual().lu  # filled first: only the scan's own closures count
        cone_calls = _counter(monkeypatch, Poset, "lower_cone")
        holds = q.is_distributive().holds
        monkeypatch.undo()
        assert holds == label.startswith("B")
        assert len(cone_calls) == CONE_CALLS[label] <= 4 * q.n
