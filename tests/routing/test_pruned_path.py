"""The pruned level search of ``routing/flows.py`` against the numpy kernels.

:func:`~repro.routing.flows.pruned_shortest_path` must return exactly what
``Topology.bfs_shortest_path`` returns — the same tie among shortest paths,
or ``None`` — because Theorem 5's case-3 families (and every committed
artefact built on them) take their butterfly segments from it.  A new tie
rule for the kernels must change the search in the same change; these
pins are what flag it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.disjoint_paths import _Case3Builder
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import RoutingError
from repro.routing import flows
from repro.routing.flows import distances_to
from repro.topologies.butterfly_cayley import CayleyButterfly
from tests.routing._label_edge import shortest_path_on_labels

#: the search takes and returns ranks; these tests draw labels
pruned_shortest_path = shortest_path_on_labels

FLIES = {n: CayleyButterfly(n) for n in (3, 4, 7)}


def _kernel(fly, source, target, blocked=frozenset()):
    return fly.bfs_shortest_path(source, target, blocked=frozenset(blocked))


@pytest.mark.parametrize("n", [3, 4])
def test_distances_to_are_the_bfs_distances(n):
    fly = FLIES[n]
    nodes = list(fly.nodes())
    for target in nodes:
        dist = fly.bfs_distances(target)
        assert distances_to(fly, target) == [dist[x] for x in nodes]


def test_only_small_topologies_keep_a_distance_table():
    """Up to ``_TABLE_RANKS`` ranks every target's row comes from one
    table filled on first use; past it each call computes its row."""
    small, large = CayleyButterfly(5), CayleyButterfly(6)  # 160 and 384 ranks
    assert small.num_nodes <= flows._TABLE_RANKS < large.num_nodes
    for fly in (small, large):
        nodes = list(fly.nodes())
        for target in nodes[::37]:
            dist = fly.bfs_distances(target)
            assert distances_to(fly, target) == [dist[x] for x in nodes]
    assert len(small.__dict__[flows._TABLE_ATTR]) == small.num_nodes
    assert flows._TABLE_ATTR not in large.__dict__
    target = (1, 0b10110)
    assert distances_to(small, target) is distances_to(small, target)


@pytest.mark.parametrize("n", [3, 4])
def test_every_unblocked_pair_matches_the_kernel(n):
    fly = FLIES[n]
    nodes = list(fly.nodes())
    for target in nodes:
        to_target = distances_to(fly, target)
        for source in nodes:
            want = _kernel(fly, source, target)
            assert pruned_shortest_path(fly, source, target) == want
            got = pruned_shortest_path(fly, source, target, to_target=to_target)
            assert got == want, (source, target)


def _sphere(fly, center, radius):
    dist = fly.bfs_distances(center)
    return sorted(x for x, d in dist.items() if d == radius)


@st.composite
def _blocked_queries(draw):
    """``(n, source, target, blocked)`` in four shapes: a subset of
    ``N(source)`` plus one node at distance 2 (what ``_fly_segment``
    passes), all of ``N(target)`` (the target cut off), a blocked target,
    and a few random nodes."""
    n = draw(st.sampled_from([3, 4]))
    fly = FLIES[n]
    nodes = list(fly.nodes())
    source = draw(st.sampled_from(nodes))
    target = draw(st.sampled_from([x for x in nodes if x != source]))
    shape = draw(st.sampled_from(["near", "cut", "target", "random"]))
    if shape == "near":
        near = [x for x in fly.neighbors(source) if x != target]
        blocked = set(draw(st.lists(st.sampled_from(near), unique=True)))
        blocked.add(draw(st.sampled_from(_sphere(fly, source, 2))))
        blocked.discard(target)
    elif shape == "cut":
        blocked = set(fly.neighbors(target)) - {source}
    elif shape == "target":
        blocked = {target}
    else:
        blocked = set(draw(st.lists(st.sampled_from(nodes), max_size=6)))
        blocked.discard(source)
    return n, source, target, frozenset(blocked)


@given(_blocked_queries())
@settings(max_examples=200, deadline=None)
def test_blocked_queries_match_the_kernel(query):
    n, source, target, blocked = query
    fly = FLIES[n]
    want = _kernel(fly, source, target, blocked)
    assert pruned_shortest_path(fly, source, target, blocked=blocked) == want
    got = pruned_shortest_path(
        fly, source, target, blocked=blocked, to_target=distances_to(fly, target)
    )
    assert got == want


def test_cut_off_and_blocked_targets_give_none():
    fly = FLIES[4]
    source, target = (0, 0), (2, 0b1010)
    assert pruned_shortest_path(fly, source, target, blocked=fly.neighbors(target)) is None
    assert pruned_shortest_path(fly, source, target, blocked={target}) is None
    assert pruned_shortest_path(fly, source, target, blocked={source}) is None
    assert pruned_shortest_path(fly, source, source) == [source]
    with pytest.raises(RoutingError, match="endpoint missing"):
        pruned_shortest_path(fly, source, (4, 0))


def test_sampled_b7_pairs_match_the_kernel():
    fly = FLIES[7]
    nodes = list(fly.nodes())
    rng = random.Random(7)
    for _ in range(150):
        source, target = rng.sample(nodes, 2)
        to_target = distances_to(fly, target)
        near = [x for x in fly.neighbors(source) if x != target]
        blocked = set(rng.sample(near, rng.randint(0, len(near))))
        blocked.add(rng.choice(_sphere(fly, source, 2)))
        blocked.discard(target)
        for mask in (frozenset(), frozenset(blocked)):
            got = pruned_shortest_path(
                fly, source, target, blocked=mask, to_target=to_target
            )
            assert got == _kernel(fly, source, target, mask), (source, target, mask)


def _direct(hb, source, target):
    return pruned_shortest_path(hb.butterfly, source, target)


def _segment(hb, source, target):
    return _Case3Builder(hb, (0, source), (3, target))._fly_segment(frozenset())


@pytest.mark.parametrize("search", [_direct, _segment], ids=["direct", "fly_segment"])
def test_unblocked_searches_read_only_shortest_path_rows(search):
    """Without faults the bound is exact from the start, so the search
    reads the row of no node off a shortest ``source → target`` path, and
    no row twice: the pruning, not only the answer, is pinned, both with
    the distances the search computes and with those ``_fly_segment``
    passes."""
    hb = HyperButterfly(2, 4)  # its own instance: its rows are swapped below
    codec, adj = flows._ranked(hb.butterfly)
    reads = []

    class Row(list):
        def __iter__(self):
            reads.append(self.rank)
            return super().__iter__()

    rows = []
    for rank, row in enumerate(adj):
        rows.append(Row(row))
        rows[-1].rank = rank
    hb.butterfly.__dict__[flows._ATTR] = (codec, rows)
    nodes = list(hb.butterfly.nodes())
    dist = {x: distances_to(hb.butterfly, x) for x in nodes}
    for target in nodes:
        to_target = dist[target]
        for source in nodes:
            if source == target:
                continue
            reads.clear()
            search(hb, source, target)
            d = to_target[codec.rank(source)]
            from_source = dist[source]  # undirected: dist(x, s) = dist(s, x)
            on_paths = {r for r in range(len(rows)) if from_source[r] + to_target[r] == d}
            assert len(reads) == len(set(reads)), (source, target)
            assert set(reads) <= on_paths, (source, target)
