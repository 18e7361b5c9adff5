"""The distance-pruned augmenting BFS of ``routing/flows.py`` against the
plain BFS it prunes.

``flows._augment`` queues only the exit halves that a fault-free distance
bound leaves on some shortest augmenting path, and reruns with a higher
bound when the target is out of reach.  It must return the family the
unpruned search returns — the dict-based ``_reference_menger`` — on every
topology, feasible or not, whatever admissible bound it starts from.  The
digests at the end pin the Theorem 5 families themselves, so a change that
moves any of them fails loudly here.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.disjoint_paths import disjoint_paths
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import RoutingError
from repro.routing import flows
from repro.topologies.base import Topology
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh
from repro.topologies.mesh_of_trees import MeshOfTrees
from tests.routing import _reference_menger

CAYLEY = [CayleyButterfly(3), Hypercube(4)]
NON_CAYLEY = [HyperDeBruijn(2, 3), Mesh(3, 4), MeshOfTrees(2, 4)]


def _outcome(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except RoutingError as exc:
        return ("RoutingError", str(exc))


def _both(name, *args, **kwargs):
    """The pruned and the reference solver's outcome of one instance."""
    got = _outcome(getattr(flows, name), *args, **kwargs)
    want = _outcome(getattr(_reference_menger, name), *args, **kwargs)
    return got, want


def _draw_instance(topology, rng, target):
    nodes = [x for x in topology.nodes() if x != target]
    sources = rng.sample(nodes, rng.randint(1, min(5, len(nodes))))
    rest = [x for x in nodes if x not in sources]
    blocked = set(rng.sample(rest, rng.randint(0, min(4, len(rest)))))
    return sources, blocked


@pytest.mark.parametrize("topology", CAYLEY, ids=lambda t: t.name)
def test_every_target_matches_the_reference(topology):
    rng = random.Random(41)
    verdicts = set()
    for target in topology.nodes():
        for _ in range(3):
            sources, blocked = _draw_instance(topology, rng, target)
            got, want = _both(
                "node_to_set_disjoint_paths", topology, sources, target, blocked=blocked
            )
            assert got == want, (sources, target, blocked)
            verdicts.add(isinstance(got, tuple))
            got, want = _both(
                "vertex_disjoint_paths", topology, sources[0], target, blocked=blocked
            )
            assert got == want, (sources[0], target, blocked)
    assert verdicts == {True, False}  # feasible and infeasible draws


@pytest.mark.parametrize("topology", NON_CAYLEY, ids=lambda t: t.name)
def test_non_cayley_topologies_take_bfs_distances(topology):
    assert not flows._ranked(topology)[0].supports_group_ops()
    nodes = list(topology.nodes())
    rng = random.Random(43)
    for target in rng.sample(nodes, 6):
        dist = topology.bfs_distances(target)
        assert flows.distances_to(topology, target) == [dist[x] for x in nodes]
        for _ in range(4):
            sources, blocked = _draw_instance(topology, rng, target)
            got, want = _both(
                "node_to_set_disjoint_paths", topology, sources, target, blocked=blocked
            )
            assert got == want, (sources, target, blocked)
            got, want = _both(
                "vertex_disjoint_paths", topology, sources[0], target, blocked=blocked
            )
            assert got == want, (sources[0], target, blocked)


class _TwoPaths(Topology):
    """Two disjoint paths ``0-1-2`` and ``3-4-5``: a graph in two pieces."""

    name = "two-paths"
    num_nodes = 6

    def nodes(self):
        return iter(range(6))

    def neighbors(self, v):
        return [w for w in (v - 1, v + 1) if 0 <= w < 6 and w // 3 == v // 3]

    def has_node(self, v):
        return v in range(6)


def test_ranks_that_cannot_reach_the_target_read_far():
    pieces = _TwoPaths()
    far = flows._FAR
    assert flows.distances_to(pieces, 2) == [2, 1, 0, far, far, far]
    for sources in ([0], [3], [4, 0], [0, 1, 5]):
        got, want = _both("node_to_set_disjoint_paths", pieces, sources, 2)
        assert got == want, sources
    assert _both("vertex_disjoint_paths", pieces, 3, 2) == ([], [])


def _deep_cut(fly, rng):
    """A target whose last two neighbours lead nowhere else: a cut one ring
    out, which the inflow cap cannot see and the reruns must climb."""
    nodes = list(fly.nodes())
    target = rng.choice(nodes)
    entries = fly.neighbors(target)
    blocked = {x for w in entries[2:] for x in fly.neighbors(w) if x != target}
    free = [x for x in nodes if x != target and x not in blocked and x not in entries]
    return rng.sample(free, 4), target, blocked


def test_infeasible_instances_raise_the_reference_error():
    fly = CayleyButterfly(5)
    rng = random.Random(47)
    for _ in range(12):
        sources, target, blocked = _deep_cut(fly, rng)
        got, want = _both(
            "node_to_set_disjoint_paths", fly, sources, target, blocked=blocked
        )
        assert got == want
        assert got[0] == "RoutingError" and got[1].startswith("only ")
    # two of the target's four entries blocked, three sources: the corner
    # shape of Theorem 5's case 3, settled by the inflow cap
    target = rng.choice(list(fly.nodes()))
    entries = fly.neighbors(target)
    far = [x for x in fly.nodes() if x != target and x not in entries]
    sources = rng.sample(far, 3)
    got, want = _both(
        "node_to_set_disjoint_paths", fly, sources, target, blocked=set(entries[:2])
    )
    assert got == want == ("RoutingError", "only 2 of 3 node-to-set paths exist")


def test_a_saturated_target_needs_no_search(monkeypatch):
    fly = CayleyButterfly(4)
    target = (0, 0)
    entries = fly.neighbors(target)
    sources = [x for x in fly.nodes() if x != target and x not in entries][:3]
    searches = []
    augment = flows._augment
    monkeypatch.setattr(flows, "_augment", lambda *a: searches.append(1) or augment(*a))
    with pytest.raises(RoutingError, match="only 2 of 3"):
        flows.node_to_set_disjoint_paths(fly, sources, target, blocked=set(entries[:2]))
    assert len(searches) == 2  # the third unit has no open entry left


def _state(topology, sources, target, blocked):
    codec, adj = flows._ranked(topology)
    starts = [codec.rank(s) for s in sources]
    template = flows._template(topology, codec, blocked, starts)
    pred, into_target = [-1] * len(adj), bytearray(len(adj))
    return adj, starts, codec.rank(target), template, pred, into_target


@pytest.mark.parametrize(
    "topology", [CayleyButterfly(4), HyperButterfly(2, 3)], ids=lambda t: t.name
)
def test_a_start_bound_too_low_still_returns_the_hit(topology):
    """Any ``U`` below the hit level only adds reruns: every augmentation
    of the family, started from ``U = -1``, makes the unchanged hit."""
    rng = random.Random(53)
    nodes = list(topology.nodes())
    for _ in range(10):
        target = rng.choice(nodes)
        sources, blocked = _draw_instance(topology, rng, target)
        to_target = flows.distances_to(topology, target)
        low = _state(topology, sources, target, blocked)
        fit = _state(topology, sources, target, blocked)
        bound = min(to_target[s] for s in fit[1]) - 1
        free = list(fit[1])
        while free:
            hit = flows._augment(*fit[:1], free, *fit[2:], to_target, bound)
            assert flows._augment(*low[:1], free, *low[2:], to_target, -1) == hit
            assert low[4:] == fit[4:]  # same pred and target feeders
            if hit is None:
                break
            free.remove(hit[0])
            bound = hit[1]


@pytest.mark.parametrize(
    "topology", [CayleyButterfly(4), HyperDeBruijn(2, 3)], ids=lambda t: t.name
)
def test_weaker_distance_bounds_give_the_same_families(topology):
    """``to_target`` need only be a lower bound: halved or zero distances
    prune less and rerun more, and return the same family."""
    rng = random.Random(59)
    nodes = list(topology.nodes())
    for _ in range(8):
        target = rng.choice(nodes)
        sources, blocked = _draw_instance(topology, rng, target)
        exact = flows.distances_to(topology, target)
        want = _outcome(
            _reference_menger.node_to_set_disjoint_paths, topology, sources, target,
            blocked=blocked,
        )
        for weak in ([d // 2 for d in exact], [0] * len(exact)):
            got = _outcome(
                flows.node_to_set_disjoint_paths, topology, sources, target,
                blocked=blocked, to_target=weak,
            )
            assert got == want


class _KeptTemplate(list):
    """A ``parent`` template that keeps every copy a pass makes of it."""

    def __init__(self, items):
        super().__init__(items)
        self.copies = []

    def copy(self):
        parent = list(self)
        self.copies.append(parent)
        return parent


def _exit_levels(parent):
    """The level of every exit half a pass queued, from its parent chain
    (exit ← entry ← exit …, the starts at level 0)."""
    levels = {}

    def level(state):
        if state not in levels:
            before = parent[state]
            levels[state] = 0 if before == -1 else level(parent[before]) + 1
        return levels[state]

    for state in range(1, len(parent), 2):
        if parent[state] != flows._UNSEEN:
            level(state)
    return levels


def test_passes_queue_only_states_within_the_hit_level(monkeypatch):
    """What the pruning is for: a pass that hits at level ``L`` queued no
    exit half ``x⁺`` past the starts with ``level + to_target[x] − 1 > L``,
    and the first augmentation of an unblocked family needs one pass."""
    calls = []
    augment = flows._augment

    def watched(adj, starts, target, template, pred, into, to_target, bound):
        kept = _KeptTemplate(template)
        hit = augment(adj, starts, target, kept, pred, into, to_target, bound)
        calls.append((kept.copies, hit, to_target))
        return hit

    monkeypatch.setattr(flows, "_augment", watched)
    fly = CayleyButterfly(6)
    nodes = list(fly.nodes())
    rng = random.Random(61)
    for draw in range(16):
        target = rng.choice(nodes)
        sources, blocked = _draw_instance(fly, rng, target)
        if draw % 2:
            blocked = ()
        calls.clear()
        _outcome(
            flows.node_to_set_disjoint_paths, fly, sources, target, blocked=blocked
        )
        _outcome(flows.vertex_disjoint_paths, fly, sources[0], target, blocked=blocked)
        for copies, hit, to_target in calls:
            if hit is not None:
                levels = _exit_levels(copies[-1])
                assert all(
                    ell + to_target[x >> 1] - 1 <= hit[1]
                    for x, ell in levels.items()
                    if ell
                )
        if not blocked:
            assert len(calls[0][0]) == 1


PROPERTY_TOPOLOGIES = [
    CayleyButterfly(3),
    Hypercube(4),
    HyperButterfly(1, 3),
    HyperDeBruijn(2, 3),
    Mesh(3, 4),
]


@st.composite
def _instances(draw):
    topology = draw(st.sampled_from(PROPERTY_TOPOLOGIES))
    nodes = list(topology.nodes())
    target = draw(st.sampled_from(nodes))
    rest = [x for x in nodes if x != target]
    sources = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=5, unique=True))
    blocked = draw(
        st.lists(st.sampled_from([x for x in rest if x not in sources]), max_size=6)
    )
    return topology, sources, target, set(blocked)


@given(_instances())
@settings(max_examples=150, deadline=None)
def test_property_pruned_equals_reference(instance):
    topology, sources, target, blocked = instance
    got, want = _both(
        "node_to_set_disjoint_paths", topology, sources, target, blocked=blocked
    )
    assert got == want
    got, want = _both(
        "vertex_disjoint_paths", topology, sources[0], target, blocked=blocked
    )
    assert got == want


# -- family digests -------------------------------------------------------------


def _digest(hb, pairs):
    h = hashlib.sha256()
    for u, v in pairs:
        h.update(repr(disjoint_paths(hb, u, v)).encode())
    return h.hexdigest()


def test_every_hb23_family_is_pinned():
    hb = HyperButterfly(2, 3)
    nodes = list(hb.nodes())
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    assert _digest(hb, pairs) == (
        "cc6a2fca6f310099e611d2d236bacf6a8c8af3cc83d17d5b49acf370bb025c94"
    )


def test_sampled_hb47_families_and_double_corners_are_pinned():
    hb = HyperButterfly(4, 7)
    nodes = list(hb.nodes())
    rng = random.Random(35)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(200)]
    assert _digest(hb, pairs) == (
        "2b76601fcb63655f210cf05167dced269a41e8dba230f24f93eaf58e722f18ec"
    )
    rng = random.Random(36)
    corners = []
    for u in rng.sample(nodes, 6):
        h = rng.choice(hb.hypercube_neighbors(u))[0]
        b = rng.choice(hb.butterfly_neighbors(u))[1]
        corners.append((u, (h, b)))
    assert _digest(hb, corners) == (
        "66dce2abf1ade397d6ff29e59444be8966598b0f4bcd34c186494a42ee2059ab"
    )
