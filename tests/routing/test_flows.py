"""Menger solver tests, against networkx ``edmonds_karp`` (family sizes and
feasibility) and the dict-based rank solver it replaced (identical paths)."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError, RoutingError
from repro.fastgraph.codecs import codec_for, registered_codec_families
from repro.routing import flows
from repro.routing.base import paths_internally_disjoint, validate_path
from repro.routing.flows import node_to_set_disjoint_paths, vertex_disjoint_paths
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.invariants import all_invariant_specs
from repro.topologies.mesh import Mesh
from repro.topologies.mesh_of_trees import MeshOfTrees
from tests.routing import _nx_menger, _reference_menger


class TestVertexDisjointPaths:
    def test_matches_local_connectivity(self, rng):
        h = Hypercube(4)
        g = h.to_networkx()
        nodes = list(h.nodes())
        for _ in range(15):
            u, v = rng.sample(nodes, 2)
            family = vertex_disjoint_paths(h, u, v)
            assert len(family) == nx.connectivity.local_node_connectivity(g, u, v)
            assert paths_internally_disjoint(family)
            for p in family:
                validate_path(h, p, source=u, target=v)

    def test_k_truncates(self):
        family = vertex_disjoint_paths(Hypercube(4), 0, 0b1111, k=2)
        assert len(family) == 2

    def test_k_too_large_raises(self):
        with pytest.raises(RoutingError):
            vertex_disjoint_paths(Hypercube(3), 0, 7, k=4)

    def test_blocked_nodes_avoided(self):
        family = vertex_disjoint_paths(Hypercube(3), 0, 0b111, blocked={0b001})
        for p in family:
            assert 0b001 not in p
        assert len(family) == 2  # one neighbor of the source is gone

    def test_blocked_endpoint_rejected(self):
        with pytest.raises(RoutingError):
            vertex_disjoint_paths(Hypercube(3), 0, 7, blocked={0})

    def test_same_endpoints_rejected(self):
        with pytest.raises(RoutingError):
            vertex_disjoint_paths(Hypercube(3), 1, 1)

    def test_missing_endpoint_rejected(self):
        with pytest.raises(RoutingError):
            vertex_disjoint_paths(Hypercube(3), 0, 8)

    def test_cutoff_below_k_rejected(self):
        """``H_4`` is 4-connected: a cutoff of 2 could only ever report that
        the graph "supports only 2" of the 4 paths asked for."""
        with pytest.raises(InvalidParameterError, match="cutoff 2 is below k = 4"):
            vertex_disjoint_paths(Hypercube(4), 0, 15, k=4, cutoff=2)
        assert len(vertex_disjoint_paths(Hypercube(4), 0, 15, k=4, cutoff=4)) == 4

    def test_cutoff_still_yields_requested_family(self):
        bf = CayleyButterfly(4)
        family = vertex_disjoint_paths(bf, (0, 0), (2, 0b1010), k=4, cutoff=4)
        assert len(family) == 4
        assert paths_internally_disjoint(family)

    def test_adjacent_endpoints_keep_the_direct_edge(self):
        family = vertex_disjoint_paths(Hypercube(3), 0, 1)
        assert [0, 1] in family
        assert len(family) == 3

    def test_paths_ordered_by_first_hop(self):
        bf = CayleyButterfly(4)
        u, v = (0, 0), (2, 0b1010)
        hops = [p[1] for p in vertex_disjoint_paths(bf, u, v)]
        order = list(bf.nodes())
        assert hops == sorted(hops, key=order.index)


class TestNodeToSet:
    def test_hypercube_neighbors_to_antipode(self):
        h = Hypercube(4)
        sources = [1 << i for i in range(4)]
        family = node_to_set_disjoint_paths(h, sources, 0b1111)
        assert [p[0] for p in family] == sources
        seen = set()
        for p in family:
            assert p[-1] == 0b1111
            for x in p[:-1]:
                assert x not in seen
                seen.add(x)
            validate_path(h, p, target=0b1111)

    def test_source_equal_to_target_gets_trivial_path(self):
        family = node_to_set_disjoint_paths(Hypercube(3), [0b111, 0b011], 0b111)
        assert family[0] == [0b111]
        assert family[1][0] == 0b011 and family[1][-1] == 0b111

    def test_butterfly_neighbors_to_far_node(self, bf4, rng):
        for _ in range(10):
            target = rng.choice(list(bf4.nodes()))
            anchor = rng.choice(list(bf4.nodes()))
            sources = bf4.neighbors(anchor)
            if target in sources or target == anchor:
                continue
            family = node_to_set_disjoint_paths(bf4, sources, target)
            assert len(family) == 4
            seen = set()
            for p in family:
                for x in p[:-1]:
                    assert x not in seen
                    seen.add(x)

    def test_paths_never_pass_through_other_sources(self):
        sources = [1, 2, 4, 8]
        family = node_to_set_disjoint_paths(Hypercube(4), sources, 0b1111)
        for i, p in enumerate(family):
            for j, s in enumerate(sources):
                if i != j:
                    assert s not in p

    def test_duplicate_sources_rejected(self):
        with pytest.raises(RoutingError):
            node_to_set_disjoint_paths(Hypercube(3), [1, 1], 7)

    def test_infeasible_raises(self):
        # a path graph cannot route 2 disjoint paths into its end vertex
        path5 = Mesh(1, 5)
        with pytest.raises(RoutingError, match="only 1 of 2"):
            node_to_set_disjoint_paths(path5, [(0, 0), (0, 2)], (0, 4))

    def test_blocked_respected(self):
        family = node_to_set_disjoint_paths(Hypercube(3), [1, 2], 7, blocked={5})
        for p in family:
            assert 5 not in p


# -- property grid against the networkx reference ---------------------------

GRID = [Hypercube(4), CayleyButterfly(4), HyperButterfly(1, 3), HyperButterfly(2, 3)]


def _blocked_sample(rng, nodes, keep, most):
    others = [x for x in nodes if x not in keep]
    return set(rng.sample(others, rng.randint(0, most)))


def _check_family(topology, family, sources, target, blocked):
    for p, s in zip(family, sources, strict=True):
        validate_path(topology, p, source=s, target=target, simple=True)
        assert blocked.isdisjoint(p)
    interiors = [x for p in family for x in p[:-1]]
    assert len(interiors) == len(set(interiors))


@pytest.mark.parametrize("topology", GRID, ids=lambda t: t.name)
class TestAgainstReference:
    def test_family_size_is_local_connectivity(self, topology):
        rng = random.Random(17)
        g = topology.to_networkx()
        nodes = list(topology.nodes())
        for _ in range(40):
            u, v = rng.sample(nodes, 2)
            blocked = _blocked_sample(rng, nodes, (u, v), topology.degree(u) - 1)
            family = vertex_disjoint_paths(topology, u, v, blocked=blocked)
            h = g.subgraph(x for x in nodes if x not in blocked)
            assert len(family) == nx.connectivity.local_node_connectivity(h, u, v)
            reference = _nx_menger.vertex_disjoint_paths(g, u, v, blocked=blocked)
            assert len(family) == len(reference)
            assert paths_internally_disjoint(family)
            for p in family:
                validate_path(topology, p, source=u, target=v, simple=True)
                assert blocked.isdisjoint(p)

    def test_node_to_set_feasible_exactly_when_reference_is(self, topology):
        rng = random.Random(23)
        g = topology.to_networkx()
        nodes = list(topology.nodes())
        outcomes = set()
        for _ in range(40):
            target = rng.choice(nodes)
            sources = rng.sample([x for x in nodes if x != target], rng.randint(1, 4))
            # crowd the target so that some draws leave too few entries
            near = [x for x in topology.neighbors(target) if x not in sources]
            blocked = set(rng.sample(near, rng.randint(0, len(near))))
            blocked |= _blocked_sample(rng, nodes, (target, *sources), 2)
            try:
                _nx_menger.node_to_set_disjoint_paths(g, sources, target, blocked=blocked)
                feasible = True
            except RoutingError:
                feasible = False
            outcomes.add(feasible)
            if not feasible:
                with pytest.raises(RoutingError):
                    node_to_set_disjoint_paths(topology, sources, target, blocked=blocked)
                continue
            family = node_to_set_disjoint_paths(topology, sources, target, blocked=blocked)
            _check_family(topology, family, sources, target, blocked)
        assert outcomes == {True, False}  # the grid reaches both verdicts


# -- codec ranks and array state against the dict-based reference -------------


def _rank_families():
    """Every spec'd small instance of each codec family, plus HyperDeBruijn
    and MeshOfTrees, which have no codec of their own."""
    specs = all_invariant_specs()
    names = set(registered_codec_families()) | {"HyperDeBruijn", "MeshOfTrees"}
    assert codec_for(MeshOfTrees(2, 2)) is None
    return [
        pytest.param(name, params, id=f"{name}{params}")
        for name in sorted(names)
        for params in specs[name].small
    ]


@pytest.mark.parametrize(("family", "params"), _rank_families())
def test_codec_ranks_and_rows_match_reference(family, params):
    build = all_invariant_specs()[family].build
    labels, _, reference_adj = _reference_menger._ranked(build(*params))
    codec, adj = flows._ranked(build(*params))
    assert [codec.unrank(i) for i in range(codec.num_nodes)] == labels
    assert [codec.rank(v) for v in labels] == list(range(len(labels)))
    assert [[x >> 1 for x in row] for row in adj] == reference_adj
    assert all(x % 2 == 0 for row in adj for x in row)


def _outcome(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except RoutingError as exc:
        return ("RoutingError", str(exc))


PINNED = [
    HyperButterfly(2, 3),
    HyperButterfly(3, 4),
    HyperButterfly(4, 5),
    CayleyButterfly(4),
    Hypercube(5),
    HyperDeBruijn(2, 4),
]


@pytest.mark.parametrize("topology", PINNED, ids=lambda t: t.name)
def test_vertex_disjoint_paths_identical_to_reference(topology):
    rng = random.Random(31)
    nodes = list(topology.nodes())
    for draw in range(24):
        u, v = rng.sample(nodes, 2)
        blocked = set(rng.sample(nodes, rng.randint(0, 6))) - {u, v}
        if draw % 4 == 0:
            blocked.add(("not", "a", "node"))  # ignored by both
        kwargs = {"blocked": blocked}
        if draw % 3 == 1:
            kwargs["k"] = rng.randint(1, topology.degree(u) + 1)
        if draw % 3 == 2:
            kwargs["cutoff"] = rng.randint(1, topology.degree(u))
        got = _outcome(flows.vertex_disjoint_paths, topology, u, v, **kwargs)
        want = _outcome(
            _reference_menger.vertex_disjoint_paths, topology, u, v, **kwargs
        )
        assert got == want, (u, v, kwargs)


@pytest.mark.parametrize("topology", PINNED, ids=lambda t: t.name)
def test_node_to_set_identical_to_reference(topology):
    rng = random.Random(37)
    nodes = list(topology.nodes())
    outcomes = set()
    for _ in range(24):
        target = rng.choice(nodes)
        # a neighbourhood of sources crowds the target's entries
        anchor = rng.choice(nodes)
        pool = topology.neighbors(anchor) + [anchor]
        sources = rng.sample(pool, rng.randint(1, len(pool)))
        blocked = set(rng.sample(topology.neighbors(target), rng.randint(0, 2)))
        blocked -= {target, *sources}
        args = (topology, sources, target)
        got = _outcome(flows.node_to_set_disjoint_paths, *args, blocked=blocked)
        want = _outcome(
            _reference_menger.node_to_set_disjoint_paths, *args, blocked=blocked
        )
        assert got == want, (sources, target, blocked)
        outcomes.add(isinstance(got, tuple))
    assert outcomes == {True, False}  # the draws reach both verdicts


def test_missing_endpoints_and_labels_outside_the_graph():
    h = Hypercube(3)
    with pytest.raises(RoutingError, match="endpoint missing"):
        node_to_set_disjoint_paths(h, [1, 9], 7)
    with pytest.raises(RoutingError, match="endpoint missing"):
        vertex_disjoint_paths(h, 8, 0)
    unblocked = vertex_disjoint_paths(h, 0, 7)
    assert vertex_disjoint_paths(h, 0, 7, blocked={8, "x"}) == unblocked
