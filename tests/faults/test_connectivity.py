"""Connectivity analysis tests (Section 5 claims, exactly)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.faults.connectivity import (
    connected_under_faults,
    connectivity_certificate,
    is_maximally_fault_tolerant,
    vertex_connectivity,
)
from repro.faults.model import FaultSet
from repro.topologies.base import Topology
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh
from repro.topologies.mesh_of_trees import MeshOfTrees
from repro.topologies.tree import CompleteBinaryTree
from tests.topologies import _reference_bfs as reference


class _GraphTopology(Topology):
    """An explicit networkx graph behind the :class:`Topology` interface
    (not vertex transitive), so Even's algorithm meets arbitrary inputs."""

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph
        self.name = f"G({graph.number_of_nodes()})"

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def nodes(self):
        return iter(self.graph.nodes())

    def neighbors(self, v):
        return list(self.graph.neighbors(v))

    def has_node(self, v) -> bool:
        return v in self.graph


class TestExactConnectivity:
    def test_hypercube_kappa_m(self):
        """[5]: kappa(H_m) = m; maximally fault tolerant."""
        for m in (2, 3, 4):
            h = Hypercube(m)
            assert vertex_connectivity(h) == m
            assert is_maximally_fault_tolerant(h)

    def test_butterfly_kappa_4(self):
        """Remark 1: kappa(B_n) = 4; maximally fault tolerant."""
        b = CayleyButterfly(3)
        assert vertex_connectivity(b) == 4
        assert is_maximally_fault_tolerant(b)

    @pytest.mark.parametrize(("m", "n"), [(0, 3), (1, 3), (2, 3), (2, 4), (3, 4)])
    def test_corollary1_hb_kappa_m_plus_4(self, m, n):
        """Corollary 1: kappa(HB(m,n)) = m + 4 — exact, not just witnessed."""
        hb = HyperButterfly(m, n)
        assert vertex_connectivity(hb) == m + 4
        assert is_maximally_fault_tolerant(hb)

    @pytest.mark.parametrize(("m", "n"), [(1, 3), (2, 3)])
    def test_hd_is_not_maximally_fault_tolerant(self, m, n):
        """The HD shortcoming the paper fixes: kappa = m+2 < max degree."""
        hd = HyperDeBruijn(m, n)
        assert vertex_connectivity(hd) == m + 2
        lo, hi = hd.degree_stats()
        assert m + 2 == lo < hi  # limited by its minimum-degree nodes


class TestEvenAgainstNetworkx:
    """``vertex_connectivity`` (Even's algorithm on the Menger solver)
    against ``nx.node_connectivity`` on the materialised graph."""

    @pytest.mark.parametrize(
        "topology",
        [
            HyperButterfly(1, 3),
            HyperButterfly(2, 3),
            Mesh(4, 5),
            CompleteBinaryTree(4),
            MeshOfTrees(4, 4),
            HyperDeBruijn(2, 3),
        ],
        ids=lambda t: t.name,
    )
    def test_families(self, topology):
        assert vertex_connectivity(topology) == nx.node_connectivity(
            topology.to_networkx()
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        graph = nx.gnp_random_graph(14, 0.45, seed=seed)
        assert vertex_connectivity(_GraphTopology(graph)) == nx.node_connectivity(graph)

    def test_separator_holds_the_first_vertices(self):
        """Two K_5 glued on a 3-vertex separator listed first: the sources
        inside the separator see no cut, so Even's bound must reach past
        them."""
        graph = nx.Graph()
        graph.add_nodes_from(range(13))
        left, right, cut = range(3, 8), range(8, 13), range(3)
        for side in (left, right):
            for a in [*side, *cut]:
                for b in [*side, *cut]:
                    if a < b:
                        graph.add_edge(a, b)
        assert vertex_connectivity(_GraphTopology(graph)) == 3 == nx.node_connectivity(graph)

    def test_complete_graph(self):
        assert vertex_connectivity(_GraphTopology(nx.complete_graph(6))) == 5

    def test_disconnected(self):
        graph = nx.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(5))
        assert vertex_connectivity(_GraphTopology(graph)) == 0


class TestCertificates:
    def test_certificate_tight_on_hb(self, hb23):
        cert = connectivity_certificate(hb23, pairs=10)
        assert cert.upper == hb23.m + 4
        assert cert.lower_witnessed == hb23.m + 4
        assert cert.tight

    def test_certificate_pairs_recorded(self, hb13):
        cert = connectivity_certificate(hb13, pairs=4)
        assert cert.pairs_sampled == 4

    def test_invalid_pairs(self, hb13):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            connectivity_certificate(hb13, pairs=0)


class TestConnectedUnderFaults:
    def test_below_connectivity_never_disconnects(self, hb13, rng):
        """Corollary 1 consequence: any m+3 faults leave HB connected."""
        from repro.faults.model import random_node_faults

        for _ in range(10):
            faults = random_node_faults(hb13, hb13.m + 3, rng=rng)
            assert connected_under_faults(hb13, faults)

    def test_isolating_a_node_disconnects(self, hb13):
        victim = (1, (1, 0b010))
        faults = FaultSet(hb13, hb13.neighbors(victim))
        assert not connected_under_faults(hb13, faults)

    def test_all_faulty_is_vacuously_connected(self):
        h = Hypercube(1)
        assert connected_under_faults(h, FaultSet(h, [0, 1]))

    def test_backends_agree_on_verdicts(self, hb13):
        """The fast reachability count is pinned to the reference BFS."""
        import random

        from repro.faults.model import random_node_faults

        victim = (1, (1, 0b010))
        cases = [
            random_node_faults(hb13, count, rng=random.Random(count))
            for count in (0, hb13.m + 3, 10, 20)
        ]
        cases.append(FaultSet(hb13, hb13.neighbors(victim)))  # disconnects
        verdicts = []
        for faults in cases:
            start = next(v for v in hb13.nodes() if v not in faults.nodes)
            reached = reference.bfs_distances(hb13, start, faults.nodes)
            verdict = len(reached) == hb13.num_nodes - len(faults.nodes)
            for backend in ("csr", "implicit"):
                assert connected_under_faults(hb13, faults, backend=backend) == verdict
            verdicts.append(verdict)
        assert verdicts[0] and verdicts[1]  # <= m+3 can never disconnect
        assert not verdicts[-1]

    def test_raw_labels_that_are_not_nodes_raise(self):
        """A raw iterable is validated like a FaultSet: a label that is not
        a node raises instead of being counted as a missing survivor."""
        from repro.errors import InvalidLabelError

        hb = HyperButterfly(2, 3)
        for backend in (None, "csr", "implicit"):
            with pytest.raises(InvalidLabelError):
                connected_under_faults(hb, [(99, (0, 0))], backend=backend)
            with pytest.raises(InvalidLabelError):
                FaultSet(hb, [(99, (0, 0))])
            node = next(iter(hb.nodes()))
            assert connected_under_faults(hb, [node, node], backend=backend)

    def test_unknown_backend_rejected(self, hb13):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            connected_under_faults(hb13, FaultSet(hb13), backend="quantum")
