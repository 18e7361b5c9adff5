"""Cartesian-product topology tests (Definition 3 preamble)."""

from __future__ import annotations

import networkx as nx

from repro.topologies.cycle import Cycle
from repro.topologies.hypercube import Hypercube
from repro.topologies.product import CartesianProduct


class TestProductStructure:
    def test_counts(self):
        prod = CartesianProduct(Hypercube(2), Cycle(5))
        assert prod.num_nodes == 20
        assert prod.num_edges == 2 * 2 * 5 + 4 * 5  # |E_G|*|V_H| + |V_G|*|E_H|

    def test_matches_networkx_cartesian_product(self):
        g1, g2 = Hypercube(2), Cycle(4)
        ours = CartesianProduct(g1, g2).to_networkx()
        theirs = nx.cartesian_product(g1.to_networkx(), g2.to_networkx())
        assert nx.is_isomorphic(ours, theirs)

    def test_edge_changes_exactly_one_coordinate(self):
        prod = CartesianProduct(Cycle(4), Cycle(5))
        for v in prod.nodes():
            for w in prod.neighbors(v):
                changed = (v[0] != w[0]) + (v[1] != w[1])
                assert changed == 1

    def test_degree_is_sum_of_factor_degrees(self):
        prod = CartesianProduct(Hypercube(3), Cycle(6))
        assert prod.degree((0, 0)) == 3 + 2

    def test_has_node(self):
        prod = CartesianProduct(Hypercube(1), Cycle(3))
        assert prod.has_node((1, 2))
        assert not prod.has_node((2, 2))
        assert not prod.has_node((1, 3))
        assert not prod.has_node("nope")


class TestRemark5Copies:
    """The product decomposes into disjoint factor copies (Remark 5)."""

    def test_left_copy_is_factor_graph(self):
        prod = CartesianProduct(Hypercube(2), Cycle(3))
        copy_nodes = list(prod.left_copy(1))
        assert len(copy_nodes) == 4
        sub = prod.subgraph_networkx(copy_nodes)
        assert nx.is_isomorphic(sub, Hypercube(2).to_networkx())

    def test_right_copy_is_factor_graph(self):
        prod = CartesianProduct(Hypercube(2), Cycle(5))
        copy_nodes = list(prod.right_copy(3))
        sub = prod.subgraph_networkx(copy_nodes)
        assert nx.is_isomorphic(sub, Cycle(5).to_networkx())

    def test_copies_partition_nodes(self):
        prod = CartesianProduct(Hypercube(2), Cycle(3))
        seen = set()
        for x in Cycle(3).nodes():
            for node in prod.left_copy(x):
                assert node not in seen
                seen.add(node)
        assert len(seen) == prod.num_nodes


class TestDeclaredStructure:
    """The satellite accessors the decomposition engine dispatches on."""

    def test_factors_accessor(self):
        prod = CartesianProduct(Hypercube(2), Cycle(5))
        assert prod.factors() == (prod.left, prod.right)

    def test_transitivity_composes_across_factors(self):
        from repro.topologies.debruijn import DeBruijn

        assert Hypercube(3).is_vertex_transitive
        assert Cycle(5).is_vertex_transitive
        assert not DeBruijn(2).is_vertex_transitive
        assert CartesianProduct(Hypercube(2), Cycle(5)).is_vertex_transitive
        assert not CartesianProduct(
            Hypercube(2), DeBruijn(2)
        ).is_vertex_transitive

    def test_declared_flags_verified_by_bfs_profile(self):
        """A vertex-transitive graph has the same distance profile from
        every vertex — spot-check the declared flags against reality."""
        from repro.topologies.butterfly_cayley import CayleyButterfly
        from repro.topologies.mesh import Mesh, Torus

        def profiles(topology):
            out = set()
            for v in topology.nodes():
                counts: dict[int, int] = {}
                for d in topology.bfs_distances(v).values():
                    counts[d] = counts.get(d, 0) + 1
                out.add(tuple(sorted(counts.items())))
            return out

        for transitive in (Hypercube(3), Cycle(6), CayleyButterfly(3), Torus(3, 4)):
            assert transitive.is_vertex_transitive
            assert len(profiles(transitive)) == 1, transitive.name
        mesh = Mesh(3, 4)
        assert not mesh.is_vertex_transitive
        assert len(profiles(mesh)) > 1
