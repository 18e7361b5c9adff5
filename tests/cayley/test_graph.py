"""Cayley-graph construction and distance-oracle tests."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.cayley.graph import CayleyGraph, DistanceOracle, build_cayley_graph
from repro.cayley.group import ButterflyGroup, GeneratorSet, HypercubeGroup
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidLabelError, InvalidParameterError
from tests.topologies import _reference_bfs as reference


def cube_graph(m: int) -> CayleyGraph:
    group = HypercubeGroup(m)
    gens = GeneratorSet(
        group=group,
        generators=tuple(group.unit_generators()),
        names=tuple(f"h_{i}" for i in range(m)),
    )
    return CayleyGraph(group, gens)


def butterfly_graph(n: int) -> CayleyGraph:
    group = ButterflyGroup(n)
    gens = GeneratorSet(
        group=group,
        generators=tuple(group.butterfly_generators()),
        names=("g", "f", "g^-1", "f^-1"),
    )
    return CayleyGraph(group, gens)


def hyper_butterfly_graph(n: int) -> CayleyGraph:
    hb = HyperButterfly(1, n)
    return CayleyGraph(hb.group, hb.gens)


def dense_fill(cg: CayleyGraph):
    """Reference oracle fill: ``(dist, via, parents)`` arrays by codec rank.

    Materializes the full generator table (column ``i`` is generator ``i``
    applied to every element), runs the CSR BFS kernel over it, and reads
    each element's reaching generator off its parent's table row.
    """
    import numpy as np

    from repro.fastgraph.codecs import codec_for_group
    from repro.fastgraph.csr import CSRAdjacency
    from repro.fastgraph.kernels import bfs_levels

    codec = codec_for_group(cg.group)
    order = codec.num_nodes
    table = np.column_stack(
        [
            codec.apply_generator(np.arange(order, dtype=np.int64), s)
            for s in cg.gens.generators
        ]
    )
    csr = CSRAdjacency(
        indptr=np.arange(order + 1, dtype=np.int64) * table.shape[1],
        indices=np.ascontiguousarray(table.ravel(), dtype=np.int32),
        uniform_degree=table.shape[1],
    )
    root = codec.rank(cg.group.identity())
    dist, parents = bfs_levels(csr, root, want_parents=True)
    via = np.argmax(table[parents] == np.arange(order)[:, None], axis=1)
    via[root] = -1
    return dist, via, parents


class TestConstruction:
    def test_cube_counts(self):
        cg = cube_graph(4)
        assert cg.num_nodes == 16
        assert cg.degree == 4
        assert cg.num_edges == 32

    def test_to_networkx_matches_counts(self):
        cg = butterfly_graph(3)
        g = cg.to_networkx()
        assert g.number_of_nodes() == cg.num_nodes
        assert g.number_of_edges() == cg.num_edges
        assert all(d == 4 for _, d in g.degree())

    def test_edges_are_generator_labelled(self):
        g = build_cayley_graph(
            HypercubeGroup(2),
            GeneratorSet(
                group=HypercubeGroup(2), generators=(1, 2), names=("h_0", "h_1")
            ),
        )
        assert g.edges[0, 1]["generator"] == "h_0"

    def test_has_edge_and_neighbors(self):
        cg = cube_graph(3)
        assert cg.has_edge(0, 1)
        assert not cg.has_edge(0, 3)
        assert set(cg.neighbors(0)) == {1, 2, 4}

    def test_mismatched_group_rejected(self):
        gens = GeneratorSet(
            group=HypercubeGroup(2), generators=(1, 2), names=("a", "b")
        )
        with pytest.raises(InvalidLabelError):
            CayleyGraph(HypercubeGroup(3), gens)


class TestDistanceOracle:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_cube_distances_are_hamming(self, m):
        oracle = cube_graph(m).oracle
        for u in range(1 << m):
            for v in range(1 << m):
                assert oracle.distance(u, v) == (u ^ v).bit_count()

    def test_butterfly_distances_match_networkx(self):
        cg = butterfly_graph(3)
        g = cg.to_networkx()
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for u in cg.nodes():
            for v in cg.nodes():
                assert cg.distance(u, v) == lengths[u][v]

    def test_shortest_path_valid_and_tight(self):
        cg = butterfly_graph(4)
        g = cg.to_networkx()
        import random

        rng = random.Random(1)
        nodes = list(cg.nodes())
        for _ in range(50):
            u, v = rng.sample(nodes, 2)
            path = cg.shortest_path(u, v)
            assert path[0] == u and path[-1] == v
            assert len(path) - 1 == cg.distance(u, v)
            for a, b in zip(path, path[1:], strict=False):
                assert g.has_edge(a, b)

    def test_generator_word_replays_to_target(self):
        cg = butterfly_graph(3)
        oracle = cg.oracle
        for delta in cg.nodes():
            word = oracle.generator_word(delta)
            v = cg.group.identity()
            for i in word:
                v = cg.gens.apply(v, i)
            assert v == delta
            assert len(word) == oracle.distance_from_identity(delta)

    def test_diameter_is_identity_eccentricity(self):
        cg = butterfly_graph(3)
        g = cg.to_networkx()
        assert cg.diameter() == nx.diameter(g)

    def test_distance_distribution_sums_to_order(self):
        oracle = cube_graph(4).oracle
        hist = oracle.distance_distribution()
        assert sum(hist.values()) == 16
        # binomial profile of the 4-cube
        assert hist == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}

    def test_average_distance_cube(self):
        oracle = cube_graph(3).oracle
        # mean Hamming weight over all 3-bit words = 1.5
        assert oracle.average_distance() == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "graph_builder", [cube_graph, butterfly_graph, hyper_butterfly_graph]
    )
    def test_implicit_backend_bit_identical_to_dense(self, graph_builder):
        import numpy as np

        cg = graph_builder(3)
        implicit = DistanceOracle(cg.group, cg.gens, backend="implicit")
        assert implicit.factor_split() is None  # whole-group array fill
        dist, via, parents = dense_fill(cg)
        assert np.array_equal(implicit._dist_arr, dist)
        assert np.array_equal(implicit._via_arr, via)
        assert np.array_equal(implicit._parent_arr, parents)
        ref_dist, _ = reference.oracle_fill(cg.group, cg.gens)
        for delta in cg.nodes():
            assert implicit.distance_from_identity(delta) == ref_dist[delta]
            word = implicit.generator_word(delta)
            v = cg.group.identity()
            for i in word:
                v = cg.gens.apply(v, i)
            assert v == delta

    @pytest.mark.parametrize("backend", ["implicit", "auto"])
    def test_word_table_is_cached_and_read_only(self, backend):
        cg = butterfly_graph(3)
        oracle = DistanceOracle(cg.group, cg.gens, backend=backend)
        words, dist = oracle.word_table()
        again = oracle.word_table()
        assert again[0] is words and again[1] is dist
        with pytest.raises(ValueError):
            words[0, 0] = 1
        with pytest.raises(ValueError):
            dist[0] = 1

    def test_lifted_word_tables_concatenate_to_generator_words(self):
        from repro.fastgraph.codecs import codec_for_group

        cg = hyper_butterfly_graph(3)
        oracle = cg.oracle
        lw, ld, rw, rd = oracle.lifted_word_tables()
        assert oracle.lifted_word_tables()[2] is rw  # cached
        with pytest.raises(ValueError):
            rw[0, 0] = 1
        left = codec_for_group(cg.group.left)
        right = codec_for_group(cg.group.right)
        for a, b in cg.nodes():
            ra, rb = left.rank(a), right.rank(b)
            word = [*lw[ra, : ld[ra]], *rw[rb, : rd[rb]]]
            assert word == oracle.generator_word((a, b))
        with pytest.raises(InvalidParameterError):
            cube_graph(2).oracle.lifted_word_tables()

    def test_invalid_label_raises(self):
        oracle = cube_graph(2).oracle
        with pytest.raises(InvalidLabelError):
            oracle.distance_from_identity(99)
