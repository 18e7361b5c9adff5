"""Codec round-trip and registry tests for the fast graph backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.fastgraph import codec_for, codec_for_group, register_codec
from repro.fastgraph.codecs import EnumerationCodec, NodeCodec
from repro.topologies.base import Topology
from repro.topologies.butterfly import WrappedButterfly
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.cycle import Cycle
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh, Torus
from repro.topologies.mesh_of_trees import MeshOfTrees
from repro.topologies.product import CartesianProduct
from repro.topologies.tree import CompleteBinaryTree

GRID = [
    Hypercube(0),
    Hypercube(1),
    Hypercube(3),
    Hypercube(5),
    WrappedButterfly(3),
    WrappedButterfly(4),
    CayleyButterfly(3),
    CayleyButterfly(5),
    HyperButterfly(0, 3),
    HyperButterfly(1, 3),
    HyperButterfly(2, 4),
    DeBruijn(4),
    HyperDeBruijn(2, 3),
    Cycle(7),
    Torus(3, 4),
    Mesh(3, 5),
    CompleteBinaryTree(4),
    CartesianProduct(Hypercube(2), Cycle(5)),
]


@pytest.mark.parametrize("topology", GRID, ids=lambda t: t.name)
class TestRoundTrip:
    def test_codec_exists(self, topology):
        assert codec_for(topology) is not None

    def test_rank_unrank_bijective(self, topology):
        codec = codec_for(topology)
        assert codec.num_nodes == topology.num_nodes
        for idx in range(codec.num_nodes):
            assert codec.rank(codec.unrank(idx)) == idx

    def test_unrank_matches_node_universe(self, topology):
        codec = codec_for(topology)
        labels = {codec.unrank(i) for i in range(codec.num_nodes)}
        assert labels == set(topology.nodes())

    def test_unrank_follows_node_enumeration(self, topology):
        """Rank ``i`` is the ``i``-th node of ``topology.nodes()``, so rank
        workloads unrank to the same labels a node list would index."""
        codec = codec_for(topology)
        assert [codec.unrank(i) for i in range(codec.num_nodes)] == list(
            topology.nodes()
        )

    def test_ranks_of_nodes_are_dense(self, topology):
        codec = codec_for(topology)
        ranks = sorted(codec.rank(v) for v in topology.nodes())
        assert ranks == list(range(topology.num_nodes))


class TestNeighborTables:
    @pytest.mark.parametrize(
        "topology",
        [
            Hypercube(3),
            WrappedButterfly(4),
            CayleyButterfly(4),
            HyperButterfly(2, 3),
            Cycle(6),
            Torus(3, 3),
            CartesianProduct(Hypercube(2), Cycle(4)),
        ],
        ids=lambda t: t.name,
    )
    def test_table_matches_neighbors(self, topology):
        """Vectorized tables agree with label-level ``neighbors`` per node."""
        codec = codec_for(topology)
        table = codec.neighbor_table()
        assert table is not None
        anchor = next(iter(topology.nodes()))
        assert table.shape == (topology.num_nodes, topology.degree(anchor))
        for idx in range(topology.num_nodes):
            expected = {codec.rank(w) for w in topology.neighbors(codec.unrank(idx))}
            assert set(int(j) for j in table[idx]) == expected

    def test_irregular_families_have_no_table(self):
        assert codec_for(DeBruijn(3)).neighbor_table() is None
        assert codec_for(Mesh(3, 3)).neighbor_table() is None


class TestGroupCodecs:
    def test_hyperbutterfly_group_codec_roundtrip(self, hb23):
        codec = codec_for_group(hb23.group)
        assert codec is not None
        for i, element in enumerate(sorted(codec.rank(v) for v in hb23.group.elements())):
            assert i == element

    def test_unknown_group_has_no_codec(self):
        class Weird:
            pass

        assert codec_for_group(Weird()) is None


def _per_generator_block(codec, idx):
    """Reference product ``neighbors_block``: one ``apply_generator`` per
    column, each splitting the rank into its factors."""
    nr = codec.right.num_nodes
    a, b = idx // nr, idx % nr
    columns = [
        codec.left.apply_generator(a, ga) * nr + codec.right.apply_generator(b, gb)
        for ga, gb in codec.generators
    ]
    return np.column_stack(columns)


@pytest.mark.parametrize("m, n", [(0, 3), (1, 3), (3, 4), (4, 5)])
class TestProductMoveTables:
    """The table-driven product ``neighbors_block`` (``left[a] + right[b]``)
    against per-generator ``apply_generator``."""

    def test_matches_apply_generator(self, m, n):
        codec = codec_for(HyperButterfly(m, n))
        idx = np.arange(codec.num_nodes, dtype=np.int64)
        block = codec.neighbors_block(idx)
        assert block.dtype == np.int64
        assert np.array_equal(block, _per_generator_block(codec, idx))
        # arbitrary order with repeats, as a BFS frontier slice is not
        rng = np.random.default_rng(m * 10 + n)
        some = rng.integers(0, codec.num_nodes, size=257)
        assert np.array_equal(
            codec.neighbors_block(some), _per_generator_block(codec, some)
        )
        assert codec.neighbors_block(idx[:0]).shape == (0, m + 4)

    def test_table_layout(self, m, n):
        codec = codec_for(HyperButterfly(m, n))
        left, right = codec.move_tables()
        nr = codec.right.num_nodes
        assert left.shape == (1 << m, m + 4) and left.dtype == np.int64
        assert right.shape == (nr, m + 4) and right.dtype == np.int32
        assert not (left % nr).any()
        # cube generators leave the butterfly factor alone: identity columns
        for k, (ga, gb) in enumerate(codec.generators):
            if gb == (0, 0):
                assert np.array_equal(right[:, k], np.arange(nr))
        assert codec.move_tables()[0] is left  # cached

    def test_step_block_matches_apply_generator(self, m, n):
        """The two-gather ``step_block`` against the base per-generator loop,
        padding (``-1``) included — also at rank 0, whose padding offset
        is negative."""
        codec = codec_for(HyperButterfly(m, n))
        rng = np.random.default_rng(m * 10 + n)
        idx = rng.integers(0, codec.num_nodes, size=513)
        idx[:3] = 0
        gen_index = rng.integers(-1, m + 4, size=513).astype(np.int16)
        gen_index[:2] = -1
        got = codec.step_block(idx, gen_index)
        assert got.dtype == np.int64
        assert np.array_equal(got, NodeCodec.step_block(codec, idx, gen_index))
        expected = _per_generator_block(codec, idx)[np.arange(513), gen_index]
        assert np.array_equal(got, np.where(gen_index < 0, idx, expected))
        assert codec.step_block(idx[:0], gen_index[:0]).shape == (0,)

    def test_tables_follow_reassigned_generators(self, m, n):
        """``DistanceOracle`` reassigns ``codec.generators`` after the codec
        is built (and possibly used); the tables must follow."""
        hb = HyperButterfly(m, n)
        codec = codec_for_group(hb.group)
        idx = np.arange(codec.num_nodes, dtype=np.int64)
        family = tuple(hb.gens.generators)
        for gens in (family, family[::-1], family[1:], family[:1] * 2, family):
            codec.generators = gens
            block = codec.neighbors_block(idx)
            assert block.shape == (codec.num_nodes, len(gens))
            assert np.array_equal(block, _per_generator_block(codec, idx))


class TestRegistryOptIn:
    def test_unregistered_topology_has_no_codec(self):
        assert codec_for(MeshOfTrees(2, 2)) is None

    def test_external_subclass_can_register(self):
        class TinyPath(Topology):
            name = "tiny-path"
            num_nodes = 4

            def nodes(self):
                return iter(range(4))

            def has_node(self, v):
                return isinstance(v, int) and 0 <= v < 4

            def neighbors(self, v):
                self.validate_node(v)
                return [w for w in (v - 1, v + 1) if 0 <= w < 4]

        register_codec(TinyPath, lambda t: EnumerationCodec(t.nodes()))
        try:
            codec = codec_for(TinyPath())
            assert codec is not None
            assert [codec.unrank(i) for i in range(4)] == [0, 1, 2, 3]
        finally:
            from repro.fastgraph.codecs import _REGISTRY

            _REGISTRY.pop("TinyPath", None)
