"""Complete binary tree ``T(k)``: counts, heap structure, codec round-trip."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.fastgraph.codecs import codec_for
from repro.topologies.tree import CompleteBinaryTree
from tests.topologies import _reference_bfs as reference


class TestCounts:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_node_and_edge_counts(self, k):
        t = CompleteBinaryTree(k)
        assert t.num_nodes == 2**k - 1
        assert t.num_edges == t.num_nodes - 1  # it is a tree
        assert len(list(t.nodes())) == t.num_nodes
        assert len(list(t.edges())) == t.num_edges

    def test_k_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            CompleteBinaryTree(0)


class TestHeapStructure:
    def test_root_and_children(self):
        t = CompleteBinaryTree(3)
        assert t.root == 1
        assert t.parent(t.root) is None
        assert t.children(1) == [2, 3]
        assert t.parent(5) == 2

    def test_leaves_and_depth(self):
        t = CompleteBinaryTree(3)
        assert list(t.leaves()) == [4, 5, 6, 7]
        assert all(t.is_leaf(v) for v in t.leaves())
        assert t.depth(t.root) == 0
        assert {t.depth(v) for v in t.leaves()} == {t.k - 1}

    def test_neighbors_consistent_with_parent_children(self):
        t = CompleteBinaryTree(4)
        for v in t.nodes():
            expected = ([] if t.parent(v) is None else [t.parent(v)]) + t.children(v)
            assert sorted(t.neighbors(v)) == sorted(expected)

    def test_single_level_tree_is_one_node(self):
        t = CompleteBinaryTree(1)
        assert list(t.nodes()) == [1]
        assert t.neighbors(1) == []


class TestCodec:
    def test_codec_round_trip(self):
        t = CompleteBinaryTree(4)
        codec = codec_for(t)
        assert codec is not None and codec.num_nodes == t.num_nodes
        ranks = sorted(codec.rank(v) for v in t.nodes())
        assert ranks == list(range(t.num_nodes))
        for v in t.nodes():
            assert codec.unrank(codec.rank(v)) == v

    def test_fast_and_python_bfs_agree(self):
        t = CompleteBinaryTree(4)
        fast = t.bfs_distances(t.root)
        slow = reference.bfs_distances(t, t.root)
        assert fast == slow
