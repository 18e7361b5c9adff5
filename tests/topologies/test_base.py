"""Micro-tests for the shared :class:`Topology` base-class helpers."""

from __future__ import annotations

import random
from typing import Hashable, Iterator

import pytest

from repro.errors import InvalidParameterError
from repro.topologies.base import Topology
from repro.topologies.hypercube import Hypercube
from repro.topologies.mesh_of_trees import MeshOfTrees
from tests.topologies import _reference_bfs as reference


class TestHasEdge:
    def test_agrees_with_neighbor_membership(self):
        cube = Hypercube(3)
        for u in cube.nodes():
            neighbor_set = set(cube.neighbors(u))
            for v in cube.nodes():
                assert cube.has_edge(u, v) == (v in neighbor_set)

    def test_no_self_loops(self):
        mot = MeshOfTrees(2, 2)
        for v in list(mot.nodes())[:8]:
            assert not mot.has_edge(v, v)

    def test_scan_never_hashes_the_neighbor_list(self):
        """The probe is a short-circuit ``==`` scan — building a set per
        call (the old implementation) would hash every neighbor label and
        blow up on unhashable ones."""

        class ListLabeled(Topology):
            name = "toy"

            @property
            def num_nodes(self) -> int:
                return 2

            def nodes(self) -> Iterator[Hashable]:
                yield [0]
                yield [1]

            def neighbors(self, v: Hashable) -> list:
                return [[1]] if v == [0] else [[0]]

            def has_node(self, v: Hashable) -> bool:
                return v in ([0], [1])

        toy = ListLabeled()
        assert toy.has_edge([0], [1])
        assert not toy.has_edge([0], [0])


class TestBackendKwargValidation:
    def test_python_backend_is_unknown(self):
        cube = Hypercube(3)
        source = next(iter(cube.nodes()))
        with pytest.raises(InvalidParameterError, match="unknown backend 'python'"):
            cube.bfs_distances(source, backend="python")

    def test_codecless_families_reject_implicit_backend(self):
        mot = MeshOfTrees(2, 2)
        source = next(iter(mot.nodes()))
        assert mot.bfs_distances(source, backend="csr") == reference.bfs_distances(
            mot, source
        )
        with pytest.raises(InvalidParameterError, match="no vectorized implicit"):
            mot.bfs_distances(source, backend="implicit")


class TestCodeclessFamilies:
    """``MeshOfTrees`` has no codec: an enumeration codec over ``nodes()``
    and its CSR answer every BFS question the reference answers."""

    @pytest.fixture(scope="class")
    def mot(self):
        return MeshOfTrees(4, 4)

    def test_distances_and_eccentricity_equal_the_reference(self, mot):
        for source in random.Random(0).sample(list(mot.nodes()), 8):
            dist = reference.bfs_distances(mot, source)
            assert mot.bfs_distances(source) == dist
            assert mot.eccentricity(source) == max(dist.values())

    def test_edges_equal_the_reference(self, mot):
        expected = [frozenset(e) for e in reference.edges(mot)]
        got = [frozenset(e) for e in mot.edges()]
        assert len(got) == len(set(got)) == mot.num_edges
        assert set(got) == set(expected)

    def test_blocked_shortest_paths_are_valid_and_shortest(self, mot):
        rng = random.Random(1)
        nodes = list(mot.nodes())
        for _ in range(60):
            u, v, *cut = rng.sample(nodes, 8)
            blocked = frozenset(cut)
            expected = reference.bfs_shortest_path(mot, u, v, blocked)
            path = mot.bfs_shortest_path(u, v, blocked=blocked)
            if expected is None:
                assert path is None
                continue
            assert path is not None and len(path) == len(expected)
            assert path[0] == u and path[-1] == v
            assert not blocked.intersection(path)
            pairs = zip(path, path[1:], strict=False)
            assert all(mot.has_edge(a, b) for a, b in pairs)
