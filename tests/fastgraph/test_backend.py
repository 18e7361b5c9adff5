"""Fast backend vs. the pure-Python reference BFS: bit-identical results.

The acceptance bar for the CSR backend is exactness: on a grid of small
instances of every topology family, distances, eccentricities, diameters,
shortest-path lengths, edges, and oracle services must match the
label-walking reference (``tests/topologies/_reference_bfs.py``) value for
value.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.distance_stats import pair_distance_counts
from repro.analysis.metrics import exact_diameter
from repro.cayley.graph import DistanceOracle
from repro.cayley.group import GeneratorSet, Group
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError
from repro.fastgraph import get_fastgraph
from repro.fastgraph.backend import FastGraph
from repro.fastgraph.parallel import parallel_sweep
from repro.faults.connectivity import connected_under_faults
from repro.faults.structures import star_structure, structure_fault_diameter
from repro.topologies.butterfly import WrappedButterfly
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.cycle import Cycle
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh, Torus
from repro.topologies.mesh_of_trees import MeshOfTrees
from repro.topologies.tree import CompleteBinaryTree
from tests.topologies import _reference_bfs as reference

GRID = [
    Hypercube(1),
    Hypercube(4),
    WrappedButterfly(3),
    WrappedButterfly(4),
    CayleyButterfly(4),
    HyperButterfly(0, 3),
    HyperButterfly(2, 3),
    HyperButterfly(1, 4),
    DeBruijn(4),
    HyperDeBruijn(2, 3),
    Cycle(9),
    Torus(3, 4),
    Mesh(4, 3),
    CompleteBinaryTree(4),
]


def _sample_nodes(topology, k, seed=0):
    nodes = list(topology.nodes())
    rng = random.Random(seed)
    return rng.sample(nodes, min(k, len(nodes)))


@pytest.mark.parametrize("topology", GRID, ids=lambda t: t.name)
class TestFastMatchesPython:
    def test_backend_engages(self, topology):
        assert isinstance(get_fastgraph(topology), FastGraph)

    def test_bfs_distances_identical(self, topology):
        for source in _sample_nodes(topology, 4):
            fast = topology.bfs_distances(source)
            slow = reference.bfs_distances(topology, source)
            assert fast == slow

    def test_bfs_distances_blocked_identical(self, topology):
        nodes = _sample_nodes(topology, 6, seed=1)
        source, blocked = nodes[0], frozenset(nodes[1:4])
        if source in blocked:
            blocked = blocked - {source}
        fast = topology.bfs_distances(source, blocked=blocked)
        slow = reference.bfs_distances(topology, source, blocked)
        assert fast == slow

    def test_eccentricity_identical(self, topology):
        for source in _sample_nodes(topology, 3, seed=2):
            expected = max(reference.bfs_distances(topology, source).values())
            assert topology.eccentricity(source) == expected

    def test_shortest_paths_are_shortest_and_valid(self, topology):
        nodes = _sample_nodes(topology, 6, seed=3)
        for u in nodes[:2]:
            dist = reference.bfs_distances(topology, u)
            for v in nodes[2:]:
                path = topology.bfs_shortest_path(u, v)
                assert path is not None
                assert path[0] == u and path[-1] == v
                assert len(path) - 1 == dist[v]
                for a, b in zip(path, path[1:], strict=False):
                    assert b in topology.neighbors(a)

    def test_edges_identical(self, topology):
        fast = {frozenset(e) for e in topology.edges()}
        slow = {frozenset(e) for e in reference.edges(topology)}
        assert fast == slow
        assert len(fast) == topology.num_edges

    def test_batched_eccentricities_match_per_source(self, topology):
        fg = get_fastgraph(topology)
        ecc = parallel_sweep(fg.csr, batch=32, name=topology.name).eccentricities
        for idx in range(0, topology.num_nodes, max(1, topology.num_nodes // 5)):
            source = fg.unrank(idx)
            expected = max(reference.bfs_distances(topology, source).values())
            assert int(ecc[idx]) == expected

    def test_exact_diameter_generic_vs_transitive_agree(self, topology):
        assert exact_diameter(topology, force_generic=True) == max(
            max(reference.bfs_distances(topology, v).values())
            for v in topology.nodes()
        )

    def test_distance_histogram_matches_python(self, topology):
        fg = get_fastgraph(topology)
        counts: dict[int, int] = {}
        for v in topology.nodes():
            for d in reference.bfs_distances(topology, v).values():
                counts[d] = counts.get(d, 0) + 1
        histogram = parallel_sweep(fg.csr, check_connected=False).histogram
        assert histogram == dict(sorted(counts.items()))


class TestBlockedSemantics:
    def test_blocked_source_raises(self, hb13):
        from repro.errors import InvalidLabelError

        u = hb13.identity_node()
        with pytest.raises(InvalidLabelError):
            hb13.bfs_distances(u, blocked=frozenset({u}))

    def test_blocked_target_path_none(self, hb13):
        u = hb13.identity_node()
        v = next(n for n in hb13.nodes() if n != u)
        assert hb13.bfs_shortest_path(u, v, blocked=frozenset({v})) is None

    def test_blocked_cut_disconnects(self):
        cycle = Cycle(8)
        blocked = frozenset({1, 7})
        dist = cycle.bfs_distances(0, blocked=blocked)
        assert dist == {0: 0}
        assert cycle.bfs_shortest_path(0, 4, blocked=blocked) is None

    def test_foreign_labels_in_blocked_are_ignored(self):
        h = Hypercube(3)
        assert h.bfs_distances(0, blocked=frozenset({"nope"})) == h.bfs_distances(0)


class TestOracleBackends:
    @pytest.mark.parametrize("m,n", [(0, 3), (1, 3), (2, 4)])
    def test_oracle_fast_matches_python(self, m, n):
        hb = HyperButterfly(m, n)
        fast = DistanceOracle(hb.group, hb.gens)
        dist, _ = reference.oracle_fill(hb.group, hb.gens)
        # default backend splits HB into factor oracles (product fast path)
        assert fast._left is not None and fast._right is not None
        for v in hb.group.elements():
            assert fast.distance_from_identity(v) == dist[v]
            word = fast.generator_word(v)
            assert len(word) == dist[v]
            cursor = hb.group.identity()
            for i in word:
                cursor = hb.gens.apply(cursor, i)
            assert cursor == v
        histogram: dict[int, int] = {}
        for d in dist.values():
            histogram[d] = histogram.get(d, 0) + 1
        assert fast.eccentricity_of_identity() == max(dist.values())
        assert fast.distance_distribution() == dict(sorted(histogram.items()))
        assert fast.average_distance() == pytest.approx(
            sum(dist.values()) / len(dist)
        )

    def test_oracle_shortest_path_lengths_match(self, hb23):
        fast = DistanceOracle(hb23.group, hb23.gens)
        nodes = _sample_nodes(hb23, 8, seed=5)
        for u in nodes[:4]:
            for v in nodes[4:]:
                pf = fast.shortest_path(u, v)
                ps = reference.bfs_shortest_path(hb23, u, v)
                assert len(pf) == len(ps) == fast.distance(u, v) + 1
                assert pf[0] == u and pf[-1] == v

    def test_invalid_element_raises(self, hb13):
        from repro.errors import InvalidLabelError

        oracle = DistanceOracle(hb13.group, hb13.gens)
        with pytest.raises(InvalidLabelError):
            oracle.distance_from_identity(("bogus", "label"))

    def test_codecless_group_answers_from_the_dict_fill(self):
        group = CyclicGroup(7)
        gens = GeneratorSet(group=group, generators=(1, 6), names=("+1", "-1"))
        oracle = DistanceOracle(group, gens)
        dist, via = reference.oracle_fill(group, gens)
        assert oracle._dist == dist and oracle._via == via
        for delta in group.elements():
            assert oracle.distance_from_identity(delta) == dist[delta]
            cursor = group.identity()
            for i in oracle.generator_word(delta):
                cursor = gens.apply(cursor, i)
            assert cursor == delta
        assert oracle.eccentricity_of_identity() == 3
        assert oracle.distance_distribution() == {0: 1, 1: 2, 2: 2, 3: 2}
        with pytest.raises(InvalidParameterError, match="needs a group codec"):
            DistanceOracle(group, gens, backend="implicit")
        with pytest.raises(InvalidParameterError, match="rank-addressable"):
            oracle.word_table()


class TestMemoization:
    def test_backend_memoized_per_instance(self):
        h = Hypercube(3)
        assert get_fastgraph(h) is get_fastgraph(h)

    def test_codecless_families_enumerate_once(self):
        from repro.fastgraph.codecs import EnumerationCodec

        mot = MeshOfTrees(2, 2)
        fast = get_fastgraph(mot)
        assert isinstance(fast.codec, EnumerationCodec)
        assert get_fastgraph(mot, backend="csr") is fast
        assert [fast.unrank(i) for i in range(mot.num_nodes)] == list(mot.nodes())

    def test_csr_built_once(self):
        h = Hypercube(3)
        fg = get_fastgraph(h)
        assert fg.csr is fg.csr


class CyclicGroup(Group):
    """``Z_k`` — a group with no registered element codec."""

    def __init__(self, k: int) -> None:
        self.k = k

    def identity(self) -> int:
        return 0

    def multiply(self, a: int, b: int) -> int:
        return (a + b) % self.k

    def inverse(self, a: int) -> int:
        return -a % self.k

    def order(self) -> int:
        return self.k

    def elements(self):
        return iter(range(self.k))

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.k


def _oracle_histogram(topology, backend):
    if isinstance(topology, MeshOfTrees):
        group = CyclicGroup(5)
        gens = GeneratorSet(group=group, generators=(1, 4), names=("+1", "-1"))
    else:
        group, gens = topology.group, topology.gens
    return DistanceOracle(group, gens, backend=backend).distance_distribution()


def _first(topology):
    return next(iter(topology.nodes()))


#: every public ``backend=`` entry point, as ``(topology, backend) -> value``
ENTRY_POINTS = {
    "bfs_distances": lambda t, b: t.bfs_distances(_first(t), backend=b),
    "eccentricity": lambda t, b: t.eccentricity(_first(t), backend=b),
    "connected_under_faults": lambda t, b: connected_under_faults(t, [], backend=b),
    "structure_fault_diameter": lambda t, b: structure_fault_diameter(
        t, star_structure(t, _first(t)), backend=b
    ),
    "exact_diameter": lambda t, b: exact_diameter(t, backend=b),
    "pair_distance_counts": lambda t, b: pair_distance_counts(t, backend=b),
    "DistanceOracle": _oracle_histogram,
}

class TestBackendResolution:
    """Backend names resolve in one place, with one message per cause."""

    @pytest.mark.parametrize("case", ["codec", "codecless", "python"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_every_entry_point(self, entry, case):
        topology = MeshOfTrees(2, 2) if case == "codecless" else HyperButterfly(1, 3)
        call = ENTRY_POINTS[entry]
        if case == "python":  # the label BFS is gone, and so is its name
            with pytest.raises(InvalidParameterError, match="unknown .*'python'"):
                call(topology, "python")
            return
        with pytest.raises(InvalidParameterError, match="unknown .*'bogus'"):
            call(topology, "bogus")
        expected = call(topology, "auto")
        pins = ["implicit"] if entry == "DistanceOracle" else ["csr", "implicit"]
        for pin in pins:
            if case == "codec":
                assert call(topology, pin) == expected
            elif entry == "DistanceOracle":
                with pytest.raises(InvalidParameterError, match="needs a group codec"):
                    call(topology, pin)
            elif pin == "csr":  # the enumeration codec's CSR
                assert call(topology, pin) == expected
            else:
                with pytest.raises(
                    InvalidParameterError,
                    match=r"MT\(2,2\): codec EnumerationCodec has no vectorized",
                ):
                    call(topology, pin)
