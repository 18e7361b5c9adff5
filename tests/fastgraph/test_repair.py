"""The repair kernel vs. the masked BFS: exact ``(eccentricity, reached)``.

On ``HB(m, n)`` :meth:`FastGraph.masked_source_stats` runs no BFS unless
``backend="csr"``: :class:`~repro.fastgraph.implicit.RepairKernel`
translates the identity's fault-free distances to the source and repairs
the nodes the faults move.  Every answer here is pinned to the implicit
BFS (:func:`implicit_source_stats`) and the CSR BFS, from random sources
and blocked sets up to half the graph, with cut-off and isolated sources,
labels that are not nodes, duplicates, and the structure probes of the
fault-diameter benchmark.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError
from repro.fastgraph.backend import get_fastgraph
from repro.fastgraph.implicit import RepairKernel, implicit_source_stats
from repro.fastgraph.kernels import bfs_levels
from repro.faults.structures import (
    build_structure,
    structure_fault_diameter,
    structure_kinds,
)
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from tests.topologies import _reference_bfs as reference_bfs

#: one instance per shape, so codecs, CSRs and kernels are built once
_HB = {(m, n): HyperButterfly(m, n) for m in range(4) for n in range(3, 6)}


def _bfs_stats(fast, source: int, forbidden: np.ndarray) -> tuple[int, int]:
    """``(eccentricity, reached)`` of the implicit and the CSR BFS, which
    must agree."""
    ecc, _, reached = implicit_source_stats(fast.codec, source, forbidden=forbidden)
    mask = np.zeros(fast.codec.num_nodes, dtype=bool)
    mask[forbidden] = True
    dist, _ = bfs_levels(fast.csr, source, forbidden=mask)
    assert (ecc, reached) == (int(dist.max()), int((dist >= 0).sum()))
    return ecc, reached


class TestAgreesWithBFS:
    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(sorted(_HB)),
        seed=st.integers(0, 2**32 - 1),
        fraction=st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.2, 0.35, 0.5]),
        isolate=st.booleans(),
    )
    def test_random_sources_and_blocked_sets(self, shape, seed, fraction, isolate):
        hb = _HB[shape]
        fast = get_fastgraph(hb)
        kernel = fast.repair_kernel
        assert kernel is not None
        n = fast.codec.num_nodes
        rng = random.Random(seed)
        source = rng.randrange(n)
        blocked = set(rng.sample(range(n), int(fraction * n)))
        if isolate:
            blocked.update(fast.codec.neighbors_block(np.array([source]))[0].tolist())
        blocked.discard(source)
        forbidden = np.array(sorted(blocked), dtype=np.int64)
        expected = _bfs_stats(fast, source, forbidden)
        assert kernel.source_stats(source, forbidden) == expected
        labels = [fast.unrank(int(r)) for r in forbidden]
        assert fast.masked_source_stats(fast.unrank(source), blocked=labels) == expected
        if isolate:
            assert expected == (0, 1)

    def test_every_source_of_a_cutting_placement(self):
        """Exhaustive over sources on HB(1,3) minus a set that cuts nodes off."""
        hb = _HB[1, 3]
        fast = get_fastgraph(hb)
        kernel = fast.repair_kernel
        n = fast.codec.num_nodes
        forbidden = np.array(sorted(random.Random(0).sample(range(n), n // 2)))
        cut = 0
        for source in sorted(set(range(n)) - set(forbidden.tolist())):
            expected = _bfs_stats(fast, source, forbidden)
            cut += expected[1] != n - len(forbidden)
            assert kernel.source_stats(source, forbidden) == expected
        assert cut  # some sources lose survivors, so the sweep's cut-off path ran

    def test_no_faults_is_the_fault_free_eccentricity(self):
        for hb in (_HB[0, 3], _HB[3, 5]):
            fast = get_fastgraph(hb)
            source = next(iter(hb.nodes()))
            expected = (hb.diameter_formula(), hb.num_nodes)
            assert fast.masked_source_stats(source) == expected
            assert fast.masked_source_stats(source, blocked=[]) == expected
            assert fast.repair_kernel.source_stats(5, np.zeros(0, np.int64)) == expected


class TestLabels:
    def test_labels_that_are_not_nodes_are_ignored(self):
        hb = _HB[2, 3]
        fast = get_fastgraph(hb)
        nodes = list(hb.nodes())
        blocked = nodes[10:20]
        junk = [(99, (0, 0)), (0, (7, 0)), "x"]
        expected = fast.masked_source_stats(nodes[0], blocked=blocked, backend="csr")
        assert fast.masked_source_stats(nodes[0], blocked=blocked + junk) == expected
        assert fast.masked_source_stats(nodes[0], blocked=junk) == (
            hb.diameter_formula(),
            hb.num_nodes,
        )

    def test_duplicate_labels_and_ranks(self):
        hb = _HB[2, 4]
        fast = get_fastgraph(hb)
        nodes = list(hb.nodes())
        blocked = nodes[3:40:3]
        expected = fast.masked_source_stats(nodes[1], blocked=blocked, backend="csr")
        assert fast.masked_source_stats(nodes[1], blocked=blocked * 3) == expected
        ranks = np.array([fast.rank(v) for v in blocked] * 2, dtype=np.int64)
        assert fast.repair_kernel.source_stats(1, ranks) == expected


class TestStructureProbes:
    """The fault-diameter benchmark's probe shape on HB(4,7): one size-1
    structure of every kind, first boundary survivor as the source."""

    @pytest.fixture(scope="class")
    def hb47(self):
        return HyperButterfly(4, 7)

    @pytest.mark.parametrize("kind", ["star", "path", "subcube", "ring"])
    def test_boundary_probes(self, hb47, kind):
        assert kind in structure_kinds(hb47)
        fast = get_fastgraph(hb47)
        rng = random.Random(kind)
        nodes = list(hb47.nodes())
        for center in rng.sample(nodes, 6):
            structure = build_structure(hb47, kind, center, size=1)
            blocked = structure.node_set
            source = sorted(set(structure.boundary()) - blocked)[0]
            expected = fast.masked_source_stats(source, blocked=blocked, backend="csr")
            for backend in (None, "auto", "implicit"):
                got = fast.masked_source_stats(source, blocked=blocked, backend=backend)
                assert got == expected
            assert structure_fault_diameter(
                hb47, structure, backend="implicit", source_sample=0, boundary_cap=3
            ) == structure_fault_diameter(
                hb47, structure, backend="csr", source_sample=0, boundary_cap=3
            )


class TestDispatch:
    def test_topologies_without_a_product_oracle_run_the_bfs(self):
        for topology in (HyperDeBruijn(2, 3), Hypercube(5), CayleyButterfly(3)):
            fast = get_fastgraph(topology)
            assert fast.repair_kernel is None
            nodes = list(topology.nodes())
            blocked = set(random.Random(3).sample(nodes[1:], len(nodes) // 4))
            dist = reference_bfs.bfs_distances(topology, nodes[0], blocked)
            expected = (max(dist.values()), len(dist))
            for backend in ("csr", "implicit", None):
                got = fast.masked_source_stats(nodes[0], blocked=blocked, backend=backend)
                assert got == expected

    def test_csr_backend_keeps_its_bfs(self, monkeypatch):
        hb = _HB[2, 3]
        fast = get_fastgraph(hb)
        nodes = list(hb.nodes())
        expected = fast.masked_source_stats(nodes[0], blocked=nodes[5:9])

        def refuse(self, source, forbidden=None):
            raise AssertionError("the repair kernel ran")

        monkeypatch.setattr(RepairKernel, "source_stats", refuse)
        assert fast.masked_source_stats(nodes[0], blocked=nodes[5:9], backend="csr") == (
            expected
        )
        for backend in (None, "auto", "implicit"):
            with pytest.raises(AssertionError, match="repair kernel ran"):
                fast.masked_source_stats(nodes[0], blocked=nodes[5:9], backend=backend)

    def test_unknown_backend_still_raises(self):
        hb = _HB[2, 3]
        fast = get_fastgraph(hb)
        source = next(iter(hb.nodes()))
        with pytest.raises(InvalidParameterError, match="quantum"):
            fast.masked_source_stats(source, backend="quantum")
        with pytest.raises(InvalidParameterError, match="quantum"):
            fast.reachable_count(source, blocked=[], backend="quantum")
