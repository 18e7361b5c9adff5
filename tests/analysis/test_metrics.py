"""Metrics tests: both diameter paths must agree; profiles must be exact."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.analysis.metrics import average_distance, degree_profile, exact_diameter
from repro.core.hyperbutterfly import HyperButterfly
from repro.fastgraph.backend import get_fastgraph
from repro.fastgraph.parallel import DEFAULT_BATCH
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh
from repro.topologies.mesh_of_trees import MeshOfTrees
from tests.fastgraph._reference_sweep import reference_sweep

#: ``(topology, jobs, backend)`` inputs of the all-sources sweep; these
#: ``jobs=2`` rows fit one chunk and take the in-process shortcut
SWEEPS = [
    (HyperDeBruijn(1, 4), 1, None),
    (HyperDeBruijn(1, 4), 1, "implicit"),
    (HyperDeBruijn(3, 5), 2, "csr"),
    (DeBruijn(8), 2, "implicit"),
    (HyperButterfly(1, 3), 1, "implicit"),
    (Mesh(4, 5), 1, "csr"),
    (MeshOfTrees(8, 8), 2, None),
]

#: ``jobs=2`` rows spanning at least two default chunks, so they really pool
POOLED_SWEEPS = [
    (HyperDeBruijn(4, 7), 2, "csr"),
    (DeBruijn(11), 2, "implicit"),
    (MeshOfTrees(32, 32), 2, None),
]


def sweep_id(case) -> str:
    topology, jobs, backend = case
    return f"{topology.name}-jobs{jobs}-{backend or 'auto'}"


class TestExactDiameter:
    @pytest.mark.parametrize(
        "topology",
        [Hypercube(4), CayleyButterfly(3), HyperDeBruijn(2, 3)],
        ids=["H_4", "B_3", "HD(2,3)"],
    )
    def test_agrees_with_networkx(self, topology):
        assert exact_diameter(topology) == nx.diameter(topology.to_networkx())

    def test_fast_path_equals_generic_path(self, hb13):
        assert exact_diameter(hb13) == exact_diameter(hb13, force_generic=True)

    def test_batched_bfs_on_irregular_graph(self):
        hd = HyperDeBruijn(1, 4)
        assert exact_diameter(hd, force_generic=True) == nx.diameter(hd.to_networkx())

    @pytest.mark.parametrize("case", SWEEPS + POOLED_SWEEPS, ids=sweep_id)
    def test_generic_sweep_matches_kernel_reference(self, case):
        topology, jobs, backend = case
        csr = get_fastgraph(topology).csr
        reference = int(reference_sweep(csr)[0].max())
        assert reference == exact_diameter(
            topology, force_generic=True, jobs=jobs, backend=backend
        )

    def test_pooled_rows_span_two_chunks(self):
        assert all(t.num_nodes > DEFAULT_BATCH for t, _, _ in POOLED_SWEEPS)

    def test_hb_diameter_formula(self, hb24):
        assert exact_diameter(hb24) == hb24.diameter_formula()


class TestAverageDistance:
    def test_exact_on_small(self):
        h = Hypercube(3)
        # mean Hamming distance between distinct words: m*2^(m-1)/(2^m -1)
        expected = 3 * 4 / 7
        assert average_distance(h) == pytest.approx(expected)

    def test_sampled_mode_close_to_exact(self):
        h = Hypercube(6)
        exact = average_distance(h)
        sampled = average_distance(h, exact_node_budget=1, samples=400, seed=1)
        assert abs(sampled - exact) < 0.35

    def test_deterministic_sampling(self, hb13):
        a = average_distance(hb13, exact_node_budget=1, samples=50, seed=2)
        b = average_distance(hb13, exact_node_budget=1, samples=50, seed=2)
        assert a == b


class TestDegreeProfile:
    def test_regular_profile(self, hb23):
        assert degree_profile(hb23) == {6: 96}

    def test_irregular_profile_hd(self):
        profile = degree_profile(HyperDeBruijn(2, 3))
        assert set(profile) == {4, 5, 6}
        assert sum(profile.values()) == 32
        # exactly the two loop words (000, 111) lose 2 degrees
        assert profile[4] == 2 * 2**2
