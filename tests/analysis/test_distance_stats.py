"""Distance-profile tests (E11)."""

from __future__ import annotations

import pytest

from repro.analysis.distance_stats import (
    distance_profile,
    pair_distance_counts,
    profile_table,
)
from repro.core.hyperbutterfly import HyperButterfly
from repro.fastgraph.backend import get_fastgraph
from repro.fastgraph.parallel import DEFAULT_BATCH
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh
from repro.topologies.mesh_of_trees import MeshOfTrees
from tests.fastgraph._reference_sweep import reference_sweep

#: ``(topology, jobs, backend)`` inputs of the all-sources sweep; these
#: ``jobs=2`` rows fit one chunk and take the in-process shortcut
SWEEPS = [
    (HyperDeBruijn(1, 3), 1, None),
    (HyperDeBruijn(2, 6), 2, "implicit"),
    (HyperButterfly(2, 4), 2, "csr"),
    (DeBruijn(4), 1, "implicit"),
    (Mesh(3, 4), 1, "csr"),
    (MeshOfTrees(8, 8), 1, None),
]

#: ``jobs=2`` rows spanning at least two default chunks, so they really pool
POOLED_SWEEPS = [
    (HyperDeBruijn(4, 7), 2, "implicit"),
    (HyperButterfly(3, 5), 2, "csr"),
]


def sweep_id(case) -> str:
    topology, jobs, backend = case
    return f"{topology.name}-jobs{jobs}-{backend or 'auto'}"


class TestProfiles:
    def test_hypercube_profile_is_binomial(self):
        p = distance_profile(Hypercube(4))
        # fraction at distance d is C(4, d) / 16
        assert p.histogram[0] == pytest.approx(1 / 16)
        assert p.histogram[2] == pytest.approx(6 / 16)
        assert p.mean == pytest.approx(2.0)
        assert p.diameter == 4

    def test_transitive_and_generic_paths_agree(self, hb13):
        from repro.analysis.distance_stats import (
            _generic_profile,
            _transitive_profile,
        )

        assert _transitive_profile(hb13) == _generic_profile(hb13)

    @pytest.mark.parametrize("case", SWEEPS + POOLED_SWEEPS, ids=sweep_id)
    def test_generic_sweep_matches_kernel_reference(self, case):
        topology, jobs, backend = case
        csr = get_fastgraph(topology).csr
        assert reference_sweep(csr)[1] == pair_distance_counts(
            topology, force_generic=True, jobs=jobs, backend=backend
        )

    def test_pooled_rows_span_two_chunks(self):
        assert all(t.num_nodes > DEFAULT_BATCH for t, _, _ in POOLED_SWEEPS)

    def test_histogram_sums_to_one(self, hb23):
        p = distance_profile(hb23)
        assert sum(p.histogram.values()) == pytest.approx(1.0)

    def test_diameter_matches_formula(self, hb23):
        assert distance_profile(hb23).diameter == hb23.diameter_formula()

    def test_percentiles_monotone(self, hb23):
        p = distance_profile(hb23)
        assert p.percentile(0.1) <= p.percentile(0.5) <= p.percentile(0.95)
        assert p.percentile(1.0) == p.diameter

    def test_hd_profile(self):
        hd = HyperDeBruijn(1, 3)
        p = distance_profile(hd)
        assert p.diameter == 4
        assert 0 < p.mean < 4

    def test_hb_vs_hd_mean_ordering_at_matched_budget(self):
        """At a matched 256-node budget HD's mean distance is (slightly)
        smaller — the diameter trade-off of Figure 1 extends to the
        average.  (At tiny sizes the ordering can flip: HB(1,3) actually
        beats HD(2,4); the claim is about matched budgets.)"""
        hb = distance_profile(HyperButterfly(2, 4))  # 256 nodes
        hd = distance_profile(HyperDeBruijn(3, 5))  # 256 nodes
        assert hd.mean < hb.mean


class TestTable:
    def test_table_renders_all_rows(self, hb13):
        text = profile_table([distance_profile(hb13)])
        assert "HB(1,3)" in text
        assert "mean-dist" in text
