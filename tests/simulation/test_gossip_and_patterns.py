"""Gossip schedules and structured traffic pattern tests."""

from __future__ import annotations

import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError
from repro.fastgraph.codecs import codec_for
from repro.simulation.gossip import (
    all_port_gossip_rounds,
    gossip_lower_bound,
    single_port_gossip,
)
from repro.simulation.workloads import bit_reversal_pairs, translation_pairs
from tests.simulation._label_traffic import labels


def _bit_reversal_labels(hb):
    return labels(hb, bit_reversal_pairs(hb))


def _translation_labels(hb, delta=None):
    delta_rank = None if delta is None else codec_for(hb).rank(delta)
    return labels(hb, translation_pairs(hb, delta_rank=delta_rank))


class TestGossip:
    @pytest.mark.parametrize(("m", "n"), [(0, 3), (1, 3), (2, 3)])
    def test_schedule_completes(self, m, n):
        hb = HyperButterfly(m, n)
        rounds = single_port_gossip(hb, verify=True)  # verify raises on bugs
        assert rounds

    def test_round_count_within_small_factor_of_bound(self, hb23):
        rounds = single_port_gossip(hb23)
        assert len(rounds) <= 3 * gossip_lower_bound(hb23)

    def test_hypercube_phase_is_perfect_matching(self, hb23):
        rounds = single_port_gossip(hb23)
        for i in range(hb23.m):
            pairs = rounds[i]
            assert len(pairs) == hb23.num_nodes // 2
            touched = {v for pair in pairs for v in pair}
            assert len(touched) == hb23.num_nodes

    def test_all_port_rounds(self, hb23):
        assert all_port_gossip_rounds(hb23) == hb23.diameter_formula()

    def test_lower_bound(self, hb23):
        assert gossip_lower_bound(hb23) == 7  # ceil(log2 96)


class TestBitReversal:
    def test_is_a_partial_involution(self, hb23):
        pairs = dict(_bit_reversal_labels(hb23))
        for source, target in pairs.items():
            assert pairs[target] == source  # reversal is an involution

    def test_preserves_levels(self, hb23):
        for (h1, (x1, _)), (h2, (x2, _)) in _bit_reversal_labels(hb23):
            assert x1 == x2

    def test_no_fixed_points_emitted(self, hb23):
        assert all(s != t for s, t in _bit_reversal_labels(hb23))

    def test_targets_valid(self, hb24):
        for _, target in _bit_reversal_labels(hb24):
            assert hb24.has_node(target)


class TestTranslation:
    def test_default_delta_gives_permutation(self, hb23):
        pairs = _translation_labels(hb23)
        targets = [t for _, t in pairs]
        assert len(set(targets)) == hb23.num_nodes
        assert all(s != t for s, t in pairs)

    def test_uniform_distance(self, hb23):
        """Vertex transitivity: every sender is equally far from its target."""
        pairs = _translation_labels(hb23)
        distances = {hb23.distance(s, t) for s, t in pairs}
        assert len(distances) == 1

    def test_custom_delta(self, hb23):
        pairs = _translation_labels(hb23, delta=(1, (0, 0)))
        assert all(hb23.has_edge(s, t) for s, t in pairs)

    def test_identity_delta_rejected(self, hb23):
        with pytest.raises(InvalidParameterError):
            _translation_labels(hb23, delta=(0, (0, 0)))

    def test_translation_saturates_simulator_evenly(self, hb13):
        """Run the translation workload end-to-end: all deliver, and the
        per-packet hop counts are identical (perfect load symmetry)."""
        from repro.simulation.network import NetworkSimulator
        from repro.simulation.protocols import HBObliviousProtocol

        sim = NetworkSimulator(hb13, HBObliviousProtocol(hb13))
        sim.inject_all(_translation_labels(hb13))
        sim.run()
        stats = sim.stats()
        assert stats.delivered == hb13.num_nodes
        hops = {p.hops for p in sim.packets}
        assert len(hops) == 1
