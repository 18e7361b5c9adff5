"""Traffic generator and leader-election tests."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError, SimulationError
from repro.fastgraph.codecs import codec_for
from repro.simulation.leader_election import (
    flood_max_election,
    tree_based_election,
)
from repro.simulation.workloads import build_workload, hotspot_pairs
from repro.topologies.hypercube import Hypercube
from tests.simulation._label_traffic import labels, workload_labels


def _permutation(topology, seed):
    return workload_labels(topology, "permutation", topology.num_nodes, seed=seed)


def _hotspot(topology, count, *, hotspot, hot_fraction, seed):
    hot = codec_for(topology).rank(hotspot)
    ranks = hotspot_pairs(
        topology.num_nodes, count, hotspot=hot, hot_fraction=hot_fraction, seed=seed
    )
    return labels(topology, ranks)


class TestTraffic:
    def test_uniform_pairs_distinct_endpoints(self, hb13):
        pairs = workload_labels(hb13, "uniform", 60, seed=1)
        assert len(pairs) == 60
        assert all(s != t for s, t in pairs)
        assert all(hb13.has_node(s) and hb13.has_node(t) for s, t in pairs)

    def test_uniform_deterministic(self, hb13):
        first = workload_labels(hb13, "uniform", 10, seed=5)
        assert first == workload_labels(hb13, "uniform", 10, seed=5)

    def test_uniform_rejects_negative(self, hb13):
        with pytest.raises(InvalidParameterError):
            build_workload(hb13, "uniform", count=-1)

    def test_permutation_is_derangement(self, hb13):
        pairs = _permutation(hb13, seed=2)
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        assert sorted(map(repr, sources)) == sorted(map(repr, targets))
        assert all(s != t for s, t in pairs)
        assert len(set(targets)) == hb13.num_nodes

    def test_hotspot_concentration(self, hb13):
        hot = hb13.identity_node()
        pairs = _hotspot(hb13, 200, hotspot=hot, hot_fraction=0.8, seed=3)
        hot_count = sum(1 for _, t in pairs if t == hot)
        assert hot_count > 100  # well above uniform expectation

    def test_hotspot_fraction_validation(self, hb13):
        with pytest.raises(InvalidParameterError):
            hotspot_pairs(hb13.num_nodes, 10, hot_fraction=1.5)


class TestLegacyEquality:
    """The rank workloads, unranked through the codec, draw exactly the
    label pairs that seeded draws over ``list(topology.nodes())`` give
    (same seed, same pairs)."""

    def test_uniform_matches_direct_label_draws(self, hb13):
        import random

        nodes = list(hb13.nodes())
        rng = random.Random(9)
        reference = [tuple(rng.sample(nodes, 2)) for _ in range(50)]
        assert workload_labels(hb13, "uniform", 50, seed=9) == reference

    def test_hotspot_matches_direct_label_draws(self, hb13):
        import random

        nodes = list(hb13.nodes())
        hot = nodes[3]
        rng = random.Random(2)
        reference = []
        for _ in range(50):
            source = rng.choice(nodes)
            if rng.random() < 0.4 and source != hot:
                reference.append((source, hot))
            else:
                target = rng.choice(nodes)
                while target == source:
                    target = rng.choice(nodes)
                reference.append((source, target))
        got = _hotspot(hb13, 50, hotspot=hot, hot_fraction=0.4, seed=2)
        assert got == reference

    def test_permutation_covers_all_nodes_in_order(self, hb13):
        # sources enumerate the node set in codec-rank order; targets are a
        # seeded derangement built in O(n), no rejection loop
        pairs = _permutation(hb13, seed=4)
        assert [s for s, _ in pairs] == list(hb13.nodes())
        assert pairs == _permutation(hb13, seed=4)
        assert pairs != _permutation(hb13, seed=5)


class TestFloodElection:
    @pytest.mark.parametrize("topology", [Hypercube(4)], ids=["H_4"])
    def test_elects_max_id(self, topology):
        result = flood_max_election(topology, seed=0)
        assert result.leader_id == topology.num_nodes - 1
        assert result.algorithm == "flood-max"

    def test_rounds_bounded_by_diameter_plus_one(self, hb13):
        result = flood_max_election(hb13, seed=1)
        assert result.rounds <= hb13.diameter_formula() + 1

    def test_explicit_ids(self, hb13):
        ids = {v: i for i, v in enumerate(hb13.nodes())}
        chosen = max(ids, key=ids.get)
        result = flood_max_election(hb13, ids=ids)
        assert result.leader == chosen

    def test_duplicate_ids_rejected(self, hb13):
        ids = {v: 0 for v in hb13.nodes()}
        with pytest.raises(SimulationError):
            flood_max_election(hb13, ids=ids)


class TestTreeElection:
    def test_agrees_with_flooding(self, hb13):
        flood = flood_max_election(hb13, seed=4)
        tree = tree_based_election(hb13, hb13.identity_node(), seed=4)
        assert flood.leader == tree.leader

    def test_message_optimality(self, hb13):
        tree = tree_based_election(hb13, hb13.identity_node(), seed=4)
        assert tree.messages == 3 * (hb13.num_nodes - 1)
        flood = flood_max_election(hb13, seed=4)
        assert tree.messages < flood.messages

    def test_rounds_relate_to_eccentricity(self, hb13):
        root = hb13.identity_node()
        tree = tree_based_election(hb13, root, seed=4)
        assert tree.rounds == 3 * hb13.eccentricity(root)
