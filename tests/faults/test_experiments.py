"""Fault-sweep experiment driver tests (E6)."""

from __future__ import annotations

import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import RoutingError
from repro.faults.campaigns import CampaignConfig, run_campaign
from repro.faults.experiments import fault_sweep


class TestFaultSweep:
    def test_guaranteed_region_is_perfect(self, hb13):
        """Below connectivity, everything must connect and route."""
        results = fault_sweep(
            hb13, [0, 2, hb13.m + 3], trials=3, pairs_per_trial=6, seed=5
        )
        for r in results:
            assert r.connected_fraction == 1.0  # reprolint: disable=HB301 -- trials/trials is exactly 1.0 below the guarantee
            assert r.disjoint_success_rate == 1.0  # reprolint: disable=HB301 -- same: exact trials/trials ratio
            assert r.total_pairs == 18

    def test_overhead_at_least_one(self, hb13):
        results = fault_sweep(hb13, [1, 3], trials=2, pairs_per_trial=5, seed=9)
        for r in results:
            assert r.mean_overhead >= 1.0

    def test_beyond_guarantee_still_mostly_connected(self, hb13):
        results = fault_sweep(hb13, [8], trials=3, pairs_per_trial=6, seed=7)
        (r,) = results
        assert 0.5 <= r.connected_fraction <= 1.0

    def test_result_shape(self, hb13):
        results = fault_sweep(hb13, [0, 1], trials=1, pairs_per_trial=2, seed=0)
        assert [r.faults for r in results] == [0, 1]
        assert all(r.trials == 1 and r.pairs_per_trial == 2 for r in results)

    def test_deterministic_given_seed(self, hb13):
        a = fault_sweep(hb13, [4], trials=2, pairs_per_trial=4, seed=3)
        b = fault_sweep(hb13, [4], trials=2, pairs_per_trial=4, seed=3)
        assert a[0].connected_pairs == b[0].connected_pairs
        assert a[0].disjoint_total_length == b[0].disjoint_total_length

    def test_bench_parameters_pinned(self, hb23):
        """Every field of the bench E6 sweep, captured before the sweep
        moved onto :class:`ResilientRouter`.

        One disjoint total moved when the Menger solver changed from
        networkx ``edmonds_karp`` to the rank-native one (7 faults:
        150 -> 149): both solvers return valid families, but equal-length
        tails tie-break differently, so the shortest fault-free member of
        one family differs."""
        results = fault_sweep(
            hb23, range(10), trials=4, pairs_per_trial=10, seed=17
        )
        assert [
            (
                r.faults,
                r.trials,
                r.pairs_per_trial,
                r.connected_pairs,
                r.total_pairs,
                r.disjoint_success,
                r.disjoint_total_length,
                r.adaptive_total_length,
            )
            for r in results
        ] == [
            (0, 4, 10, 40, 40, 40, 132, 132),
            (1, 4, 10, 40, 40, 40, 135, 134),
            (2, 4, 10, 40, 40, 40, 112, 112),
            (3, 4, 10, 40, 40, 40, 129, 128),
            (4, 4, 10, 40, 40, 40, 151, 148),
            (5, 4, 10, 40, 40, 40, 132, 132),
            (6, 4, 10, 40, 40, 40, 133, 130),
            (7, 4, 10, 40, 40, 40, 149, 140),
            (8, 4, 10, 40, 40, 40, 143, 141),
            (9, 4, 10, 40, 40, 40, 135, 133),
        ]


def test_broken_family_inside_guarantee_raises(monkeypatch):
    """A Theorem 5 family with no fault-free member under <= m+3 faults is
    a construction bug: the sweeps must raise, not count a lost pair.

    The stub family is a single walk through every node, so any fault at
    all lies on it.
    """
    import repro.core.resilient as resilient

    def one_path_family(hb, u, v):
        middle = [x for x in hb.nodes() if x not in (u, v)]
        return [[u, *middle, v]]

    monkeypatch.setattr(resilient, "disjoint_paths", one_path_family)
    hb = HyperButterfly(1, 3)
    with pytest.raises(RoutingError, match="internal error"):
        fault_sweep(hb, [1], trials=1, pairs_per_trial=1, seed=0)
    with pytest.raises(RoutingError, match="internal error"):
        run_campaign(CampaignConfig.quick(1, 3))
