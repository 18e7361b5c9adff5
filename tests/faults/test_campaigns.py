"""Degradation-campaign tests: determinism and Corollary 1's shape."""

from __future__ import annotations

import json

import pytest

from repro.errors import InvalidParameterError
from repro.faults.campaigns import (
    CampaignConfig,
    StructureCampaignConfig,
    run_campaign,
    write_campaign_json,
)


@pytest.fixture(scope="module")
def quick_results():
    return run_campaign(CampaignConfig.quick(2, 3, seed=0))


class TestDeterminism:
    def test_bit_identical_json_across_runs(self, quick_results, tmp_path):
        """Same schedule seed + same campaign seed => identical JSON.

        This also pins the fastgraph blocked-BFS path: the static sweep
        routes through ``bfs_shortest_path(..., blocked=...)``, so any
        nondeterminism in the vectorised kernels would show up here.
        """
        again = run_campaign(CampaignConfig.quick(2, 3, seed=0))
        a = write_campaign_json(quick_results, tmp_path / "a.json")
        b = write_campaign_json(again, tmp_path / "b.json")
        assert a == b
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_different_seed_changes_output(self, quick_results):
        other = run_campaign(CampaignConfig.quick(2, 3, seed=99))
        assert json.dumps(other, sort_keys=True) != json.dumps(
            quick_results, sort_keys=True
        )


class TestShape:
    def test_networks_compared(self, quick_results):
        names = [nw["name"] for nw in quick_results["networks"]]
        assert names[0] == "HB(2,3)"
        assert any(n.startswith("HD(") for n in names)
        assert any(n.startswith("H_") for n in names)

    def test_full_delivery_within_guarantee(self, quick_results):
        """Corollary 1: delivery ratio 1.0 for every count <= m + 3."""
        hb = quick_results["networks"][0]
        guarantee = hb["guaranteed_tolerance"]
        assert guarantee == 2 + 3
        for row in hb["curve"]:
            if row["faults"] <= guarantee:
                assert row["delivery_ratio"] == 1.0  # reprolint: disable=HB301 -- delivered/attempted is exactly k/k below the guarantee
                assert row["disjoint_share"] == 1.0  # reprolint: disable=HB301 -- same: exact k/k ratio

    def test_delivery_never_increases_with_faults(self, quick_results):
        hb = quick_results["networks"][0]
        ratios = [row["delivery_ratio"] for row in hb["curve"]]
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:], strict=False))

    def test_breaking_point_beyond_guarantee(self, quick_results):
        hb = quick_results["networks"][0]
        bp = hb["breaking_point"]
        assert bp is None or bp > hb["guaranteed_tolerance"]

    def test_retry_recovers_at_least_no_retry(self, quick_results):
        """The reliable transport never delivers less than fire-and-forget."""
        for row in quick_results["transient"]["curve"]:
            assert row["retry_delivery"] >= row["no_retry_delivery"]

    def test_curve_rows_carry_metrics(self, quick_results):
        for nw in quick_results["networks"]:
            for row in nw["curve"]:
                assert set(row) == {
                    "faults",
                    "fault_fraction",
                    "delivery_ratio",
                    "mean_latency_hops",
                    "mean_stretch",
                    "disjoint_share",
                }


class TestConfigValidation:
    @pytest.mark.parametrize("config_cls", [CampaignConfig, StructureCampaignConfig])
    @pytest.mark.parametrize("field", ["trials", "pairs"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sample_counts_below_one_rejected(self, config_cls, field, value):
        with pytest.raises(InvalidParameterError, match=f"{field} must be >= 1"):
            config_cls(**{field: value})

    def test_quick_configs_accept_one(self):
        assert CampaignConfig(trials=1, pairs=1).trials == 1
        assert StructureCampaignConfig(trials=1, pairs=1).pairs == 1
