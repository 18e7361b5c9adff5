"""Rank-based workload zoo: determinism, structure, and address views."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError
from repro.fastgraph.codecs import codec_for
from repro.simulation.workloads import (
    WORKLOAD_FAMILIES,
    TrafficMatrix,
    address_view,
    bit_reversal_pairs,
    build_workload,
    bursty_arrivals,
    derangement_pairs,
    incast_pairs,
    paced_arrivals,
    tornado_pairs,
    translation_pairs,
    transpose_pairs,
    uniform_pairs,
)
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Torus

TOPOLOGIES = [
    HyperButterfly(2, 3),
    HyperDeBruijn(2, 3),
    Hypercube(4),
    CayleyButterfly(3),
]


class TestTrafficMatrix:
    def test_from_ranks_and_lengths(self):
        tm = TrafficMatrix.from_ranks([0, 1], [2, 3], inject_at=[0, 4])
        assert tm.num_flows == 2
        assert tm.inject_at.tolist() == [0, 4]

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            TrafficMatrix.from_ranks([0, 1], [2])
        with pytest.raises(InvalidParameterError):
            TrafficMatrix.from_ranks([0], [2], inject_at=[1, 2])

    def test_pairs_roundtrip_through_codec(self):
        hb = HyperButterfly(2, 3)
        codec = codec_for(hb)
        tm = TrafficMatrix.from_ranks([0, 5, 9], [3, 2, 7])
        pairs = tm.pairs(codec)
        assert [codec.rank(s) for s, _ in pairs] == tm.sources.tolist()
        assert [codec.rank(t) for _, t in pairs] == tm.targets.tolist()

    def test_with_arrivals_replaces_schedule(self):
        tm = TrafficMatrix.from_ranks([0, 1], [2, 3])
        paced = tm.with_arrivals(np.array([2, 2]))
        assert paced.inject_at.tolist() == [2, 2]
        assert tm.inject_at.tolist() == [0, 0]  # original untouched


class TestAddressViews:
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
    def test_split_join_roundtrips_every_rank(self, topology):
        view = address_view(topology)
        assert view is not None
        codec = codec_for(topology)
        ranks = np.arange(codec.num_nodes, dtype=np.int64)
        addr, aux = view.split(ranks)
        assert int(addr.max()) < (1 << view.bits)
        assert np.array_equal(view.join(addr, aux), ranks)

    def test_hb_address_width_is_m_plus_n(self):
        hb = HyperButterfly(2, 3)
        assert address_view(hb).bits == hb.m + hb.n

    def test_no_view_for_non_power_of_two(self):
        assert address_view(Torus(3, 4)) is None


class TestGenerators:
    def test_uniform_distinct_and_deterministic(self):
        s1, t1 = uniform_pairs(96, 50, seed=3)
        s2, t2 = uniform_pairs(96, 50, seed=3)
        assert np.array_equal(s1, s2) and np.array_equal(t1, t2)
        assert not np.any(s1 == t1)
        with pytest.raises(InvalidParameterError):
            uniform_pairs(1, 5)
        with pytest.raises(InvalidParameterError):
            uniform_pairs(10, -1)

    @given(st.integers(2, 400), st.integers(0, 2**31))
    @settings(max_examples=120, deadline=None)
    def test_derangement_is_a_fixed_point_free_bijection(self, n, seed):
        src, dst = derangement_pairs(n, seed=seed)
        assert src.tolist() == list(range(n))
        assert sorted(dst.tolist()) == list(range(n))
        assert not np.any(src == dst)

    def test_derangement_deterministic_and_seed_sensitive(self):
        a = derangement_pairs(64, seed=1)[1]
        assert np.array_equal(a, derangement_pairs(64, seed=1)[1])
        assert not np.array_equal(a, derangement_pairs(64, seed=2)[1])

    def test_incast_targets_cycle_over_sinks(self):
        src, dst = incast_pairs(50, 40, sinks=4, seed=0)
        sinks = sorted(set(dst.tolist()))
        assert len(sinks) == 4
        assert not np.any(src == dst)
        # round-robin: consecutive flows hit distinct sinks
        assert len(set(dst[:4].tolist())) == 4
        with pytest.raises(InvalidParameterError):
            incast_pairs(10, 5, sinks=10)

    def test_tornado_is_half_rotation(self):
        src, dst = tornado_pairs(10)
        assert np.array_equal(dst, (src + 5) % 10)

    @pytest.mark.parametrize(
        "topology",
        [HyperButterfly(2, 3), HyperDeBruijn(2, 3), Hypercube(4)],
        ids=lambda t: t.name,
    )
    def test_bit_reversal_is_an_involution_on_moved_ranks(self, topology):
        src, dst = bit_reversal_pairs(topology)
        assert not np.any(src == dst)
        # applying the permutation twice returns to the source
        forward = dict(zip(src.tolist(), dst.tolist()))
        assert all(forward.get(t, t) == s for s, t in forward.items())

    def test_transpose_moves_and_preserves_level(self):
        hb = HyperButterfly(2, 3)
        codec = codec_for(hb)
        src, dst = transpose_pairs(hb)
        assert not np.any(src == dst)
        for s, t in zip(src[:16].tolist(), dst[:16].tolist()):
            (_, (xs, _)), (_, (xt, _)) = codec.unrank(s), codec.unrank(t)
            assert xs == xt  # butterfly level is auxiliary, never permuted

    def test_translation_matches_group_multiplication(self):
        hb = HyperButterfly(2, 3)
        codec = codec_for(hb)
        src, dst = translation_pairs(hb)
        delta = codec.unrank(codec.rank(((1 << hb.m) - 1, (hb.n // 2, 0))))
        for s, t in zip(src[:20].tolist(), dst[:20].tolist()):
            assert codec.unrank(t) == hb.group.multiply(codec.unrank(s), delta)
        with pytest.raises(InvalidParameterError):
            translation_pairs(hb, delta_rank=0)
        with pytest.raises(InvalidParameterError):
            translation_pairs(Hypercube(4))  # no default delta off HB


class TestArrivals:
    def test_paced_rate(self):
        at = paced_arrivals(10, per_tick=3)
        assert at.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]

    def test_bursty_is_on_off_and_respects_rate(self):
        at = bursty_arrivals(200, per_tick=5, on_mean=3.0, off_mean=4.0, seed=7)
        assert at[0] == 0  # starts inside a burst
        assert np.all(np.diff(at) >= 0)  # nondecreasing
        ticks, counts = np.unique(at, return_counts=True)
        assert counts.max() <= 5
        # off periods leave holes in the tick sequence
        assert len(ticks) < int(ticks[-1]) + 1
        assert np.array_equal(
            at, bursty_arrivals(200, per_tick=5, on_mean=3.0, off_mean=4.0, seed=7)
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            paced_arrivals(5, per_tick=0)
        with pytest.raises(InvalidParameterError):
            bursty_arrivals(5, per_tick=1, on_mean=0.5)


class TestBuildWorkload:
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("family", sorted(WORKLOAD_FAMILIES))
    def test_every_family_on_every_topology(self, topology, family):
        tm = build_workload(topology, family, count=48, seed=5, per_tick=12)
        codec = codec_for(topology)
        assert tm.num_flows == 48
        assert int(tm.sources.min()) >= 0
        assert int(tm.targets.max()) < codec.num_nodes
        assert not np.any(tm.sources == tm.targets)
        assert int(tm.inject_at.max()) >= 3  # pacing actually applied

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_workload(HyperButterfly(2, 3), "nope", count=4)

    def test_deterministic_per_seed(self):
        hb = HyperButterfly(2, 3)
        a = build_workload(hb, "permutation", count=200, seed=3)
        b = build_workload(hb, "permutation", count=200, seed=3)
        c = build_workload(hb, "permutation", count=200, seed=4)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.targets, c.targets)

    def test_permutation_waves_use_distinct_derangements(self):
        hb = HyperButterfly(2, 3)
        n = hb.num_nodes
        tm = build_workload(hb, "permutation", count=2 * n, seed=3)
        assert not np.array_equal(tm.targets[:n], tm.targets[n : 2 * n])
