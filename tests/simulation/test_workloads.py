"""Rank-based workload zoo: determinism, structure, and address views."""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._mersenne import mt_words
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError
from repro.fastgraph.codecs import codec_for
from repro.simulation import workloads
from repro.simulation.workloads import (
    WORKLOAD_FAMILIES,
    TrafficMatrix,
    address_view,
    bit_reversal_pairs,
    build_workload,
    bursty_arrivals,
    derangement_pairs,
    hotspot_pairs,
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
from tests.simulation import _reference_workloads as reference

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


UNIFORM_NODES = [2, 3, 4, 16, 17, 21, 22, 33, 96, 2**20, 2**20 + 1, 1_441_792]
UNIFORM_COUNTS = [0, 1, 2, 1000, 20000]
UNIFORM_SEEDS = [0, 1, -7, 12345, 2**40]


@functools.cache
def _reference_draws(num_nodes, seed):
    # a shorter count draws a prefix of the same stream
    return reference.uniform_pairs(num_nodes, max(UNIFORM_COUNTS), seed=seed)


def _assert_pairs_equal(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


class TestUniformStreamReplay:
    """``uniform_pairs`` replays ``random.Random.sample`` draw for draw."""

    @pytest.mark.parametrize("seed", [0, 1, -7, 2**40, 987654321])
    def test_transplanted_stream_equals_getrandbits(self, seed):
        bulk = random.Random(seed)
        words = mt_words(bulk, 10_000)
        rng = random.Random(seed)
        assert words.dtype == np.uint64
        assert words.tolist() == [rng.getrandbits(32) for _ in range(10_000)]
        assert bulk.getstate() == rng.getstate()

    @pytest.mark.parametrize("seed", UNIFORM_SEEDS)
    @pytest.mark.parametrize("count", UNIFORM_COUNTS)
    @pytest.mark.parametrize("num_nodes", UNIFORM_NODES)
    def test_matches_reference_loop(self, num_nodes, count, seed):
        want = tuple(a[:count] for a in _reference_draws(num_nodes, seed))
        _assert_pairs_equal(uniform_pairs(num_nodes, count, seed=seed), want)

    @given(
        st.integers(2, 2**22),
        st.integers(0, 300),
        st.integers(-(2**64), 2**64),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_property(self, num_nodes, count, seed):
        _assert_pairs_equal(
            uniform_pairs(num_nodes, count, seed=seed),
            reference.uniform_pairs(num_nodes, count, seed=seed),
        )

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    @pytest.mark.parametrize("num_nodes", [2, 3, 17, 22, 96, 1_441_792])
    def test_pairs_cut_by_block_ends_are_carried(self, monkeypatch, num_nodes, block):
        monkeypatch.setattr(workloads, "_BLOCK_WORDS", block)
        _assert_pairs_equal(
            uniform_pairs(num_nodes, 400, seed=11),
            reference.uniform_pairs(num_nodes, 400, seed=11),
        )

    def test_widest_one_word_draws(self):
        n = 2**32 - 1
        _assert_pairs_equal(
            uniform_pairs(n, 50, seed=4), reference.uniform_pairs(n, 50, seed=4)
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            uniform_pairs(1, 5)
        with pytest.raises(InvalidParameterError):
            uniform_pairs(10, -1)
        with pytest.raises(InvalidParameterError, match="2\\*\\*32"):
            uniform_pairs(2**32, 5)

    @pytest.mark.parametrize(
        "topology", [HyperButterfly(2, 3), HyperButterfly(3, 4)], ids=lambda t: t.name
    )
    @pytest.mark.parametrize("family", ["uniform", "bursty"])
    @pytest.mark.parametrize("per_tick", [None, 7])
    def test_build_workload_matches_reference(self, topology, family, per_tick):
        count = 3000
        got = build_workload(topology, family, count=count, seed=9, per_tick=per_tick)
        src, dst = reference.uniform_pairs(topology.num_nodes, count, seed=9)
        if per_tick is None:
            arrivals = np.zeros(count, dtype=np.int64)
        elif family == "bursty":
            arrivals = bursty_arrivals(count, per_tick=per_tick, seed=9)
        else:
            arrivals = paced_arrivals(count, per_tick=per_tick)
        assert np.array_equal(got.sources, src)
        assert np.array_equal(got.targets, dst)
        assert np.array_equal(got.inject_at, arrivals)


class TestGenerators:
    def test_uniform_distinct_and_deterministic(self):
        s1, t1 = uniform_pairs(96, 50, seed=3)
        s2, t2 = uniform_pairs(96, 50, seed=3)
        assert np.array_equal(s1, s2) and np.array_equal(t1, t2)
        assert not np.any(s1 == t1)

    def test_hotspot_and_incast_return_int64_arrays(self):
        for src, dst in (
            hotspot_pairs(40, 30, hotspot=3, seed=2),
            incast_pairs(40, 30, sinks=2, seed=2),
            hotspot_pairs(40, 0, seed=2),
            incast_pairs(40, 0, seed=2),
        ):
            assert src.dtype == dst.dtype == np.int64
            assert src.shape == dst.shape
            assert not np.any(src == dst)

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
