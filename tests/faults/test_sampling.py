"""Seeded fault draws replay the Algorithm R loop draw for draw.

Every case compares the production samplers of :mod:`repro.faults.model`
with the per-item loops of :mod:`tests.faults._reference_sampling`: the
same picks in the same order, the same ``rng.getstate()`` afterwards, and
so the same next ``rng.random()``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError
from repro.faults import model
from repro.faults.model import (
    random_link_faults,
    random_node_faults,
    reservoir_indices,
    sample_nodes,
)
from repro.topologies import (
    CartesianProduct,
    CayleyButterfly,
    CompleteBinaryTree,
    Cycle,
    DeBruijn,
    Hypercube,
    HyperDeBruijn,
    Mesh,
    MeshOfTrees,
    Torus,
    WrappedButterfly,
)
from tests.faults import _reference_sampling as reference


def _rng_pair(seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


def _assert_same_stream(got: random.Random, want: random.Random) -> None:
    assert got.getstate() == want.getstate()
    assert got.random() == want.random()


def _assert_indices_match(count: int, eligible: int, seed: int) -> None:
    got_rng, want_rng = _rng_pair(seed)
    got = reservoir_indices(got_rng, count, eligible)
    assert got.tolist() == reference.reservoir_indices(want_rng, count, eligible)
    _assert_same_stream(got_rng, want_rng)


FAMILIES = {
    "hypercube": lambda: Hypercube(4),
    "wrapped-butterfly": lambda: WrappedButterfly(3),
    "cayley-butterfly": lambda: CayleyButterfly(3),
    "debruijn": lambda: DeBruijn(4),
    "hyper-debruijn": lambda: HyperDeBruijn(2, 3),
    "product": lambda: CartesianProduct(Cycle(3), Hypercube(2)),
    "cycle": lambda: Cycle(7),
    "torus": lambda: Torus(3, 4),
    "mesh": lambda: Mesh(3, 4),
    "tree": lambda: CompleteBinaryTree(3),
    "mesh-of-trees": lambda: MeshOfTrees(2, 4),  # no codec
    "hb": lambda: HyperButterfly(2, 3),
}


class TestReservoirIndices:
    @pytest.mark.parametrize("eligible", [1, 2, 3, 7, 8, 9, 33])
    def test_every_count(self, eligible):
        for count in range(eligible + 1):
            for seed in (0, 5):
                _assert_indices_match(count, eligible, seed)

    @pytest.mark.parametrize(
        ("count", "eligible"),
        [
            (0, 1024),  # seen runs 1 .. 1024: every width from 1 to 11
            (0, 1025),
            (3, 4),
            (511, 513),
            (1023, 1025),
            (1024, 1025),
            (5, 65_537),
            (65_534, 65_540),
            (9, 131_073),
        ],
    )
    def test_seen_crosses_a_power_of_two(self, count, eligible):
        _assert_indices_match(count, eligible, seed=count + eligible)

    def test_count_equal_to_eligible_draws_nothing(self):
        rng = random.Random(3)
        before = rng.getstate()
        assert reservoir_indices(rng, 6, 6).tolist() == list(range(6))
        assert rng.getstate() == before

    def test_gauss_state_survives(self):
        got_rng, want_rng = _rng_pair(8)
        got_rng.gauss(0.0, 1.0)
        want_rng.gauss(0.0, 1.0)
        got = reservoir_indices(got_rng, 4, 5_000)
        assert got.tolist() == reference.reservoir_indices(want_rng, 4, 5_000)
        assert got_rng.gauss(0.0, 1.0) == want_rng.gauss(0.0, 1.0)
        _assert_same_stream(got_rng, want_rng)

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    @pytest.mark.parametrize(("count", "eligible"), [(0, 300), (7, 3_000), (40, 70)])
    def test_block_ends_carry_words(self, monkeypatch, block, count, eligible):
        monkeypatch.setattr(model, "_BLOCK_WORDS", block)
        _assert_indices_match(count, eligible, seed=block)

    @given(
        st.integers(0, 20_000),
        st.integers(0, 60),
        st.integers(-(2**64), 2**64),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_property(self, eligible, count, seed):
        _assert_indices_match(min(count, eligible), eligible, seed)

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(InvalidParameterError):
            reservoir_indices(rng, 3, 2)
        with pytest.raises(InvalidParameterError):
            reservoir_indices(rng, -1, 2)
        with pytest.raises(InvalidParameterError):
            reservoir_indices(rng, 1, 2**32)


class TestReplayableRng:
    def test_overridden_draw_rules_are_refused(self):
        class OwnRandom(random.Random):
            def random(self):
                return 0.5

        class OwnBits(random.Random):  # as random.SystemRandom does
            def getrandbits(self, k):
                return 0

        for rng in (OwnRandom(1), OwnBits(1)):
            with pytest.raises(InvalidParameterError, match=type(rng).__name__):
                sample_nodes(Hypercube(3), 2, rng=rng)
            with pytest.raises(InvalidParameterError, match=type(rng).__name__):
                random_link_faults(Hypercube(3), 2, rng=rng)

    def test_plain_subclass_is_replayed(self):
        class Tagged(random.Random):
            pass

        got_rng, want_rng = Tagged(4), random.Random(4)
        h = Hypercube(5)
        assert sample_nodes(h, 3, rng=got_rng) == reference.sample_nodes(h, 3, rng=want_rng)
        _assert_same_stream(got_rng, want_rng)


class TestSampleNodes:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_reference_on_every_family(self, family):
        topology = FAMILIES[family]()
        nodes = list(topology.nodes())
        for seed in (0, 1):
            exclude = nodes[1::7] if seed else []
            available = len(nodes) - len(exclude)
            for count in (0, 1, 5, available // 2, available - 1, available):
                got_rng, want_rng = _rng_pair(seed * 100 + count)
                got = sample_nodes(topology, count, rng=got_rng, exclude=exclude)
                want = reference.sample_nodes(
                    topology, count, rng=want_rng, exclude=exclude
                )
                assert got == want
                _assert_same_stream(got_rng, want_rng)

    @pytest.mark.parametrize("family", ["hb", "mesh-of-trees", "hypercube"])
    def test_every_count(self, family):
        topology = FAMILIES[family]()
        exclude = [next(iter(topology.nodes()))]
        for count in range(topology.num_nodes):
            got_rng, want_rng = _rng_pair(count)
            got = sample_nodes(topology, count, rng=got_rng, exclude=exclude)
            want = reference.sample_nodes(topology, count, rng=want_rng, exclude=exclude)
            assert got == want
            _assert_same_stream(got_rng, want_rng)

    def test_count_equal_to_available(self):
        hb = HyperButterfly(1, 3)
        nodes = list(hb.nodes())
        rng = random.Random(2)
        before = rng.getstate()
        picked = sample_nodes(hb, len(nodes) - 3, rng=rng, exclude=nodes[:3])
        assert picked == nodes[3:]
        assert rng.getstate() == before

    def test_excluded_non_nodes_are_not_counted(self):
        h = Hypercube(2)
        picked = sample_nodes(h, 4, rng=random.Random(0), exclude=["bogus", 99, (1, 2)])
        assert sorted(picked) == [0, 1, 2, 3]
        fs = random_node_faults(h, 3, rng=random.Random(0), exclude=[0, 17])
        assert 0 not in fs and len(fs) == 3
        with pytest.raises(InvalidParameterError, match="among 3 eligible"):
            sample_nodes(h, 4, rng=random.Random(0), exclude=[0, 17])

    @pytest.mark.parametrize("family", ["hb", "mesh-of-trees"])
    def test_exclusions_with_non_node_labels_match_reference(self, family):
        topology = FAMILIES[family]()
        nodes = list(topology.nodes())
        exclude = [nodes[0], "bogus", nodes[-1], (7, 7, 7), nodes[len(nodes) // 2]]
        for count in (0, 2, len(nodes) - 3):
            got_rng, want_rng = _rng_pair(count)
            got = sample_nodes(topology, count, rng=got_rng, exclude=exclude)
            want = reference.sample_nodes(topology, count, rng=want_rng, exclude=exclude)
            assert got == want
            _assert_same_stream(got_rng, want_rng)

    def test_hb_6_11(self):
        hb = HyperButterfly(6, 11)
        got_rng, want_rng = _rng_pair(1)
        exclude = [next(iter(hb.nodes()))]
        got = sample_nodes(hb, hb.m + 3, rng=got_rng, exclude=exclude)
        want = reference.sample_nodes(hb, hb.m + 3, rng=want_rng, exclude=exclude)
        assert got == want
        _assert_same_stream(got_rng, want_rng)


class TestRandomLinkFaults:
    @pytest.mark.parametrize("family", ["hb", "mesh-of-trees", "torus", "tree"])
    @pytest.mark.parametrize("excluding", [False, True])
    def test_matches_reference(self, family, excluding):
        topology = FAMILIES[family]()
        edges = list(topology.edges())
        exclude = []
        if excluding:
            u, v = edges[3]
            exclude = [edges[0], (v, u), edges[-1], ("bogus", "label")]
        eligible = len(edges) - (3 if excluding else 0)
        for count in sorted({0, 1, min(4, eligible), eligible // 3, eligible}):
            got_rng, want_rng = _rng_pair(count)
            got = random_link_faults(topology, count, rng=got_rng, exclude=exclude)
            want = reference.random_link_faults(
                topology, count, rng=want_rng, exclude=exclude
            )
            assert got.links == want.links
            _assert_same_stream(got_rng, want_rng)

    def test_too_many_raises_like_the_loop(self):
        h = Hypercube(3)
        exclude = [(0, 1), (1, 0), (0, 3)]  # (0, 3) is not an edge
        for impl in (random_link_faults, reference.random_link_faults):
            rng = random.Random(0)
            before = rng.getstate()
            with pytest.raises(InvalidParameterError, match="among 11 eligible links"):
                impl(h, 12, rng=rng, exclude=exclude)
            assert rng.getstate() == before
