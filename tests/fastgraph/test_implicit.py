"""Implicit (CSR-free) kernels vs. the CSR kernels: bit-identical results.

The implicit backend's admission bar is exactness — on a grid of small
instances of every implicit-capable family, distances, parents, reaching
generators, eccentricities, depth histograms, and sweep reductions must
equal the CSR kernels *bit for bit*, including under fault masks, target
early exit, and sub-frontier gather slices (which exercise the slice-merge
path the big instances rely on).
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidLabelError, InvalidParameterError, ReproError
from repro.fastgraph import kernels
from repro.fastgraph.backend import FastGraph, get_fastgraph, implicit_threshold
from repro.fastgraph.codecs import ButterflyElementCodec, NodeCodec, codec_for
from repro.fastgraph.implicit import (
    HAVE_NUMBA,
    Bitset,
    _level,
    _seed_bitset,
    default_slice_nodes,
    implicit_bfs_levels,
    implicit_source_stats,
    numba_enabled,
)
from repro.fastgraph.kernels import bfs_levels, sweep_chunk
from repro.topologies.butterfly import WrappedButterfly
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.cycle import Cycle
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh, Torus
from repro.topologies.tree import CompleteBinaryTree
from tests.fastgraph._reference_sweep import _reference_sweep_chunk
from tests.topologies import _reference_bfs as reference_bfs

#: every implicit-capable family, small enough for exhaustive comparison
GRID = [
    Hypercube(1),
    Hypercube(4),
    WrappedButterfly(3),
    WrappedButterfly(4),
    CayleyButterfly(4),
    HyperButterfly(0, 3),
    HyperButterfly(2, 3),
    HyperButterfly(1, 4),
    DeBruijn(4),
    HyperDeBruijn(2, 3),
    Cycle(9),
    Torus(3, 4),
]

#: gather slice far below every GRID frontier — forces the multi-slice path
TINY_SLICE = 7


def _fast(topology) -> FastGraph:
    fast = get_fastgraph(topology)
    assert fast is not None and fast.supports_implicit()
    return fast


def _sample_ranks(n, k, seed=0):
    rng = random.Random(seed)
    return rng.sample(range(n), min(k, n))


class TestBitset:
    def test_set_and_test_across_word_boundaries(self):
        bits = Bitset(130)
        idx = np.array([0, 62, 63, 64, 65, 127, 128, 129], dtype=np.int64)
        bits.set_bits(idx)
        assert bits.test(idx).all()
        others = np.array([1, 61, 66, 126], dtype=np.int64)
        assert not bits.test(others).any()
        assert bits.count() == len(idx)

    def test_duplicate_sets_count_once(self):
        bits = Bitset(70)
        bits.set_bits(np.array([5, 5, 5, 64, 64], dtype=np.int64))
        assert bits.count() == 2

    def test_empty(self):
        bits = Bitset(0)
        assert bits.count() == 0

    def test_negative_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            Bitset(-1)

    def test_new_since_reads_fresh_bits_ascending(self):
        bits = Bitset(130)
        bits.set_bits(np.array([5, 65], dtype=np.int64))
        snapshot = bits.words.copy()
        # word 0 edges (0, 63), word 1's first bit (64), the last bit of a
        # size that is no multiple of 64 (129); 5 and 65 are already set
        bits.set_bits(np.array([129, 63, 64, 0, 5, 65, 63], dtype=np.int64))
        fresh = bits.new_since(snapshot)
        assert fresh.dtype == np.int64
        assert fresh.tolist() == [0, 63, 64, 129]

    def test_new_since_empty_diff(self):
        bits = Bitset(130)
        bits.set_bits(np.array([1, 100], dtype=np.int64))
        snapshot = bits.words.copy()
        bits.set_bits(np.array([100], dtype=np.int64))
        assert bits.new_since(snapshot).size == 0
        assert Bitset(0).new_since(np.zeros(0, dtype=np.uint64)).size == 0

    def test_new_since_random_sets_ascending(self):
        rng = np.random.default_rng(11)
        bits = Bitset(1000)
        before = rng.integers(0, 1000, size=200)
        bits.set_bits(before)
        snapshot = bits.words.copy()
        after = rng.integers(0, 1000, size=300)
        bits.set_bits(after)
        expected = np.setdiff1d(after, before)  # sorted, unique
        assert np.array_equal(bits.new_since(snapshot), expected)


class TestLevelCap:
    """A visited set that records nothing must raise, not loop forever."""

    @staticmethod
    def _guarded(result, limit=10_000):
        """A patched method returning ``result(self, arg)``; it fails the
        test instead of hanging once called ``limit`` times."""
        calls = itertools.count()

        def method(self, arg):
            assert next(calls) < limit, "BFS kept expanding levels"
            return result(self, arg)

        return method

    def test_bfs_levels_raise_when_nothing_is_visited(self, monkeypatch):
        never = self._guarded(lambda self, idx: np.zeros(len(idx), dtype=bool))
        monkeypatch.setattr(Bitset, "test", never)
        codec = get_fastgraph(HyperButterfly(2, 3)).codec
        start = time.perf_counter()
        with pytest.raises(ReproError, match="not recording visits"):
            implicit_bfs_levels(codec, 0, want_via=True)
        assert time.perf_counter() - start < 0.5

    def test_source_stats_raise_when_nothing_is_visited(self, monkeypatch):
        everything = self._guarded(lambda self, snapshot: np.arange(self.num_bits))
        monkeypatch.setattr(Bitset, "new_since", everything)
        codec = get_fastgraph(HyperButterfly(2, 3)).codec
        with pytest.raises(ReproError, match="not recording visits"):
            implicit_source_stats(codec, 0)

    def test_deepest_graph_still_completes(self):
        # a path's end-to-end BFS has num_nodes - 1 non-empty levels
        ranks = np.arange(6)
        table = np.stack([ranks - 1, np.where(ranks < 5, ranks + 1, -1)], axis=1)
        codec = _TableCodec(table)
        dist, _, _ = implicit_bfs_levels(codec, 0, want_via=True)
        assert dist.tolist() == [0, 1, 2, 3, 4, 5]
        assert implicit_source_stats(codec, 0)[0] == 5


def _reference_level(codec, frontier, bitset, *, slice_nodes):
    """The scatter-OR level: ``set_bits`` per slice, then ``new_since``."""
    snapshot = bitset.words.copy()
    for lo in range(0, len(frontier), slice_nodes):
        flat = codec.neighbors_block(frontier[lo : lo + slice_nodes]).ravel()
        bitset.set_bits(flat[flat >= 0])
    return bitset.new_since(snapshot)


class _TableCodec(NodeCodec):
    """Implicit adjacency read off a fixed table (``-1`` = padding)."""

    def __init__(self, table: np.ndarray) -> None:
        self.num_nodes = table.shape[0]
        self.table = table

    def supports_implicit(self) -> bool:
        return True

    def neighbors_block(self, idx: np.ndarray) -> np.ndarray:
        return self.table[idx]


def _duplicate_heavy_codec(num_nodes: int, seed: int) -> _TableCodec:
    """Width-6 rows over a few hot ranks (repeats within and across rows),
    with padding and both ends of the rank range mixed in."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, num_nodes, size=max(2, num_nodes // 8))
    table = rng.choice(hot, size=(num_nodes, 6))
    table[:, 0] = (np.arange(num_nodes) + 1) % num_nodes  # connects every rank
    table[rng.random((num_nodes, 6)) < 0.15] = -1
    table[0, 1:3] = [num_nodes - 1, 0]
    return _TableCodec(table.astype(np.int64))


class TestByteMarkedLevel:
    """``_level`` (byte scratch + one packbits fold) against the
    scatter-OR reference, level by level, with identical bitset words."""

    @staticmethod
    def _walk_both(codec, source, forbidden, slice_nodes):
        fast = _seed_bitset(codec, source, forbidden)
        ref = _seed_bitset(codec, source, forbidden)
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            got = _level(codec, frontier, fast, slice_nodes=slice_nodes)
            want = _reference_level(codec, frontier, ref, slice_nodes=slice_nodes)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert np.array_equal(fast.words, ref.words)
            frontier = got

    @pytest.mark.parametrize("num_nodes", [1, 2, 63, 64, 65, 127, 130, 1000])
    @pytest.mark.parametrize("slice_nodes", [1, TINY_SLICE, 1 << 20])
    def test_duplicate_heavy_tables(self, num_nodes, slice_nodes):
        codec = _duplicate_heavy_codec(num_nodes, seed=num_nodes)
        self._walk_both(codec, 0, None, slice_nodes)

    @pytest.mark.parametrize("num_nodes", [65, 130, 1000])
    def test_forbidden_bits_share_words_with_candidates(self, num_nodes):
        codec = _duplicate_heavy_codec(num_nodes, seed=7)
        # every other rank of the first and last words: each forbidden bit
        # sits next to a candidate bit in the same uint64 word
        last = num_nodes - 1
        forbidden = np.array(
            sorted({*range(1, 64, 2), *range(last - 1, max(last - 64, 0), -2)}),
            dtype=np.int64,
        )
        for slice_nodes in (1, TINY_SLICE, 1 << 20):
            self._walk_both(codec, 0, forbidden, slice_nodes)
        bits = _seed_bitset(codec, 0, forbidden)
        frontier = _level(codec, np.arange(num_nodes), bits, slice_nodes=TINY_SLICE)
        assert frontier.size and not np.isin(frontier, forbidden).any()

    @pytest.mark.parametrize("topology", GRID, ids=lambda t: t.name)
    def test_grid_multi_slice_levels(self, topology):
        fast = _fast(topology)
        n = fast.codec.num_nodes
        rng = np.random.default_rng(n)
        forbidden = rng.choice(n, size=n // 5, replace=False)
        source = int(np.setdiff1d(np.arange(n), forbidden)[0])
        for mask in (None, forbidden[forbidden != source]):
            for slice_nodes in (TINY_SLICE, 1 << 20):
                self._walk_both(fast.codec, source, mask, slice_nodes)


class TestRowPadding:
    """``pads_rows = False`` promises rows without ``-1``, so the BFS
    levels skip the padding check; padded codecs must still be stripped."""

    @pytest.mark.parametrize(
        "topology",
        [
            HyperButterfly(2, 3),
            HyperButterfly(4, 7),
            Hypercube(6),
            CayleyButterfly(5),
            WrappedButterfly(5),
            Cycle(9),
            Torus(3, 4),
        ],
        ids=lambda t: t.name,
    )
    def test_non_padding_rows_hold_no_negative_entry(self, topology):
        codec = codec_for(topology)
        assert codec.pads_rows is False
        block = codec.neighbors_block(np.arange(codec.num_nodes, dtype=np.int64))
        assert block.shape[1] and int(block.min()) >= 0

    @pytest.mark.parametrize(
        "topology",
        [DeBruijn(4), DeBruijn(7), HyperDeBruijn(2, 3), HyperDeBruijn(3, 5)],
        ids=lambda t: t.name,
    )
    def test_padded_rows_are_still_stripped(self, topology):
        fast = _fast(topology)
        codec = fast.codec
        assert codec.pads_rows is True
        block = codec.neighbors_block(np.arange(codec.num_nodes, dtype=np.int64))
        assert (block < 0).any()
        ref_dist, ref_parents = bfs_levels(fast.csr, 0, want_parents=True)
        for slice_nodes in (TINY_SLICE, default_slice_nodes()):
            dist, _, _ = implicit_bfs_levels(codec, 0, slice_nodes=slice_nodes)
            assert np.array_equal(dist, ref_dist)
            dist, parents, via = implicit_bfs_levels(
                codec, 0, want_parents=True, want_via=True, slice_nodes=slice_nodes
            )
            assert np.array_equal(dist, ref_dist)
            assert np.array_equal(parents, ref_parents)
            assert int(via.min()) >= -1

    def test_unknown_codecs_may_pad(self):
        assert NodeCodec.pads_rows is True
        assert _duplicate_heavy_codec(65, seed=1).pads_rows is True


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_butterfly_identity_short_circuit_matches_formula(n):
    """Generator ``(0, 0)`` returns ``idx`` itself, which the rotate
    formula it skips agrees with; generators next to it still rotate."""
    codec = ButterflyElementCodec(n)
    idx = np.arange(codec.num_nodes, dtype=np.int64)
    word_mask = (1 << n) - 1
    x, c = idx >> n, idx & word_mask
    for dx, dc in [(0, 0), (0, 1), (0, 1 << (n - 1)), (1, 0), (n - 1, 1)]:
        rotated = ((dc << x) | (dc >> (n - x))) & word_mask
        formula = (((x + dx) % n) << n) | (c ^ rotated)
        assert np.array_equal(codec.apply_generator(idx, (dx, dc)), formula)
    assert codec.apply_generator(idx, (0, 0)) is idx


@pytest.mark.parametrize("topology", GRID, ids=lambda t: t.name)
class TestImplicitMatchesCSR:
    def test_distances_and_parents_identical(self, topology):
        fast = _fast(topology)
        n = fast.codec.num_nodes
        for source in _sample_ranks(n, 4):
            ref_dist, ref_parents = bfs_levels(fast.csr, source, want_parents=True)
            for slice_nodes in (TINY_SLICE, default_slice_nodes()):
                dist, parents, _ = implicit_bfs_levels(
                    fast.codec, source, want_parents=True, slice_nodes=slice_nodes
                )
                assert np.array_equal(dist, ref_dist)
                assert np.array_equal(parents, ref_parents)

    def test_via_reconstructs_the_edge(self, topology):
        """via[v] is the neighbor-block column turning parent[v] into v."""
        fast = _fast(topology)
        codec = fast.codec
        source = 0
        dist, parents, via = implicit_bfs_levels(
            codec, source, want_parents=True, want_via=True, slice_nodes=TINY_SLICE
        )
        block = codec.neighbors_block(
            np.arange(codec.num_nodes, dtype=np.int64)
        )
        for v in np.nonzero(dist > 0)[0]:
            assert block[parents[v], via[v]] == v
        assert via[source] == -1 and parents[source] == -1

    def test_fault_masked_distances_identical(self, topology):
        """Dist-only levels and the stats kernel under seeded fault masks."""
        fast = _fast(topology)
        n = fast.codec.num_nodes
        rng = random.Random(7)
        for trial in range(4):
            ranks = rng.sample(range(n), min(5, n))
            source, faulty = ranks[0], ranks[1:]
            mask = np.zeros(n, dtype=bool)
            mask[faulty] = True
            forbidden = np.array(sorted(faulty), dtype=np.int64)
            ref_dist, _ = bfs_levels(fast.csr, source, forbidden=mask)
            counts = np.bincount(ref_dist[ref_dist > 0])
            for slice_nodes in (TINY_SLICE, default_slice_nodes()):
                dist, _, _ = implicit_bfs_levels(
                    fast.codec, source, forbidden=forbidden, slice_nodes=slice_nodes
                )
                assert np.array_equal(dist, ref_dist)
                ecc, depth_counts, reached = implicit_source_stats(
                    fast.codec, source, forbidden=forbidden, slice_nodes=slice_nodes
                )
                assert ecc == int(ref_dist.max())
                assert reached == int((ref_dist >= 0).sum())
                assert depth_counts == {d: int(c) for d, c in enumerate(counts) if c}

    def test_target_early_exit_identical(self, topology):
        fast = _fast(topology)
        n = fast.codec.num_nodes
        ranks = _sample_ranks(n, 4, seed=3)
        source, target = ranks[0], ranks[-1]
        ref_dist, ref_parents = bfs_levels(
            fast.csr, source, want_parents=True, target=target
        )
        dist, parents, _ = implicit_bfs_levels(
            fast.codec,
            source,
            want_parents=True,
            target=target,
            slice_nodes=TINY_SLICE,
        )
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(parents, ref_parents)

    def test_source_stats_match_distance_array(self, topology):
        fast = _fast(topology)
        for source in _sample_ranks(fast.codec.num_nodes, 3, seed=5):
            ref_dist, _ = bfs_levels(fast.csr, source)
            ecc, depth_counts, reached = implicit_source_stats(
                fast.codec, source, slice_nodes=TINY_SLICE
            )
            assert ecc == int(ref_dist.max())
            assert reached == int((ref_dist >= 0).sum())
            counts = np.bincount(ref_dist[ref_dist > 0])
            assert depth_counts == {
                d: int(c) for d, c in enumerate(counts) if c
            }

    def test_sweep_chunk_identical(self, topology, monkeypatch):
        # codec rows through the shared sweep kernel, gathered in slices
        # of TINY_SLICE ranks at degree 4 (one word per node for 12 sources)
        monkeypatch.setattr(kernels, "_GATHER_BYTES", 8 * TINY_SLICE * 4)
        fast = _fast(topology)
        n = fast.codec.num_nodes
        chunk = np.arange(min(n, 12), dtype=np.int64)
        ref = _reference_sweep_chunk(fast.csr, chunk)
        got = sweep_chunk(fast.codec, chunk)
        assert np.array_equal(got[0], ref[0])
        assert got[1] == ref[1]
        assert got[2] == ref[2]


class TestBackendSelection:
    def test_auto_prefers_built_csr(self):
        topology = HyperButterfly(2, 3)
        fast = _fast(topology)
        _ = fast.csr  # force the build
        assert fast.select_backend(None) == "csr"

    def test_auto_goes_implicit_past_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_IMPLICIT_THRESHOLD", "1")
        topology = HyperButterfly(2, 3)
        fast = _fast(topology)
        assert implicit_threshold() == 1
        assert fast.select_backend(None) == "implicit"

    def test_probe_prefers_implicit_without_csr(self):
        topology = HyperButterfly(2, 3)
        fast = _fast(topology)
        assert fast.select_backend(None, probe=True) == "implicit"

    def test_explicit_backends_resolve(self):
        fast = _fast(HyperButterfly(2, 3))
        assert fast.select_backend("csr") == "csr"
        assert fast.select_backend("implicit") == "implicit"
        assert fast.select_backend("auto") in ("csr", "implicit")

    def test_unsupported_codec_rejects_implicit(self):
        for topology in (Mesh(4, 3), CompleteBinaryTree(4)):
            fast = get_fastgraph(topology)
            assert fast is not None and not fast.supports_implicit()
            with pytest.raises(InvalidParameterError):
                fast.select_backend("implicit")
            # auto never picks a substrate the codec cannot provide
            assert fast.select_backend(None, probe=True) == "csr"

    def test_unknown_backend_rejected(self):
        fast = _fast(HyperButterfly(2, 3))
        with pytest.raises(InvalidParameterError):
            fast.select_backend("sparse")

    def test_threshold_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_IMPLICIT_THRESHOLD", raising=False)
        assert implicit_threshold() == 1 << 22

    @pytest.mark.parametrize("raw", ["not-a-number", "4e6"])
    def test_threshold_env_garbage_raises(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_IMPLICIT_THRESHOLD", raw)
        with pytest.raises(InvalidParameterError, match="IMPLICIT_THRESHOLD") as info:
            implicit_threshold()
        assert repr(raw) in str(info.value)

    def test_slice_env_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_IMPLICIT_SLICE", raising=False)
        assert default_slice_nodes() == 1 << 20
        monkeypatch.setenv("REPRO_IMPLICIT_SLICE", "1000")
        assert default_slice_nodes() == 1000

    @pytest.mark.parametrize("raw", ["not-a-number", "4e6", "0", "-3", ""])
    def test_slice_env_garbage_raises(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_IMPLICIT_SLICE", raw)
        with pytest.raises(InvalidParameterError, match="IMPLICIT_SLICE") as info:
            default_slice_nodes()
        assert repr(raw) in str(info.value)


class TestTopologyBackendKwarg:
    @pytest.mark.parametrize("backend", ["csr", "implicit", "auto"])
    def test_bfs_distances_equal_across_backends(self, backend):
        topology = HyperButterfly(2, 3)
        source = next(iter(topology.nodes()))
        reference = reference_bfs.bfs_distances(topology, source)
        assert topology.bfs_distances(source, backend=backend) == reference

    @pytest.mark.parametrize("backend", ["csr", "implicit", "auto"])
    def test_eccentricity_equal_across_backends(self, backend):
        topology = HyperDeBruijn(2, 3)
        source = next(iter(topology.nodes()))
        reference = max(reference_bfs.bfs_distances(topology, source).values())
        assert topology.eccentricity(source, backend=backend) == reference

    def test_codecless_topology_rejects_implicit_backend(self):
        from repro.topologies.mesh_of_trees import MeshOfTrees

        topology = MeshOfTrees(2, 2)
        source = next(iter(topology.nodes()))
        with pytest.raises(InvalidParameterError, match="no vectorized implicit"):
            topology.bfs_distances(source, backend="implicit")
        reference = max(reference_bfs.bfs_distances(topology, source).values())
        assert topology.eccentricity(source, backend="csr") == reference

    @pytest.mark.parametrize("backend", ["csr", "implicit"])
    def test_blocked_source_rejected(self, backend):
        fast = _fast(HyperButterfly(2, 3))
        nodes = list(fast.topology.nodes())
        blocked = set(nodes[:3])
        with pytest.raises(InvalidLabelError, match="source node is blocked"):
            fast.masked_source_stats(nodes[1], blocked=blocked, backend=backend)
        with pytest.raises(InvalidLabelError, match="source node is blocked"):
            fast.reachable_count(nodes[1], blocked=blocked, backend=backend)
        # a survivor source counts survivors only
        assert fast.reachable_count(nodes[5], blocked=blocked, backend=backend) == 93

    def test_source_histogram_backends_agree(self):
        fast = _fast(HyperButterfly(2, 3))
        source = next(iter(fast.topology.nodes()))
        assert fast.source_histogram(source, backend="implicit") == (
            fast.source_histogram(source, backend="csr")
        )


class TestNumbaGate:
    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_IMPLICIT_NUMBA", "0")
        assert not numba_enabled()

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_numba_path_matches_numpy_path(self, monkeypatch):
        fast = _fast(HyperButterfly(2, 3))
        monkeypatch.setenv("REPRO_IMPLICIT_NUMBA", "0")
        ref, ref_parents, _ = implicit_bfs_levels(
            fast.codec, 0, want_parents=True, slice_nodes=TINY_SLICE
        )
        monkeypatch.setenv("REPRO_IMPLICIT_NUMBA", "1")
        assert numba_enabled()
        dist, parents, _ = implicit_bfs_levels(
            fast.codec, 0, want_parents=True, slice_nodes=TINY_SLICE
        )
        assert np.array_equal(dist, ref)
        assert np.array_equal(parents, ref_parents)
