"""CSR construction and disk-cache behavior."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.fastgraph import codec_for
from repro.fastgraph.csr import build_csr, cache_path
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from tests.fastgraph._reference_sweep import to_scipy

#: generator codecs whose CSR comes from ``NodeCodec.neighbor_table``
GENERATOR_FAMILIES = [
    HyperButterfly(0, 3),
    HyperButterfly(1, 3),
    HyperButterfly(2, 3),
    HyperButterfly(3, 4),
    HyperButterfly(4, 5),
    HyperButterfly(4, 7),
    CayleyButterfly(4),
]


class TestBuildRoutes:
    def test_vectorized_build_is_regular(self):
        h = Hypercube(4)
        csr = build_csr(h, codec_for(h))
        assert csr.uniform_degree == 4
        assert csr.num_nodes == 16
        assert csr.num_arcs == 64
        assert csr.table() is not None

    def test_generic_build_irregular(self):
        d = DeBruijn(3)
        csr = build_csr(d, codec_for(d))
        assert csr.uniform_degree is None
        degrees = np.diff(csr.indptr)
        assert sorted(set(int(x) for x in degrees)) == [2, 3, 4]
        assert int(degrees.sum()) == 2 * d.num_edges

    @pytest.mark.parametrize("topology", GENERATOR_FAMILIES, ids=lambda t: t.name)
    def test_generator_build_matches_per_generator_columns(self, topology):
        # column k of the table is generator k applied to every rank
        codec = codec_for(topology)
        ranks = np.arange(codec.num_nodes, dtype=np.int64)
        reference = np.column_stack(
            [codec.apply_generator(ranks, gen) for gen in codec.generators]
        )
        csr = build_csr(topology, codec)
        assert csr.uniform_degree == len(codec.generators)
        assert np.array_equal(csr.indices, reference.ravel())

    def test_scipy_export_symmetric(self):
        h = Hypercube(3)
        mat = to_scipy(build_csr(h, codec_for(h)))
        assert (mat != mat.T).nnz == 0


class TestDiskCache:
    def test_generic_build_round_trips_through_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("repro.fastgraph.csr._CACHE_MIN_NODES", 1)
        d = DeBruijn(4)
        codec = codec_for(d)
        first = build_csr(d, codec)
        path = cache_path(codec)
        assert path is not None and os.path.exists(path)
        second = build_csr(d, codec)
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)
        assert second.uniform_degree is None

    def test_version_keys_the_cache_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        codec = codec_for(DeBruijn(4))
        before = cache_path(codec)
        monkeypatch.setattr("repro.__version__", "999.0.0")
        assert cache_path(codec) != before

    def test_vectorized_families_skip_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("repro.fastgraph.csr._CACHE_MIN_NODES", 1)
        h = Hypercube(4)
        build_csr(h, codec_for(h))
        assert not os.listdir(tmp_path)

    def test_unwritable_cache_dir_is_tolerated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "missing" / "nested"))
        monkeypatch.setattr("repro.fastgraph.csr._CACHE_MIN_NODES", 1)
        d = DeBruijn(3)
        csr = build_csr(d, codec_for(d))
        assert csr.num_nodes == d.num_nodes

    def test_opt_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("repro.fastgraph.csr._CACHE_MIN_NODES", 1)
        d = DeBruijn(4)
        build_csr(d, codec_for(d), use_disk_cache=False)
        assert not os.listdir(tmp_path)
