"""The bit-parallel sweep kernel vs the sparse-matrix reference, per chunk.

:func:`repro.fastgraph.kernels.sweep_chunk` reads ``neighbors_block`` rows
from a CSR or an implicit codec.  On every chunk of every batch size
below — odd widths that leave part of a ``uint64`` word unused, gathers
cut into many slices, ``-1``-padded de Bruijn rows, irregular CSRs and a
graph with no arcs — both row sources must return exactly the
eccentricities, depth counts and ``all_visited`` flag of
:func:`_reference_sweep_chunk`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.fastgraph import kernels
from repro.fastgraph.backend import get_fastgraph
from repro.fastgraph.csr import CSRAdjacency
from repro.fastgraph.kernels import sweep_chunk
from repro.fastgraph.parallel import DEFAULT_BATCH
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh
from repro.topologies.mesh_of_trees import MeshOfTrees
from tests.fastgraph._reference_sweep import _reference_sweep_chunk

GRID = [
    HyperDeBruijn(1, 4),
    HyperDeBruijn(3, 5),
    DeBruijn(8),
    HyperButterfly(1, 3),
    HyperButterfly(2, 3),
    Mesh(4, 5),
    MeshOfTrees(8, 8),
    Hypercube(5),
    CayleyButterfly(3),
]

BATCHES = [1, 5, 64, 65, 128, 200]

#: gather bytes that cut every level into slices of a few ranks
SMALL_GATHER = 2048


def _row_sources(topology):
    fast = get_fastgraph(topology)
    sources = [fast.csr]
    if fast.codec.supports_implicit():
        sources.append(fast.codec)
    return fast.csr, sources


def _assert_chunks_match(csr, sources, batch):
    total = csr.num_nodes
    for lo in range(0, total, batch):
        chunk = np.arange(lo, min(lo + batch, total), dtype=np.int64)
        ecc, depth_counts, all_visited = _reference_sweep_chunk(csr, chunk)
        for rows in sources:
            got_ecc, got_counts, got_visited = sweep_chunk(rows, chunk)
            assert np.array_equal(got_ecc, ecc), (type(rows).__name__, lo)
            assert got_counts == depth_counts, (type(rows).__name__, lo)
            assert got_visited == all_visited, (type(rows).__name__, lo)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("topology", GRID, ids=lambda t: t.name)
def test_every_chunk_matches_reference(topology, batch, monkeypatch):
    monkeypatch.setattr(kernels, "_GATHER_BYTES", SMALL_GATHER)
    csr, sources = _row_sources(topology)
    _assert_chunks_match(csr, sources, batch)


@pytest.mark.parametrize("topology", GRID, ids=lambda t: t.name)
def test_default_gather_matches_reference(topology):
    csr, sources = _row_sources(topology)
    _assert_chunks_match(csr, sources, DEFAULT_BATCH)


def test_graph_without_arcs():
    csr = CSRAdjacency(
        indptr=np.zeros(3, dtype=np.int64), indices=np.zeros(0, dtype=np.int32)
    )
    assert csr.neighbors_block(np.arange(2)).shape == (2, 0)
    _assert_chunks_match(csr, [csr], 1)
    _assert_chunks_match(csr, [csr], 2)


@pytest.mark.parametrize(
    "topology", [DeBruijn(4), Mesh(4, 3), MeshOfTrees(2, 2)], ids=lambda t: t.name
)
def test_csr_rows_are_padded_adjacency_rows(topology):
    csr = get_fastgraph(topology).csr
    block = csr.neighbors_block(np.arange(csr.num_nodes))
    for rank, row in enumerate(block):
        valid = row[row >= 0]
        assert np.array_equal(valid, csr.neighbors_of(rank))
        assert (row[len(valid) :] == -1).all()
