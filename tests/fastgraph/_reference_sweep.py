"""Test-side reference for the all-sources sweep kernel.

:func:`_reference_sweep_chunk` is the sparse-matrix chunk kernel the
library ran before its bit-parallel sweep: one batched boolean BFS as
``scipy.sparse`` × dense-boolean products.  It is kept here, with scipy
as a test-only dependency, so the production kernel stays pinned to an
independent formulation chunk by chunk.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.fastgraph.csr import CSRAdjacency


def to_scipy(csr: CSRAdjacency) -> sparse.csr_matrix:
    """The adjacency as a ``scipy.sparse.csr_matrix`` of uint8 ones."""
    n = csr.num_nodes
    return sparse.csr_matrix(
        (np.ones(csr.num_arcs, dtype=np.uint8), csr.indices, csr.indptr),
        shape=(n, n),
    )


def _reference_sweep_chunk(
    csr: CSRAdjacency, chunk: np.ndarray
) -> tuple[np.ndarray, dict[int, int], bool]:
    """``(eccentricities, depth_counts, all_visited)`` of one chunk, by
    sparse × dense-boolean products."""
    adjacency = to_scipy(csr)
    total = csr.num_nodes
    width = len(chunk)
    visited = np.zeros((total, width), dtype=bool)
    visited[chunk, np.arange(width)] = True
    frontier = visited.copy()
    depth = 0
    ecc = np.zeros(width, dtype=np.int64)
    depth_counts: dict[int, int] = {}
    while frontier.any():
        # int32, not uint8: @ accumulates in the operand dtype, and a node
        # whose frontier in-degree is a multiple of 256 would wrap to 0
        reached = (adjacency @ frontier.astype(np.int32)) > 0
        frontier = reached & ~visited
        visited |= frontier
        depth += 1
        newly = int(frontier.sum())
        if newly:
            depth_counts[depth] = newly
            ecc[frontier.any(axis=0)] = depth
    return ecc, depth_counts, bool(visited.all())


def reference_sweep(
    csr: CSRAdjacency, *, batch: int = 256
) -> tuple[np.ndarray, dict[int, int]]:
    """All-sources ``(eccentricities, histogram)`` of
    :func:`_reference_sweep_chunk`, the histogram with its 0 diagonal."""
    total = csr.num_nodes
    eccentricities = np.zeros(total, dtype=np.int64)
    histogram = {0: total}
    for lo in range(0, total, batch):
        chunk = np.arange(lo, min(lo + batch, total), dtype=np.int64)
        ecc, depth_counts, _ = _reference_sweep_chunk(csr, chunk)
        eccentricities[chunk] = ecc
        for depth, newly in depth_counts.items():
            histogram[depth] = histogram.get(depth, 0) + newly
    return eccentricities, dict(sorted(histogram.items()))
