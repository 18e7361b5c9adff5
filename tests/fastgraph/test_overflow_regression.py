"""Regression: a node with 256 frontier neighbors must read as reached.

The sparse-matrix sweep kernel once computed ``adjacency @
frontier.astype(np.uint8)``; the product accumulates in the operands'
promoted dtype, so a node whose in-degree *from the current frontier* is
a multiple of 256 summed to exactly 0 and silently read as unreached
(surfacing as a spurious ``DisconnectedError`` or a wrong eccentricity).
Found by reprolint HB605.  The bit-parallel kernel ORs source bits and
has no counter to wrap; the same star-bridge graph keeps it honest.
"""

from __future__ import annotations

import numpy as np

from repro.fastgraph.csr import CSRAdjacency
from repro.fastgraph.kernels import sweep_chunk
from repro.fastgraph.parallel import parallel_sweep


def _star_bridge_csr(leaves: int = 256) -> CSRAdjacency:
    """Center ``C`` — each leaf — bridge ``X``: ``X`` sees 256 frontier
    neighbors at BFS depth 2 from ``C``, the exact wrap count."""
    n = leaves + 2
    x = n - 1
    adj: list[list[int]] = [[] for _ in range(n)]
    for leaf in range(1, leaves + 1):
        adj[0].append(leaf)
        adj[leaf].extend([0, x])
        adj[x].append(leaf)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i in range(n):
        indptr[i + 1] = indptr[i] + len(adj[i])
    indices = np.concatenate([np.asarray(a, dtype=np.int32) for a in adj])
    return CSRAdjacency(indptr=indptr, indices=indices)


class TestFrontierAccumulatorWidth:
    def test_multiple_of_256_frontier_indegree_is_reached(self):
        csr = _star_bridge_csr(256)
        chunk = np.array([0], dtype=np.int64)
        ecc, depth_counts, all_visited = sweep_chunk(csr, chunk)
        assert all_visited  # the wrapped kernel left the bridge unreached
        assert int(ecc[0]) == 2
        assert depth_counts == {1: 256, 2: 1}

    def test_batched_eccentricities_on_wrap_prone_graph(self):
        csr = _star_bridge_csr(256)
        ecc = parallel_sweep(csr, name="star-bridge").eccentricities
        # every node reaches every other within 2 hops
        assert (ecc == 2).all()
