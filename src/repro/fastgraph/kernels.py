"""Array-backed BFS kernels over dense node ranks.

Two kernels cover every CSR BFS the library runs and every all-sources
sweep:

* :func:`bfs_levels` — single-source level/parent arrays over a
  :class:`~repro.fastgraph.csr.CSRAdjacency`, using frontier arrays
  instead of a dict+deque; supports blocked-node masks and early exit at
  a target.  One numpy pass per BFS level.
* :func:`sweep_chunk` — a multi-source bit-parallel BFS (MS-BFS; Then et
  al., "The More the Merrier: Efficient Multi-Source Graph Traversal",
  VLDB 2014) from one chunk of sources.  Every node holds one ``uint64``
  word per 64 sources, and a level ORs the frontier words of each node's
  neighbors.  It reads adjacency only through ``neighbors_block`` rows
  padded with ``-1``, which a CSR and an implicit codec both provide, so
  one kernel serves both sweep payloads.  :mod:`repro.fastgraph.parallel`
  runs it in-process or inside pool workers; serial and pooled sweeps
  reduce the same per-chunk results, so they are bit-identical for any
  job count.

All distances are ``int32`` with ``-1`` meaning unreached.
"""

from __future__ import annotations

import numpy as np

from repro.fastgraph.codecs import NodeCodec
from repro.fastgraph.csr import CSRAdjacency

__all__ = ["bfs_levels", "path_from_parents", "sweep_chunk"]

#: bytes of one gathered ``frontier[rows]`` block (``slice · width · words
#: · 8``); bounds a sweep level's scratch whatever the graph size
_GATHER_BYTES = 1 << 24


def bfs_levels(
    csr: CSRAdjacency,
    source: int,
    *,
    forbidden: np.ndarray | None = None,
    want_parents: bool = False,
    target: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Single-source BFS → ``(dist, parents)`` arrays.

    ``forbidden`` is a boolean mask of blocked nodes (never entered, left at
    distance ``-1``).  With ``target`` the sweep stops as soon as the target
    level is complete.  ``parents`` (when requested) holds the rank of the
    BFS-tree parent, ``-1`` for the source and unreached nodes.
    """
    n = csr.num_nodes
    dist = np.full(n, -1, dtype=np.int32)
    parents = np.full(n, -1, dtype=np.int64) if want_parents else None
    visited = forbidden.copy() if forbidden is not None else np.zeros(n, dtype=bool)
    visited[source] = True
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    table = csr.table()
    depth = 0
    while frontier.size:
        if target is not None and dist[target] >= 0:
            break
        depth += 1
        if table is not None:
            nbrs = table[frontier].ravel()
            origins = np.repeat(frontier, csr.uniform_degree)
        else:
            starts = csr.indptr[frontier]
            counts = csr.indptr[frontier + 1] - starts
            total = int(counts.sum())
            offsets = np.repeat(
                starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            )
            nbrs = csr.indices[offsets + np.arange(total)]
            origins = np.repeat(frontier, counts)
        fresh = ~visited[nbrs]
        nbrs = nbrs[fresh]
        if nbrs.size == 0:
            break
        # dedupe while retaining one parent per node (first occurrence)
        uniq, first = np.unique(nbrs, return_index=True)
        dist[uniq] = depth
        if parents is not None:
            parents[uniq] = origins[fresh][first]
        visited[uniq] = True
        frontier = uniq
    return dist, parents


def path_from_parents(parents: np.ndarray, source: int, target: int) -> list[int]:
    """The rank path ``source → target`` along a BFS parent array."""
    path = [target]
    while path[-1] != source:
        path.append(int(parents[path[-1]]))
    path.reverse()
    return path


def sweep_chunk(
    rows: CSRAdjacency | NodeCodec, chunk: np.ndarray
) -> tuple[np.ndarray, dict[int, int], bool]:
    """One multi-source bit-parallel BFS from the distinct ``chunk`` ranks.

    Source ``i`` of the chunk owns bit ``i & 63`` of word ``i >> 6`` in
    every node's row.  A level pulls, for each node, the OR of its
    neighbors' frontier rows and keeps the bits not yet seen; popcounts
    of those bits are the level's new pairs, and an OR over all nodes
    names the sources whose BFS advanced.  ``rows.neighbors_block`` is
    read in slices of ranks sized from :data:`_GATHER_BYTES`; a ``-1``
    padding entry gathers the extra all-zero row ``num_nodes``.

    Returns ``(eccentricities, depth_counts, all_visited)``:
    per-source eccentricities (``int64``, aligned with ``chunk``),
    ``{depth >= 1: newly-visited count}`` summed over the chunk's sources,
    and whether every BFS in the chunk reached the whole graph.
    """
    total = rows.num_nodes
    width = len(chunk)
    words = (width + 63) >> 6
    lanes = np.arange(width)
    # row ``total`` is never written, so it stays the all-zero padding row
    seen = np.zeros((total + 1, words), dtype=np.uint64)
    seen[chunk, lanes >> 6] = np.uint64(1) << (lanes & 63).astype(np.uint64)
    frontier = seen.copy()
    degree = rows.neighbors_block(chunk[:1]).shape[1]
    step = max(1, _GATHER_BYTES // (8 * words * max(degree, 1)))
    ecc = np.zeros(width, dtype=np.int64)
    depth_counts: dict[int, int] = {}
    while True:
        pulled = np.zeros_like(seen)
        for lo in range(0, total, step):
            block = rows.neighbors_block(
                np.arange(lo, min(lo + step, total), dtype=np.int64)
            )
            out = pulled[lo : lo + len(block)]
            for column in block.T:
                out |= np.take(frontier, column, axis=0)
        pulled &= ~seen
        # dtype pinned: a bare .sum() accumulates in the platform integer
        newly = int(np.bitwise_count(pulled).sum(dtype=np.int64))
        if not newly:
            break
        depth = len(depth_counts) + 1
        depth_counts[depth] = newly
        advanced = np.bitwise_or.reduce(pulled, axis=0)
        # little-endian bytes, little-endian bits: column i is source i
        hit = np.unpackbits(
            advanced.astype("<u8", copy=False).view(np.uint8), bitorder="little"
        )[:width]
        ecc[hit.astype(bool)] = depth
        seen |= pulled
        frontier = pulled
    # each (source, node) pair is counted once, at the depth it is reached
    all_visited = width + sum(depth_counts.values()) == width * total
    return ecc, depth_counts, all_visited
