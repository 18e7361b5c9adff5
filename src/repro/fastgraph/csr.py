"""CSR adjacency construction for codec-backed topologies.

A :class:`CSRAdjacency` is the classic ``(indptr, indices)`` pair over the
codec's dense integer ranks.  Construction takes one of two routes:

* **vectorized** — the codec supplies a ``(num_nodes, degree)`` neighbor
  table built from pure numpy bit arithmetic (Cayley families, wrapped
  butterfly, cycles, tori, products of those).  Cost: a few array ops.
* **generic** — one Python pass over ``topology.neighbors`` per node for
  families with no vectorized adjacency (de Bruijn irregularity, meshes
  with boundaries, enumeration codecs).  This path may additionally be
  cached to disk so repeated processes skip the pass.

Disk cache: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/``, one ``.npz`` per
``(codec.cache_key, repro.__version__)`` — bumping the package version
invalidates every cached CSR.  Only generic builds of reasonably large
instances are cached (vectorized builds are cheaper than the disk
round-trip).  All cache I/O is best-effort: failures fall back to an
in-memory build.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.fastgraph.codecs import NodeCodec

if TYPE_CHECKING:  # runtime import would cycle through topologies.base
    from repro.topologies.base import Topology

__all__ = ["CSRAdjacency", "build_csr", "cache_dir", "cache_path"]

#: generic builds below this many nodes are not worth a disk round-trip
_CACHE_MIN_NODES = 4096


@dataclass
class CSRAdjacency:
    """Compressed sparse row adjacency over dense node ranks."""

    indptr: np.ndarray  # int64, shape (num_nodes + 1,)
    indices: np.ndarray  # int32, shape (num_arcs,)
    uniform_degree: int | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_arcs(self) -> int:
        return len(self.indices)

    def neighbors_of(self, idx: int) -> np.ndarray:
        return self.indices[self.indptr[idx] : self.indptr[idx + 1]]

    def table(self) -> np.ndarray | None:
        """``(num_nodes, degree)`` view when the graph is regular."""
        if self.uniform_degree is None:
            return None
        return self.indices.reshape(self.num_nodes, self.uniform_degree)

    def neighbors_block(self, idx: np.ndarray) -> np.ndarray:
        """``(len(idx), max degree)`` ranked neighbors of ``idx``, padded
        with ``-1`` — the row contract of
        :meth:`~repro.fastgraph.codecs.NodeCodec.neighbors_block`, so the
        sweep kernel reads a CSR and a codec alike."""
        table = self.table()
        return (self._padded_table if table is None else table)[idx]

    @cached_property
    def _padded_table(self) -> np.ndarray:
        """Irregular rows left-aligned in a ``-1``-filled table, built once."""
        degrees = np.diff(self.indptr)
        width = int(degrees.max()) if degrees.size else 0
        table = np.full((self.num_nodes, width), -1, dtype=self.indices.dtype)
        rows = np.repeat(np.arange(self.num_nodes), degrees)
        cols = np.arange(self.num_arcs) - np.repeat(self.indptr[:-1], degrees)
        table[rows, cols] = self.indices
        return table


def cache_dir() -> str:
    return os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "repro")
    )


def cache_path(codec: NodeCodec) -> str | None:
    """Cache file for this codec's CSR, or ``None`` when uncacheable."""
    if codec.cache_key is None:
        return None
    from repro import __version__

    digest = hashlib.sha1(
        f"{codec.cache_key}|v{__version__}".encode()
    ).hexdigest()[:16]
    return os.path.join(cache_dir(), f"csr-{digest}.npz")


def _load_cached(path: str) -> CSRAdjacency | None:
    try:
        with np.load(path) as data:
            degree = int(data["uniform_degree"])
            return CSRAdjacency(
                indptr=data["indptr"],
                indices=data["indices"],
                uniform_degree=degree if degree >= 0 else None,
            )
    except (OSError, KeyError, ValueError):
        return None


def _store_cached(path: str, csr: CSRAdjacency) -> None:
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            indptr=csr.indptr,
            indices=csr.indices,
            uniform_degree=np.int64(
                csr.uniform_degree if csr.uniform_degree is not None else -1
            ),
        )
    except OSError:
        pass  # read-only cache dir etc. — the in-memory CSR is still good


def build_csr(
    topology: Topology, codec: NodeCodec, *, use_disk_cache: bool = True
) -> CSRAdjacency:
    """Build (or load) the CSR adjacency of ``topology`` under ``codec``."""
    table = codec.neighbor_table()
    if table is not None:
        n, degree = table.shape
        return CSRAdjacency(
            indptr=np.arange(n + 1, dtype=np.int64) * degree,
            indices=np.ascontiguousarray(table.ravel(), dtype=np.int32),
            uniform_degree=degree,
        )

    path = cache_path(codec) if use_disk_cache else None
    cacheable = path is not None and codec.num_nodes >= _CACHE_MIN_NODES
    if cacheable and os.path.exists(path):
        cached = _load_cached(path)
        if cached is not None and cached.num_nodes == codec.num_nodes:
            return cached

    # generic one-pass build over the implicit adjacency
    n = codec.num_nodes
    indptr = np.zeros(n + 1, dtype=np.int64)
    chunks: list[list[int]] = []
    rank = codec.rank
    unrank = codec.unrank
    neighbors = topology.neighbors
    for i in range(n):
        ranked = [rank(w) for w in neighbors(unrank(i))]
        chunks.append(ranked)
        indptr[i + 1] = indptr[i] + len(ranked)
    indices = np.fromiter(
        (j for chunk in chunks for j in chunk), dtype=np.int32, count=int(indptr[-1])
    )
    degrees = np.diff(indptr)
    uniform = int(degrees[0]) if n and bool((degrees == degrees[0]).all()) else None
    csr = CSRAdjacency(indptr=indptr, indices=indices, uniform_degree=uniform)
    if cacheable:
        _store_cached(path, csr)
    return csr
