"""Process-pool multi-source BFS sweeps over a shared adjacency payload.

The chunked sweep is embarrassingly parallel across source chunks, but a
single Python process keeps the kernels on one core.  This module spreads
the chunks over a :class:`~concurrent.futures.ProcessPoolExecutor`.  The
payload is either a :class:`~repro.fastgraph.csr.CSRAdjacency` or a
:class:`~repro.fastgraph.codecs.NodeCodec` with implicit adjacency, and
both run the same chunk kernel
(:func:`repro.fastgraph.kernels.sweep_chunk`), which reads only their
``neighbors_block`` rows.  The pool initializer ships the payload **once
per worker**, not once per chunk: CSR arrays, or for a codec just a few
integers — the whole "spec" of the family — so nothing ``O(edges)``
crosses a process boundary and multi-source sweeps run at scales where
no CSR fits.

Chunk boundaries are a pure function of ``(num_sources, batch)`` and the
reduction (``max`` over eccentricities via order-preserving concatenation,
integer ``+`` over histogram counts) is associative and order-preserved by
``executor.map`` — the result is **bit-identical** for any ``jobs`` value
*and* for either payload kind, including the in-process ``jobs=1`` path,
which runs the very same chunk kernel without a pool.

The pool pins the ``spawn`` start method instead of inheriting the
platform default: fork and spawn workers see different module state, and
a sweep must not change meaning between Linux and macOS.  Spawned workers
carry no state besides what the initializer ships.

Determinism for any job count and both payloads is pinned by
``tests/fastgraph/test_parallel.py``.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, Union

import numpy as np

from repro.errors import DisconnectedError, InvalidParameterError
from repro.fastgraph.codecs import NodeCodec
from repro.fastgraph.csr import CSRAdjacency
from repro.fastgraph.guard import install_errstate_from_env
from repro.fastgraph.kernels import sweep_chunk

__all__ = ["SweepResult", "parallel_sweep", "source_chunks"]

#: a sweep substrate: materialized CSR arrays, or a tiny picklable codec
SweepPayload = Union[CSRAdjacency, NodeCodec]

#: sources per chunk: 1024 sources are 16 ``uint64`` words per node
DEFAULT_BATCH = 1024

#: per-worker state, populated by the pool initializer
_state: dict[str, Any] = {}


@dataclass(frozen=True)
class SweepResult:
    """Both reductions of one multi-source BFS sweep."""

    eccentricities: np.ndarray  # int64, one per source
    histogram: dict[int, int]  # distance -> ordered-pair count (incl. 0)

    def diameter(self) -> int:
        return int(self.eccentricities.max())


def source_chunks(total: int, batch: int) -> list[tuple[int, int]]:
    """Chunk bounds ``[lo, hi)`` covering ``range(total)`` in ``batch`` steps.

    A pure function of its arguments so serial and pooled sweeps cut the
    source space identically.
    """
    return [(lo, min(lo + batch, total)) for lo in range(0, total, batch)]


def _init_worker(payload: SweepPayload) -> None:
    """Store the payload once per worker — the only state a worker needs."""
    install_errstate_from_env()  # sanitizer trap survives spawn
    _state["payload"] = payload  # reprolint: disable=HB702 -- the initializer's one write: each worker's read-only payload, identical in every worker


def _run_chunk(bounds: tuple[int, int]) -> tuple[np.ndarray, dict[int, int], bool]:
    """Worker body: sweep one chunk against the worker's payload."""
    lo, hi = bounds
    return sweep_chunk(_state["payload"], np.arange(lo, hi, dtype=np.int64))


def parallel_sweep(
    payload: SweepPayload,
    *,
    jobs: int = 1,
    batch: int = DEFAULT_BATCH,
    check_connected: bool = True,
    name: str = "graph",
) -> SweepResult:
    """All-sources eccentricities + distance histogram, ``jobs`` processes.

    ``payload`` selects the substrate (CSR arrays or an implicit codec —
    see the module docstring); ``jobs=1`` runs the chunk loop in-process
    (no pool, no pickling) and is the reference the pooled paths must
    match bit-for-bit.  ``batch`` sources share one chunk, cut by
    :func:`source_chunks`.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    if batch < 1:
        raise InvalidParameterError(f"batch must be >= 1, got {batch}")
    if isinstance(payload, NodeCodec) and not payload.supports_implicit():
        raise InvalidParameterError(
            f"codec {type(payload).__name__} has no implicit adjacency; "
            "pass its CSRAdjacency instead"
        )
    total = payload.num_nodes
    bounds = source_chunks(total, batch)
    if jobs == 1 or len(bounds) <= 1:
        results = [
            sweep_chunk(payload, np.arange(lo, hi, dtype=np.int64))
            for lo, hi in bounds
        ]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(jobs, len(bounds)),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(payload,),
        ) as pool:
            # map preserves submission order -> deterministic reduction
            results = list(pool.map(_run_chunk, bounds))
    eccentricities = (
        np.concatenate([ecc for ecc, _, _ in results])
        if results
        else np.zeros(0, dtype=np.int64)
    )
    counts: dict[int, int] = {0: total}
    all_visited = True
    for _, depth_counts, visited in results:
        all_visited = all_visited and visited
        for depth, newly in depth_counts.items():
            counts[depth] = counts.get(depth, 0) + newly
    if check_connected and not all_visited:
        raise DisconnectedError(f"{name} is disconnected")
    return SweepResult(
        eccentricities=eccentricities, histogram=dict(sorted(counts.items()))
    )
