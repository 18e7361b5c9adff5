"""CSR-free BFS kernels over implicit (computed) adjacency.

The CSR kernels in :mod:`repro.fastgraph.kernels` are fast but pay
``O(edges)`` memory before the first frontier expands — ~3 GB of indices
(plus build intermediates) for ``HB(10,12)``'s 49M nodes.  For the
bit-arithmetic families in this repo the neighbor function is pure
XOR/shift on packed integer ranks, so adjacency can be *computed on the
fly* instead: each BFS level gathers the neighbor block of the current
frontier via :meth:`~repro.fastgraph.codecs.NodeCodec.neighbors_block`
and discards it again.  Peak memory is

* one packed :class:`Bitset` of visited nodes — ``num_nodes / 8`` bytes,
  plus, on levels without attribution, a ``num_nodes``-byte mark scratch
  and one ``num_nodes / 8``-byte snapshot of the bitset per level,
* the frontier rank array and a bounded ``slice × degree`` gather buffer
  (the frontier is expanded in slices of :func:`default_slice_nodes`
  ranks),
* for generator products (hyper-butterfly) the codec's cached factor
  move tables (:meth:`~repro.fastgraph.codecs.ProductCodec.move_tables`)
  — ``4·(m+4)·n·2^n`` bytes for the butterfly factor of ``HB(m,n)`` plus
  ``8·(m+4)·2^m`` for the cube factor, and
* the ``int32`` distance array *only when the caller asks for distances*
  (:func:`implicit_bfs_levels`); the per-source statistics kernel
  (:func:`implicit_source_stats`) never allocates per-node output and
  runs in ``O(num_nodes)`` bytes.

Masked per-source statistics on ``HB(m, n)`` do not need a BFS at all:
:class:`RepairKernel` reads the product oracle's factor distances,
translates the blocked ranks so the source is the identity, and repairs
only the nodes whose distance the faults change (see its docstring for
why the result is exact).  :meth:`FastGraph.masked_source_stats
<repro.fastgraph.backend.FastGraph.masked_source_stats>` takes it for
every backend but ``"csr"`` when the topology's oracle splits by factor;
other topologies keep :func:`implicit_source_stats`.

All-sources sweeps do not run here: the bit-parallel chunk kernel
:func:`repro.fastgraph.kernels.sweep_chunk` reads the same
``neighbors_block`` rows, for a codec and a CSR alike.

Two level expansions share that layout:

* **no attribution** (:func:`implicit_source_stats`, dist-only
  :func:`implicit_bfs_levels`) —
  store every valid candidate into the byte scratch (a gather-only
  level: no scatter-OR per candidate), fold the scratch into the bitset
  with one ``np.packbits`` per level, and read the next frontier off the
  words that changed: ascending rank order with no sort and no
  ``np.unique``;
* **origins** (``want_parents`` / ``want_via``: the
  :class:`~repro.cayley.graph.DistanceOracle` fill and shortest paths) —
  test the candidates against the bitset, keep the first occurrence of
  each fresh rank with ``np.unique``, and mark those.

Bit-identity contract: for any codec whose ``neighbors_block`` rows list
valid entries in CSR row order (all built-in codecs), every kernel here
returns exactly what the CSR kernels return — distances, parent choice
(first occurrence in the frontier-major flattened neighbor order, with
the frontier kept in ascending rank order), reaching-generator indices,
and depth histograms.  ``tests/fastgraph/test_implicit.py`` pins this
across the family grid, including fault-masked subsets.

When :mod:`numba` is importable (the optional ``repro[speed]`` extra) a
jitted fused test-and-set kernel replaces the numpy test/unique/mark
sequence of the origins levels — auto-detected at import, disabled with
``REPRO_IMPLICIT_NUMBA=0``, and bit-identical to the numpy path by
construction (both resolve duplicate candidates to their first
occurrence and sort each new frontier).
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import InvalidParameterError, ReproError
from repro.fastgraph.codecs import NodeCodec

__all__ = [
    "HAVE_NUMBA",
    "numba_enabled",
    "default_slice_nodes",
    "Bitset",
    "implicit_bfs_levels",
    "implicit_source_stats",
    "RepairKernel",
]

#: whether the optional jit is importable — the numpy path is the reference
HAVE_NUMBA = False
try:
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised on numba-less installs
    pass

#: env switch to force the numpy path even when numba is importable
_NUMBA_ENV = "REPRO_IMPLICIT_NUMBA"
#: env override for the frontier gather slice (ranks per gather)
_SLICE_ENV = "REPRO_IMPLICIT_SLICE"
_DEFAULT_SLICE = 1 << 20


def numba_enabled() -> bool:
    """Whether the jitted fused kernel is active for this process."""
    return HAVE_NUMBA and os.environ.get(_NUMBA_ENV, "1") != "0"


def default_slice_nodes() -> int:
    """Frontier ranks expanded per gather — bounds the ``slice × degree``
    scratch buffer (``REPRO_IMPLICIT_SLICE`` overrides, default 2^20; a
    value that is not a positive integer raises
    :class:`InvalidParameterError`)."""
    raw = os.environ.get(_SLICE_ENV)
    if raw is None:
        return _DEFAULT_SLICE
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidParameterError(
            f"{_SLICE_ENV}={raw!r} is not a positive integer rank count"
        )
    return value


if HAVE_NUMBA:

    @_njit(cache=True)
    def _mark_fresh_numba(
        words: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - requires the [speed] extra
        """Fused visited test-and-set: mask of first-occurrence fresh ranks."""
        out = np.zeros(candidates.shape[0], dtype=np.bool_)
        one = np.uint64(1)
        for i in range(candidates.shape[0]):
            v = candidates[i]
            word = v >> 6
            bit = one << np.uint64(v & 63)
            if not (words[word] & bit):
                words[word] |= bit
                out[i] = True
        return out


class Bitset:
    """Packed visited set — one bit per node in ``uint64`` words."""

    def __init__(self, num_bits: int) -> None:
        if num_bits < 0:
            raise InvalidParameterError(f"bitset size must be >= 0, got {num_bits}")
        self.num_bits = num_bits
        self.words = np.zeros((num_bits + 63) >> 6, dtype=np.uint64)

    def test(self, idx: np.ndarray) -> np.ndarray:
        """Boolean mask over ``idx``: which bits are already set."""
        shifts = (idx & 63).astype(np.uint64)
        return (self.words[idx >> 6] >> shifts) & np.uint64(1) != 0

    def set_bits(self, idx: np.ndarray) -> None:
        """Set the bits of ``idx`` (duplicates allowed)."""
        bits = np.uint64(1) << (idx & 63).astype(np.uint64)
        np.bitwise_or.at(self.words, idx >> 6, bits)

    def new_since(self, snapshot: np.ndarray) -> np.ndarray:
        """Ascending ranks set now but clear in ``snapshot``, an earlier
        copy of :attr:`words` (bits are only ever set, never cleared)."""
        changed = self.words ^ snapshot
        hot = np.flatnonzero(changed)
        # little-endian bytes, little-endian bits: column j is bit j
        bits = np.unpackbits(
            changed[hot].astype("<u8", copy=False).view(np.uint8), bitorder="little"
        ).reshape(hot.size, 64)
        rows, cols = np.nonzero(bits)
        return hot[rows] * 64 + cols

    def count(self) -> int:
        """Number of set bits."""
        # dtype pinned: a bare .sum() accumulates in the platform integer
        return int(np.unpackbits(self.words.view(np.uint8)).sum(dtype=np.int64))


def _fresh_in_slice(
    bitset: Bitset, flat: np.ndarray, *, use_numba: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(news, keep_index)`` of one flattened neighbor slice.

    ``news`` are the ranks newly marked visited; ``keep_index`` indexes
    their first occurrence back into ``flat`` (for parent/generator
    attribution).  Duplicate candidates always resolve to their first
    occurrence, so the numba and numpy routes agree exactly.
    """
    if use_numba:
        mask = _mark_fresh_numba(bitset.words, flat)
        keep = np.nonzero(mask)[0]
        return flat[keep], keep
    unseen = np.nonzero(~bitset.test(flat))[0]
    candidates = flat[unseen]
    uniq, first = np.unique(candidates, return_index=True)
    bitset.set_bits(uniq)
    return uniq, unseen[first]


def _level(
    codec: NodeCodec, frontier: np.ndarray, bitset: Bitset, *, slice_nodes: int
) -> np.ndarray:
    """Expand one BFS level without attribution; returns the next frontier.

    Every valid candidate of every slice is marked, visited or not, by a
    plain store into a one-byte-per-node scratch (duplicates just store
    twice), so no scatter-OR runs per candidate.  The scratch is packed
    and ORed into the bitset once per level, and the fresh ranks are read
    off the words that changed.  That read walks words and bits in rank
    order, so the next frontier comes out ascending — the CSR kernel's
    ``np.unique`` frontier — with no sort.
    """
    # padded to whole words so the packed bytes view as the bitset's words
    marks = np.zeros(bitset.words.size * 64, dtype=np.bool_)
    pads = codec.pads_rows
    for lo in range(0, len(frontier), slice_nodes):
        flat = codec.neighbors_block(frontier[lo : lo + slice_nodes]).ravel()
        if pads and bool((flat < 0).any()):
            flat = flat[flat >= 0]
        marks[flat] = True
    # little-endian bits in little-endian words: rank r is bit r & 63 of word r >> 6
    marked = np.packbits(marks, bitorder="little").view("<u8")
    snapshot = bitset.words.copy()
    bitset.words |= marked
    return bitset.new_since(snapshot)


def _level_with_origins(
    codec: NodeCodec,
    frontier: np.ndarray,
    bitset: Bitset,
    *,
    slice_nodes: int,
    use_numba: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand one BFS level with attribution → ``(frontier, origins, columns)``.

    Row ``i`` says that ``frontier[i]`` (ascending) was first reached from
    frontier rank ``origins[i]`` through neighbor-block column
    ``columns[i]`` (the generator index, for generator codecs).  "First"
    is the first occurrence in the frontier-major flattened neighbor
    order — the CSR kernel's parent rule.
    """
    news_parts: list[np.ndarray] = []
    origin_parts: list[np.ndarray] = []
    column_parts: list[np.ndarray] = []
    pads = codec.pads_rows
    for lo in range(0, len(frontier), slice_nodes):
        part = frontier[lo : lo + slice_nodes]
        block = codec.neighbors_block(part)
        width = block.shape[1]
        if width == 0:
            continue
        flat = block.ravel()
        valid: np.ndarray | None = None
        if pads and bool((flat < 0).any()):
            valid = np.nonzero(flat >= 0)[0]
            flat = flat[valid]
        news, keep = _fresh_in_slice(bitset, flat, use_numba=use_numba)
        if news.size == 0:
            continue
        if valid is not None:
            keep = valid[keep]
        news_parts.append(news)
        origin_parts.append(part[keep // width])
        column_parts.append(keep % width)
    if not news_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    if len(news_parts) == 1 and not use_numba:
        # already ascending: np.unique sorts
        return news_parts[0], origin_parts[0], column_parts[0]
    news = np.concatenate(news_parts)
    order = np.argsort(news)  # slices never share a fresh rank
    return (
        news[order],
        np.concatenate(origin_parts)[order],
        np.concatenate(column_parts)[order],
    )


def _seed_bitset(
    codec: NodeCodec, source: int, forbidden: np.ndarray | None
) -> Bitset:
    bitset = Bitset(codec.num_nodes)
    if forbidden is not None and len(forbidden):
        bitset.set_bits(np.asarray(forbidden, dtype=np.int64))
    bitset.set_bits(np.array([source], dtype=np.int64))
    return bitset


def _check_depth(codec: NodeCodec, depth: int) -> None:
    """A BFS from one source has at most ``num_nodes - 1`` non-empty levels;
    a deeper one means the visited set stopped recording visits, and would
    otherwise never end."""
    if depth >= codec.num_nodes:
        raise ReproError(
            f"BFS reached level {depth} on {codec.num_nodes} nodes: "
            "the visited set is not recording visits"
        )


def implicit_bfs_levels(
    codec: NodeCodec,
    source: int,
    *,
    forbidden: np.ndarray | None = None,
    want_parents: bool = False,
    want_via: bool = False,
    target: int | None = None,
    slice_nodes: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Single-source BFS → ``(dist, parents, via)`` without any CSR.

    Mirrors :func:`repro.fastgraph.kernels.bfs_levels` bit for bit:
    ``dist`` is ``int32`` with ``-1`` unreached, ``forbidden`` ranks are
    never entered, ``target`` stops the sweep once its level is complete,
    and ``parents`` (when requested) picks the first occurrence in the
    frontier-major neighbor order.  ``via`` (when requested) additionally
    records the neighbor-block *column* — for generator codecs, the index
    of the generator whose edge reached each node (``-1`` at the source
    and unreached nodes), which is what the identity-rooted
    :class:`~repro.cayley.graph.DistanceOracle` stores.
    """
    dist = np.full(codec.num_nodes, -1, dtype=np.int32)
    parents = np.full(codec.num_nodes, -1, dtype=np.int64) if want_parents else None
    via = np.full(codec.num_nodes, -1, dtype=np.int64) if want_via else None
    bitset = _seed_bitset(codec, source, forbidden)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    slice_nodes = slice_nodes or default_slice_nodes()
    use_numba = numba_enabled()
    while frontier.size:
        if target is not None and dist[target] >= 0:
            break
        depth += 1
        if parents is None and via is None:
            frontier = _level(codec, frontier, bitset, slice_nodes=slice_nodes)
        else:
            frontier, origins, columns = _level_with_origins(
                codec, frontier, bitset, slice_nodes=slice_nodes, use_numba=use_numba
            )
            if parents is not None:
                parents[frontier] = origins
            if via is not None:
                via[frontier] = columns
        if frontier.size:
            _check_depth(codec, depth)
        dist[frontier] = depth
    return dist, parents, via


def implicit_source_stats(
    codec: NodeCodec,
    source: int,
    *,
    forbidden: np.ndarray | None = None,
    slice_nodes: int | None = None,
) -> tuple[int, dict[int, int], int]:
    """One exact BFS reduced on the fly — ``O(num_nodes)`` bytes of memory.

    Returns ``(eccentricity, depth_counts, reached)``: the max depth, the
    ``{depth >= 1: newly-visited count}`` histogram, and the number of
    nodes reached (source included) — enough for per-source eccentricity,
    single-source distance histograms, and connectivity checks, without a
    per-node output array.
    """
    bitset = _seed_bitset(codec, source, forbidden)
    frontier = np.array([source], dtype=np.int64)
    depth_counts: dict[int, int] = {}
    slice_nodes = slice_nodes or default_slice_nodes()
    while True:
        frontier = _level(codec, frontier, bitset, slice_nodes=slice_nodes)
        if not frontier.size:
            break
        depth_counts[len(depth_counts) + 1] = int(frontier.size)
        _check_depth(codec, len(depth_counts))
    return len(depth_counts), depth_counts, 1 + sum(depth_counts.values())


# node states of the repair kernel's one-byte-per-node scratch
_CLEAN, _BLOCKED, _AFFECTED, _SETTLED = 0, 1, 2, 3


class RepairKernel:
    """Masked ``(eccentricity, reached)`` on a product Cayley graph, no BFS.

    For ``HB(m, n)`` (Theorem 1: a Cayley graph on cube × butterfly whose
    generators each move one factor) the fault-free distance from the
    identity to the product rank ``a·nr + b`` is ``left_dist[a] +
    right_dist[b]`` (Remarks 6 and 8), the factor distances that
    :meth:`~repro.cayley.graph.DistanceOracle.lifted_word_tables` holds.
    ``codec`` is the topology's generator
    :class:`~repro.fastgraph.codecs.ProductCodec`.

    :meth:`source_stats` returns exactly the ``(eccentricity, reached)``
    of :func:`implicit_source_stats`:

    * Edges are ``x ~ x·g``, so ``x ↦ source⁻¹·x`` is an automorphism:
      the blocked ranks are translated and the source becomes the
      identity, at fault-free distance ``D0 = left + right``.
    * Masking never shortens a path.  A survivor at level ``ℓ = D0``
      keeps its distance exactly when some level ``ℓ−1`` neighbour is
      unblocked and keeps its own; otherwise it is *affected*.  So the
      affected nodes are found by walking outward from the blocked set
      one ``D0`` level at a time: a level ``ℓ`` neighbour of the bad
      (blocked or affected) level ``ℓ−1`` nodes is affected when all its
      level ``ℓ−1`` neighbours are bad.  Distances add over the factors,
      so the number of such neighbours is a sum of two factor tables.
    * The affected nodes are settled by one bucketed sweep seeded from
      their unaffected neighbours at ``D0 + 1``; those the sweep never
      reaches are cut off from the source.

    Work is ``O((|blocked| + |affected| + their neighbours) · degree)``;
    memory is one byte of state per node plus arrays the size of the work.
    """

    def __init__(
        self, codec: NodeCodec, left_dist: np.ndarray, right_dist: np.ndarray
    ) -> None:
        self.codec = codec
        self.left_dist = left_dist
        self.right_dist = right_dist
        nr = codec.right.num_nodes
        left_moves, right_moves = codec.move_tables()
        # per factor: how many generators step one level closer to the
        # identity (a generator moving the other factor never does)
        self.left_pred = (left_dist[left_moves // nr] == left_dist[:, None] - 1).sum(1)
        self.right_pred = (right_dist[right_moves] == right_dist[:, None] - 1).sum(1)
        #: fault-free ``{level: node count}`` from any source, as an array
        self.hist = np.convolve(np.bincount(left_dist), np.bincount(right_dist))

    def level(self, ranks: np.ndarray) -> np.ndarray:
        """Fault-free distance of ``ranks`` from the identity."""
        a, b = np.divmod(ranks, self.codec.right.num_nodes)
        return self.left_dist[a] + self.right_dist[b]

    def source_stats(
        self, source: int, forbidden: np.ndarray | None = None
    ) -> tuple[int, int]:
        """``(eccentricity, reached)`` of the BFS from ``source`` that never
        enters ``forbidden`` (which must not hold ``source``)."""
        codec = self.codec
        num_nodes = codec.num_nodes
        hist = self.hist
        if forbidden is None or not len(forbidden):
            return len(hist) - 1, num_nodes
        forbidden = np.asarray(forbidden, dtype=np.int64)
        inverse = codec.inverse_block(np.full(len(forbidden), source, dtype=np.int64))
        blocked = np.unique(codec.multiply_block(inverse, forbidden))
        state = np.zeros(num_nodes, dtype=np.uint8)
        state[blocked] = _BLOCKED
        affected = self._affected(blocked, state)

        bad_counts = np.bincount(self.level(blocked), minlength=len(hist))
        bad_counts += np.bincount(self.level(affected), minlength=len(hist))
        # the farthest level that keeps a survivor with its fault-free distance
        ecc = int(np.flatnonzero(hist > bad_counts)[-1])
        if not affected.size:
            return ecc, num_nodes - len(blocked)
        settled, farthest = self._settle(affected, state)
        return max(ecc, farthest), num_nodes - len(blocked) - len(affected) + settled

    def _affected(self, blocked: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Survivors whose distance the blocked ranks change, marked
        ``_AFFECTED`` in ``state``; one pass per ``D0`` level."""
        nr = self.codec.right.num_nodes
        blocked_level = self.level(blocked)
        order = np.argsort(blocked_level, kind="stable")
        blocked, blocked_level = blocked[order], blocked_level[order]
        levels, starts = np.unique(blocked_level, return_index=True)
        ends = np.append(starts[1:], len(blocked))
        spans = {int(d): (int(lo), int(hi)) for d, lo, hi in zip(levels, starts, ends)}
        parts: list[np.ndarray] = []
        bad = blocked[:0]  # blocked or affected at level ell - 1
        ell = int(levels[0])
        while True:
            if not bad.size:
                # nothing bad below: jump to the next blocked level
                later = levels[levels >= ell]
                if not later.size:
                    break
                ell = int(later[0])
                lo, hi = spans[ell]
                bad, ell = blocked[lo:hi], ell + 1
                continue
            around = self.codec.neighbors_block(bad).ravel()
            up = around[(self.level(around) == ell) & (state[around] == _CLEAN)]
            # each bad neighbour one level down lists a candidate once
            cand, bad_below = np.unique(up, return_counts=True)
            a, b = np.divmod(cand, nr)
            hit = cand[bad_below == self.left_pred[a] + self.right_pred[b]]
            state[hit] = _AFFECTED
            parts.append(hit)
            lo, hi = spans.get(ell, (0, 0))
            bad = np.concatenate((blocked[lo:hi], hit))
            ell += 1
        return np.concatenate(parts) if parts else blocked[:0]

    def _settle(self, affected: np.ndarray, state: np.ndarray) -> tuple[int, int]:
        """``(settled, farthest)``: how many affected ranks the source still
        reaches, and the largest distance among them."""
        rows = self.codec.neighbors_block(affected)
        never = np.iinfo(np.int64).max
        seed = np.where(state[rows] == _CLEAN, self.level(rows) + 1, never).min(1)
        order = np.argsort(seed, kind="stable")
        seeds, seed_keys = affected[order], seed[order]
        seeds_end = int(np.searchsorted(seed_keys, never))
        next_seed = settled = farthest = dist = 0
        frontier = affected[:0]
        while True:
            if not frontier.size:
                if next_seed >= seeds_end:
                    break
                dist = int(seed_keys[next_seed])
            hi = int(np.searchsorted(seed_keys, dist, side="right"))
            frontier = np.concatenate((frontier, seeds[next_seed:hi]))
            next_seed = hi
            frontier = np.unique(frontier[state[frontier] == _AFFECTED])
            if not frontier.size:
                continue
            state[frontier] = _SETTLED
            settled += frontier.size
            farthest = dist
            around = self.codec.neighbors_block(frontier).ravel()
            frontier = around[state[around] == _AFFECTED]
            dist += 1
        return settled, farthest
