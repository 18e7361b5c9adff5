"""Menger families by unit augmentations on the implicit vertex-split residual.

Used as the exact substrate for the "4 disjoint paths in ``B_n`` [4]" and
node-to-set families that Theorem 5's construction consumes as black boxes,
as the last-resort fallback for the full ``m + 4`` family, and for the
exact connectivity computations behind Corollary 1.

The model is the textbook node-splitting reduction: every vertex ``v``
becomes a unit arc ``v⁻ → v⁺``, every undirected edge ``{u, v}`` the unit
arcs ``u⁺ → v⁻`` and ``v⁺ → u⁻``, and an integral flow decomposes into
internally vertex-disjoint paths.  None of that network is built.  The
vertices are ranked once per topology by its codec (an enumeration of
``nodes()`` when none is registered), with each adjacency row read from
the codec's ``neighbors_block`` (or its CSR) and sorted, cached on the
instance.  Per call the flow is only two flat arrays over the ranks:

* ``pred`` — for every vertex that carries flow, the vertex feeding it,
  ``-1`` otherwise (the source's successors all point back at the
  source), and
* ``into_target`` — marks the vertices whose arc enters the target (only
  the source and the target carry more than one unit).

Each augmentation is one BFS over the residual those two imply: an entry
half ``v⁻`` moves on to ``v⁺`` when ``v`` is free, and back to
``pred[v]⁺`` (cancelling that arc) when it is not; an exit half ``v⁺``
moves to ``w⁻`` for every neighbour ``w`` it does not already feed, and
back to ``v⁻`` when ``v`` carries flow.  A node-to-set BFS starts from
every source not yet served, which stands in for a super-source.
Families are bounded by the minimum degree, so an s–t family takes at
most ``cutoff`` BFS passes and a node-to-set family ``len(sources)``.
Paths come out by following the flow from the source side to the target,
then :func:`loop_erase`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from repro.errors import RoutingError
from repro.routing.base import loop_erase
from repro.topologies.base import Topology

if TYPE_CHECKING:  # fastgraph sits above routing: imported where it is used
    from repro.fastgraph.codecs import NodeCodec

__all__ = [
    "vertex_disjoint_paths",
    "node_to_set_disjoint_paths",
]

#: instance attribute caching ``(codec, adjacency)`` per topology
_ATTR = "_menger_ranks"
#: ranks per ``neighbors_block`` call while the adjacency is built
_BLOCK = 1 << 16
#: ``parent`` entry of a residual state the BFS has not reached
_UNSEEN = -2


def _ranked(topology: Topology) -> tuple[NodeCodec, list[list[int]]]:
    """The topology's codec and its residual adjacency.

    Row ``v`` lists the entry-half state ``2·w`` of every neighbour ``w``
    of rank ``v``, in rank order.  Rows come from the codec's
    ``neighbors_block`` or, for rank-only codecs, its CSR; both list
    exactly ``neighbors()``.  Sorting them makes BFS ties break by rank
    order (``nodes()`` order for every codec) rather than by a family's
    generator order.
    """
    ranked = topology.__dict__.get(_ATTR)
    if ranked is None:
        from repro.fastgraph.backend import get_fastgraph

        codec = get_fastgraph(topology).codec
        if codec.supports_implicit():
            rows_of = codec.neighbors_block
        else:
            from repro.fastgraph.csr import build_csr

            rows_of = build_csr(topology, codec, use_disk_cache=False).neighbors_block
        # one int object per state, shared by every row that lists it;
        # entry 0 stands for the -1 padding of irregular rows
        states = np.arange(-2, 2 * codec.num_nodes, 2).astype(object)
        adj: list[list[int]] = []
        for lo in range(0, codec.num_nodes, _BLOCK):
            hi = min(lo + _BLOCK, codec.num_nodes)
            block = rows_of(np.arange(lo, hi, dtype=np.int64))
            block.sort(axis=1)
            rows = states[block + 1].tolist()
            if block.size and block[:, 0].min() < 0:
                rows = [row[bisect_left(row, 0) :] for row in rows]
            adj.extend(rows)
        ranked = (codec, adj)
        setattr(topology, _ATTR, ranked)
    return ranked


def _augment(
    adj: list[list[int]],
    starts: Iterable[int],
    target: int,
    closed: bytearray,
    pred: list[int],
    into_target: bytearray,
) -> int | None:
    """Push one unit from any of ``starts`` to ``target`` along a shortest
    residual path (one BFS from all of them at once); returns the start it
    used, or ``None`` at max flow.

    States are ``2·rank`` (entry half) and ``2·rank + 1`` (exit half);
    ``closed`` vertices have no entry half (blocked vertices, sources).
    ``parent`` maps each state the BFS reached to the state it came from.
    """
    parent = [_UNSEEN] * (2 * len(adj))
    queue = []
    for s in starts:
        parent[2 * s + 1] = -1
        queue.append(2 * s + 1)
    append = queue.append
    entry_target = 2 * target
    for state in queue:  # the list grows while it is walked: a BFS queue
        v = state >> 1
        if state & 1:
            for x in adj[v]:  # x = 2·w, the entry half of neighbour w
                if x == entry_target:
                    if not into_target[v]:
                        return _apply(parent, state, target, pred, into_target)
                elif parent[x] == _UNSEEN and not closed[x >> 1] and pred[x >> 1] != v:
                    parent[x] = state
                    append(x)
            if pred[v] >= 0 and parent[state - 1] == _UNSEEN:
                parent[state - 1] = state
                append(state - 1)
        else:
            p = pred[v]
            nxt = state + 1 if p < 0 else 2 * p + 1
            if parent[nxt] == _UNSEEN:
                parent[nxt] = state
                append(nxt)
    return None


def _apply(
    parent: list[int],
    last: int,
    target: int,
    pred: list[int],
    into_target: bytearray,
) -> int:
    """Augment along the BFS tree path ending ``last⁺ → target⁻``."""
    states = [2 * target]
    while last != -1:
        states.append(last)
        last = parent[last]
    states.reverse()
    gained: list[tuple[int, int]] = []
    for a, b in zip(states, states[1:], strict=False):
        x, y = a >> 1, b >> 1
        if x == y:
            continue  # a vertex arc: implied by the edge arcs around it
        if a & 1:
            gained.append((y, x))  # x⁺ → y⁻ now carries flow
        else:
            pred[x] = -1  # x⁻ → y⁺ cancels the arc y → x
    # new arcs go in only after every cancellation: a vertex the path
    # re-enters loses its old feeder and gains a new one
    for y, x in gained:
        if y == target:
            into_target[x] = 1
        else:
            pred[y] = x
    return states[0] >> 1


def _flow_paths(
    codec: NodeCodec,
    pred: list[int],
    firsts: Iterable[int],
    target: int,
) -> list[list[Hashable]]:
    """Follow the flow from each of ``firsts`` to ``target``, in order."""
    succ = [-1] * len(pred)
    for v, p in enumerate(pred):
        if p >= 0:
            succ[p] = v
    unrank = codec.unrank
    paths = []
    for first in firsts:
        ranks = [first]
        while ranks[-1] != target:
            nxt = succ[ranks[-1]]
            ranks.append(target if nxt < 0 else nxt)
        paths.append([unrank(r) for r in loop_erase(ranks)])
    return paths


def _closed(
    topology: Topology, codec: NodeCodec, blocked: Iterable[Hashable]
) -> bytearray:
    """Marks over the ranks of the ``blocked`` labels that are nodes."""
    closed = bytearray(codec.num_nodes)
    for x in blocked:
        if topology.has_node(x):
            closed[codec.rank(x)] = 1
    return closed


def vertex_disjoint_paths(
    topology: Topology,
    source: Hashable,
    target: Hashable,
    *,
    k: int | None = None,
    blocked: Iterable[Hashable] = (),
    cutoff: int | None = None,
) -> list[list[Hashable]]:
    """A maximum family of internally disjoint ``source → target`` paths.

    ``k`` truncates the family (and raises :class:`RoutingError` when the
    graph cannot supply ``k`` paths).  ``blocked`` vertices are removed
    first (endpoints may not be blocked).  ``cutoff`` stops augmenting once
    that many paths are found — disjoint-path families are bounded by the
    minimum degree, so a cutoff makes large-instance witnesses cheap
    (defaults to ``k``, or to ``min(deg(source), deg(target))`` otherwise,
    both of which are exact bounds rather than approximations).  Paths are
    ordered by their first hop, in ``nodes()`` order.
    """
    blocked = set(blocked)
    if source in blocked or target in blocked:
        raise RoutingError("endpoints may not be blocked")
    if source == target:
        raise RoutingError("disjoint paths require distinct endpoints")
    if not (topology.has_node(source) and topology.has_node(target)):
        raise RoutingError("endpoint missing from graph")
    codec, adj = _ranked(topology)
    s, t = codec.rank(source), codec.rank(target)
    if cutoff is None:
        cutoff = k if k is not None else min(len(adj[s]), len(adj[t]))
    closed = _closed(topology, codec, blocked)
    closed[s] = 1
    pred = [-1] * len(adj)
    into_target = bytearray(len(adj))
    for _ in range(cutoff):
        if _augment(adj, (s,), t, closed, pred, into_target) is None:
            break
    # the source feeds several vertices, so its paths start from its hops
    hops = [x >> 1 for x in adj[s]]
    hops = [w for w in hops if pred[w] == s or (w == t and into_target[s])]
    paths = [[source, *p] for p in _flow_paths(codec, pred, hops, t)]
    if k is not None:
        if len(paths) < k:
            raise RoutingError(
                f"requested {k} disjoint paths, graph supports only {len(paths)}"
            )
        paths = paths[:k]
    return paths


def node_to_set_disjoint_paths(
    topology: Topology,
    sources: Sequence[Hashable],
    target: Hashable,
    *,
    blocked: Iterable[Hashable] = (),
) -> list[list[Hashable]]:
    """One path per source to ``target``, pairwise sharing only ``target``.

    This is the node-to-set disjoint path problem (cf. Latifi, Ko &
    Srimani for hypercubes); Theorem 5's tails need exactly this.  A source
    equal to ``target`` gets the trivial path ``[target]``.  Sources must be
    distinct, and no path passes through another source.  Raises
    :class:`RoutingError` if no such family exists under ``blocked``.
    """
    if len(set(sources)) != len(sources):
        raise RoutingError("sources must be distinct")
    blocked = set(blocked)
    if target in blocked or any(s in blocked for s in sources):
        raise RoutingError("endpoints may not be blocked")
    real_sources = [s for s in sources if s != target]
    result_by_source: dict[Hashable, list[Hashable]] = {
        s: [target] for s in sources if s == target
    }
    if real_sources:
        has_node = topology.has_node
        if not (has_node(target) and all(has_node(s) for s in real_sources)):
            raise RoutingError("endpoint missing from graph")
        codec, adj = _ranked(topology)
        t = codec.rank(target)
        starts = [codec.rank(s) for s in real_sources]
        closed = _closed(topology, codec, blocked)
        for start in starts:
            closed[start] = 1
        pred = [-1] * len(adj)
        into_target = bytearray(len(adj))
        free = list(starts)
        while free:
            used = _augment(adj, free, t, closed, pred, into_target)
            if used is None:
                raise RoutingError(
                    f"only {len(starts) - len(free)} of {len(starts)} "
                    "node-to-set paths exist"
                )
            free.remove(used)
        for path in _flow_paths(codec, pred, starts, t):
            result_by_source[path[0]] = path
    return [result_by_source[s] for s in sources]
