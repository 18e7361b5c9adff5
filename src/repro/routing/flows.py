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
back to ``v⁻`` when ``v`` carries flow.  Every move flips halves and an
entry half has exactly one move out, so the BFS queue holds exit halves
only and takes an entry's move the moment the entry is reached; the
order of the queue, and so every parent and path, is the two-half BFS's.
The BFS ``parent`` list starts as a copy of a per-call template in which
the entry halves of closed vertices (blocked ones and the sources) read
as reached, so no move enters them.  A node-to-set BFS starts from every
source not yet served, which stands in for a super-source.  Families are
bounded by the minimum degree, so an s–t family takes at most ``cutoff``
BFS passes and a node-to-set family ``len(sources)``.  Paths come out by
walking the flow back from the target's feeding neighbours along
``pred``, then :func:`loop_erase`.

Beside the solver sits :func:`pruned_shortest_path`, the shortest-path
search Theorem 5's butterfly segments use: a level search over the same
sorted rows that keeps the numpy kernels' tie rule and drops every node
that a fault-free distance bound shows is off every shortest path.
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
    "distances_to",
    "pruned_shortest_path",
    "vertex_disjoint_paths",
    "node_to_set_disjoint_paths",
]

#: instance attribute caching ``(codec, adjacency)`` per topology
_ATTR = "_menger_ranks"
#: instance attribute caching ``(identity distances, inverse ranks)``
_DIST_ATTR = "_menger_distances"
#: ranks per ``neighbors_block`` call while the adjacency is built
_BLOCK = 1 << 16
#: ``parent`` entry of a residual state the BFS has not reached
_UNSEEN = -2
#: ``parent`` entry of a closed vertex's entry half, which no move enters
_CLOSED = -3


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


def _distance_tables(topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """The identity-rooted distance array and the inverse of every rank,
    built once per topology (one BFS) and cached on the instance."""
    tables = topology.__dict__.get(_DIST_ATTR)
    if tables is None:
        from repro.fastgraph.backend import get_fastgraph

        codec, _ = _ranked(topology)
        inverse = codec.inverse_block(np.arange(codec.num_nodes, dtype=np.int64))
        identity = int(codec.multiply_block(inverse[:1], np.zeros(1, dtype=np.int64))[0])
        dist = get_fastgraph(topology).distances_array(codec.unrank(identity))
        tables = (dist, inverse)
        setattr(topology, _DIST_ATTR, tables)
    return tables


def distances_to(topology: Topology, target: Hashable) -> list[int]:
    """The fault-free distance from every rank to ``target``, by rank.

    ``topology`` must be a Cayley graph on its codec's group (edges
    ``x ~ x·g``, :meth:`~repro.fastgraph.codecs.NodeCodec.supports_group_ops`),
    so ``dist(x, t) = D0[x⁻¹·t]`` with ``D0`` the distances from the
    identity: one ``multiply_block`` per target.
    """
    codec, _ = _ranked(topology)
    d0, inverse = _distance_tables(topology)
    return d0[codec.multiply_block(inverse, np.int64(codec.rank(target)))].tolist()


def pruned_shortest_path(
    topology: Topology,
    source: Hashable,
    target: Hashable,
    *,
    blocked: Iterable[Hashable] = (),
    to_target: list[int] | None = None,
) -> list[Hashable] | None:
    """The numpy kernels' shortest ``source → target`` path around
    ``blocked`` (``None`` when there is none), by a level search that reads
    little more than the shortest paths themselves.

    ``to_target`` is :func:`distances_to` ``(topology, target)``, computed
    when not given; the topology must be a Cayley graph as there.  The
    search walks levels over the rank-sorted rows of :func:`_ranked`, and:

    * keeps each frontier in ascending rank order, so a node's parent is
      its lowest-rank neighbour one level up: the kernels' tie rule;
    * drops every node ``x`` reached at a level ``ℓ`` with
      ``ℓ + dist(x, target) > U``, where ``dist`` is fault-free and ``U``
      starts at ``dist(source, target)``.  When ``target`` is not reached,
      ``U`` rises to the smallest dropped value and the search reruns;
      only a search that dropped nothing proves ``target`` unreachable.

    The path is the kernels'.  Once ``U`` is at least the masked distance
    ``d``, every node on a shortest masked path survives (``ℓ + dist ≤ d``),
    so each one is reached at its masked level, and so is each of its
    neighbours one level up, which lie on such paths too.  A node's
    candidate parents are therefore exactly the kernels' candidates, and
    a dropped node is never one of them.
    """
    if not (topology.has_node(source) and topology.has_node(target)):
        raise RoutingError("endpoint missing from graph")
    codec, adj = _ranked(topology)
    s, t = codec.rank(source), codec.rank(target)
    # a node's parent sits at its entry half 2·rank, which its rows list
    template = _template(topology, codec, blocked, ())
    if template[2 * s] != _UNSEEN or template[2 * t] != _UNSEEN:
        return None
    if s == t:
        return [source]
    if to_target is None:
        to_target = distances_to(topology, target)
    bound = to_target[s]
    while True:
        parent = template.copy()
        parent[2 * s] = -1
        frontier = [s]
        level = 0
        dropped = None  # the smallest level + distance left out
        while frontier:
            level += 1
            reached = []
            for v in frontier:
                for x in adj[v]:
                    if parent[x] != _UNSEEN:
                        continue
                    over = level + to_target[x >> 1]
                    if over > bound:
                        if dropped is None or over < dropped:
                            dropped = over
                        continue
                    parent[x] = v
                    if x == 2 * t:
                        ranks = [t]
                        while ranks[-1] != s:
                            ranks.append(parent[2 * ranks[-1]])
                        return [codec.unrank(r) for r in reversed(ranks)]
                    reached.append(x >> 1)
            reached.sort()
            frontier = reached
        if dropped is None:
            return None
        bound = dropped


def _template(
    topology: Topology,
    codec: NodeCodec,
    blocked: Iterable[Hashable],
    sources: Iterable[int],
) -> list[int]:
    """The ``parent`` list, over residual states, that a search starts from.

    Every state is ``_UNSEEN`` except the entry halves of the closed
    vertices (the ``blocked`` labels that are nodes, and the ``sources``),
    which read as already reached, so no move ever enters them.
    """
    template = [_UNSEEN] * (2 * codec.num_nodes)
    for x in blocked:
        if topology.has_node(x):
            template[2 * codec.rank(x)] = _CLOSED
    for s in sources:
        template[2 * s] = _CLOSED
    return template


def _augment(
    adj: list[list[int]],
    starts: Iterable[int],
    target: int,
    template: list[int],
    pred: list[int],
    into_target: bytearray,
) -> int | None:
    """Push one unit from any of ``starts`` to ``target`` along a shortest
    residual path (one BFS from all of them at once); returns the start it
    used, or ``None`` at max flow.

    States are ``2·rank`` (entry half) and ``2·rank + 1`` (exit half);
    ``parent`` starts as a copy of :func:`_template` and maps each state
    the BFS reached to the state it came from.  Every move flips halves, so
    entry and exit levels alternate, and an entry half has exactly one
    move out.  The queue therefore holds exit halves only: an entry half's
    move is taken the moment the entry is reached, which keeps the order
    in which exit halves are reached, their parents and the hit.
    """
    parent = template.copy()
    queue = []
    for s in starts:
        parent[2 * s + 1] = -1
        queue.append(2 * s + 1)
    append = queue.append
    entry_target = 2 * target
    for state in queue:  # the list grows while it is walked: a BFS queue
        v = state >> 1
        for x in adj[v]:  # x = 2·w, the entry half of neighbour w
            if x == entry_target:
                if not into_target[v]:
                    return _apply(parent, state, target, pred, into_target)
            elif parent[x] == _UNSEEN:
                p = pred[x >> 1]
                if p == v:
                    continue  # v already feeds w
                parent[x] = state
                # w⁻ moves on to w⁺ when w is free, else back to pred[w]⁺
                nxt = x + 1 if p < 0 else 2 * p + 1
                if parent[nxt] == _UNSEEN:
                    parent[nxt] = x
                    append(nxt)
        p = pred[v]
        if p >= 0 and parent[state - 1] == _UNSEEN:
            # v carries flow: back to v⁻, whose move is back to pred[v]⁺
            parent[state - 1] = state
            if parent[2 * p + 1] == _UNSEEN:
                parent[2 * p + 1] = state - 1
                append(2 * p + 1)
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
    adj: list[list[int]],
    pred: list[int],
    into_target: bytearray,
    target: int,
) -> list[list[int]]:
    """The flow's paths as rank lists, each from the vertex it leaves (a
    source, whose ``pred`` is ``-1``) to ``target``.

    Each path is walked back along ``pred`` from the neighbour of
    ``target`` that feeds it, so only the flow's own vertices are read.
    """
    paths = []
    for x in adj[target]:
        last = x >> 1
        if into_target[last]:
            ranks = [target, last]
            while pred[ranks[-1]] >= 0:
                ranks.append(pred[ranks[-1]])
            ranks.reverse()
            paths.append(loop_erase(ranks))
    return paths


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
    template = _template(topology, codec, blocked, (s,))
    pred = [-1] * len(adj)
    into_target = bytearray(len(adj))
    for _ in range(cutoff):
        if _augment(adj, (s,), t, template, pred, into_target) is None:
            break
    # every path leaves the source, so order them by their first hop
    unrank = codec.unrank
    paths = [
        [unrank(r) for r in ranks]
        for ranks in sorted(_flow_paths(adj, pred, into_target, t), key=lambda p: p[1])
    ]
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
        template = _template(topology, codec, blocked, starts)
        pred = [-1] * len(adj)
        into_target = bytearray(len(adj))
        free = list(starts)
        while free:
            used = _augment(adj, free, t, template, pred, into_target)
            if used is None:
                raise RoutingError(
                    f"only {len(starts) - len(free)} of {len(starts)} "
                    "node-to-set paths exist"
                )
            free.remove(used)
        unrank = codec.unrank
        for ranks in _flow_paths(adj, pred, into_target, t):
            result_by_source[unrank(ranks[0])] = [unrank(r) for r in ranks]
    return [result_by_source[s] for s in sources]
