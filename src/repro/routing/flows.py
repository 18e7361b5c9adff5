"""Menger families by unit augmentations on the implicit vertex-split residual.

Used as the exact substrate for the "4 disjoint paths in ``B_n`` [4]" and
node-to-set families that Theorem 5's construction consumes as black boxes,
as the last-resort fallback for the full ``m + 4`` family, and for the
exact connectivity computations behind Corollary 1.

The solvers work on ranks: sources, target and blocked vertices come in
as ranks of the topology's codec (an enumeration of ``nodes()`` when none
is registered) and paths go out as rank lists, so a caller that already
holds ranks converts nothing.  :func:`vertex_disjoint_paths` is the label
form, for callers that hold labels: it ranks its input once
(:func:`rank_labels`) and unranks the family once.

The model is the textbook node-splitting reduction: every vertex ``v``
becomes a unit arc ``v⁻ → v⁺``, every undirected edge ``{u, v}`` the unit
arcs ``u⁺ → v⁻`` and ``v⁺ → u⁻``, and an integral flow decomposes into
internally vertex-disjoint paths.  None of that network is built.  Each
adjacency row is read once per topology from the codec's
``neighbors_block`` (or its CSR) and sorted, cached on the instance.  Per
call the flow is only two flat arrays over the ranks:

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
An exit half's *level* is the number of exit halves before it on its BFS
path (the starts are level 0), and the *hit level* is the level of the
exit half whose move enters the target.
A call keeps one BFS ``parent`` list over the residual states.  The entry
halves of closed vertices (blocked ones and the sources) read as reached
in it for the whole call, so no move enters them; every other state reads
as unseen before each pass, and each pass returns the states it touched
to unseen when it ends (:func:`_reset`), so a pass costs what it reads,
not the number of ranks.  A node-to-set BFS starts from every
source not yet served, which stands in for a super-source.  Families are
bounded by the minimum degree, so an s–t family takes at most ``cutoff``
augmentations and a node-to-set family ``len(sources)``.  Paths come out
by walking the flow back from the target's feeding neighbours along
``pred``, then :func:`loop_erase`.

Each BFS reads little more than the shortest augmenting paths.  With
``to_target`` the fault-free distance from every rank to the target
(:func:`distances_to`), an exit half ``x⁺`` reached at level ``ℓ`` is
queued only while ``ℓ + to_target[x] − 1 ≤ U``; the test sits at the
exit half that would be queued (``w⁺``, or ``pred[w]⁺`` on a
cancellation), the entry half in front of it stays unmarked, and the
smallest ``ℓ + to_target[x] − 1`` left out is recorded.  The first
augmentation starts ``U`` at ``min(to_target[s]) − 1`` over the free
starts, each later one at the previous hit level.  A pass that misses
the target reruns with ``U`` raised to the smallest value it left out,
until the passes that missed have queued a quarter as many states as
there are ranks (``_RERUN_SHARE``); then one last pass keeps every state
that can reach the target, so a search that would rise by many small
steps (an infeasible node-to-set, a cut far from the target) costs at
most a few unpruned passes.  Only a pass that left nothing out proves
max flow, and a flow that fills every open neighbour of the target needs
no pass to prove it (:func:`_inflow_cap`).

Why the family is the unpruned BFS's (``L`` is the hit level of the
unpruned BFS; a *shortest* state is one on a shortest augmenting path):

* A state's residual distance to the target never falls from one
  augmentation to the next when every augmentation is shortest
  (Edmonds–Karp's monotonicity lemma).  At zero flow it is the distance
  around the blocked vertices, which is at least the fault-free one, so
  ``to_target[x] − 1`` is a lower bound, in exit levels, on the distance
  from ``x⁺`` at every augmentation.  The searches never enter the
  (implicit) super-source again; leaving out arcs only lengthens
  distances, so the bound still holds.  Hit levels therefore never fall,
  and no start value of ``U`` overshoots the next hit level.
* Pruning only removes states, so it never lowers a level.  An exit half
  next to the target has ``to_target = 1`` and is queued only at a level
  ``ℓ ≤ U``; while ``U < L`` no pass reaches the target.
* Once ``U ≥ L``, every shortest state has ``ℓ + to_target − 1 ≤ L`` and
  keeps its level.  A state that moves to a shortest state at the next
  level is itself shortest, so every candidate parent is kept, and no
  other state can claim a shortest one first (it would have to sit at a
  lower unpruned level).  By induction over the levels the shortest
  states are queued in the unpruned order with the unpruned parents, so
  the hit, its path and the family are the unpruned BFS's.

Beside the solver sits :func:`pruned_shortest_path`, the shortest-path
search Theorem 5's butterfly segments use: a level search over the same
sorted rows that keeps the numpy kernels' tie rule and drops every node
that a fault-free distance bound shows is off every shortest path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from repro.errors import InvalidParameterError, RoutingError
from repro.routing.base import loop_erase
from repro.topologies.base import Topology

if TYPE_CHECKING:  # fastgraph sits above routing: imported where it is used
    from repro.fastgraph.codecs import NodeCodec

__all__ = [
    "distances_to",
    "pruned_shortest_path",
    "rank_labels",
    "vertex_disjoint_paths",
    "vertex_disjoint_ranks",
    "node_to_set_disjoint_paths",
]

#: instance attribute caching ``(codec, adjacency)`` per topology
_ATTR = "_menger_ranks"
#: instance attribute caching ``(identity distances, inverse ranks)``
_DIST_ATTR = "_menger_distances"
#: instance attribute caching every target's distance row, on small topologies
_TABLE_ATTR = "_menger_distance_table"
#: topologies of at most this many ranks fill one all-targets distance table
#: on first use; larger ones compute one row per call
_TABLE_RANKS = 256
#: ranks per ``neighbors_block`` call while the adjacency is built
_BLOCK = 1 << 16
#: ``parent`` entry of a residual state the BFS has not reached
_UNSEEN = -2
#: ``parent`` entry of a closed vertex's entry half, which no move enters
_CLOSED = -3
#: distance of a rank that cannot reach the target: no bound keeps it (a
#: sum of two stays far inside int64)
_FAR = 1 << 40
#: the bound of an unpruned pass, which keeps every rank that reaches the target
_UNBOUNDED = _FAR - 1
#: an augmentation's bounded passes stop once those that missed the target
#: have queued ``1 / _RERUN_SHARE`` as many states as there are ranks
_RERUN_SHARE = 4


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


def _far_if_unreached(dist: np.ndarray) -> np.ndarray:
    """A BFS distance array as ``int64``, with ``_FAR`` for its ``-1``s."""
    out = dist.astype(np.int64)
    out[dist < 0] = _FAR
    return out


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
        tables = (_far_if_unreached(dist), inverse)
        setattr(topology, _DIST_ATTR, tables)
    return tables


def _distance_array(topology: Topology, target: Hashable) -> np.ndarray:
    """:func:`distances_to` as an ``int64`` array."""
    from repro.fastgraph.codecs import ProductCodec

    codec, _ = _ranked(topology)
    factors = getattr(topology, "factors", None)
    if isinstance(codec, ProductCodec) and factors is not None:
        (left, right), (a, b) = factors(), target
        summed = np.add.outer(_distance_array(left, a), _distance_array(right, b))
        return np.minimum(summed, _FAR, out=summed).ravel()
    if codec.supports_group_ops():
        d0, inverse = _distance_tables(topology)
        return d0[codec.multiply_block(inverse, np.int64(codec.rank(target)))]
    from repro.fastgraph.backend import get_fastgraph

    return _far_if_unreached(get_fastgraph(topology).distances_array(target))


def _distances(topology: Topology, target: int) -> list[int]:
    """:func:`distances_to` by the target's rank.  A topology of at most
    ``_TABLE_RANKS`` ranks answers from one all-targets table, filled on
    first use; the rows are shared, so callers only read them."""
    codec, _ = _ranked(topology)
    if codec.num_nodes > _TABLE_RANKS:
        return _distance_array(topology, codec.unrank(target)).tolist()
    table = topology.__dict__.get(_TABLE_ATTR)
    if table is None:
        table = [
            _distance_array(topology, codec.unrank(t)).tolist()
            for t in range(codec.num_nodes)
        ]
        setattr(topology, _TABLE_ATTR, table)
    return table[target]


def distances_to(topology: Topology, target: Hashable) -> list[int]:
    """The fault-free distance from every rank to ``target``, by rank; a
    rank that cannot reach ``target`` reads ``_FAR``, which no search
    bound admits.

    * A Cartesian product ranked pair by pair (:meth:`factors` and a
      ``ProductCodec``, e.g. ``HB(m, n) = H_m × B_n``) adds its factors'
      distances, as distances add up factor by factor.
    * A Cayley graph of its codec's group (edges ``x ~ x·g``,
      :meth:`~repro.fastgraph.codecs.NodeCodec.supports_group_ops`) has
      ``dist(x, t) = D0[x⁻¹·t]`` with ``D0`` the distances from the
      identity: one ``multiply_block`` per target.
    * Any other topology takes one fastgraph BFS from ``target``.

    On a topology of at most ``_TABLE_RANKS`` (256) ranks every target's
    row is computed once and the list returned is shared: read it only.
    """
    return _distances(topology, _ranked(topology)[0].rank(target))


def rank_labels(topology: Topology, labels: Iterable[Hashable]) -> dict[Hashable, int]:
    """Each distinct label of ``labels`` mapped to its rank.

    A label that is not a node gets a rank of its own past the last one,
    so equal labels keep equal ranks and the rank-level solvers read it
    as missing (an endpoint) or ignore it (a blocked vertex), as the label
    API always has.
    """
    from repro.fastgraph.backend import get_fastgraph

    codec = get_fastgraph(topology).codec
    has_node, rank = topology.has_node, codec.rank
    ranks: dict[Hashable, int] = {}
    for x in labels:
        if x not in ranks:
            ranks[x] = rank(x) if has_node(x) else codec.num_nodes + len(ranks)
    return ranks


def _parent(num_nodes: int, closed: Iterable[int]) -> list[int]:
    """A call's ``parent`` list over residual states.

    Every state is ``_UNSEEN`` except the entry halves of the ``closed``
    ranks (blocked vertices and sources), which read as already reached,
    so no move ever enters them.  A rank outside ``range(num_nodes)``
    names no vertex and closes nothing.
    """
    parent = [_UNSEEN] * (2 * num_nodes)
    for r in closed:
        if 0 <= r < num_nodes:
            parent[2 * r] = _CLOSED
    return parent


def pruned_shortest_path(
    topology: Topology,
    source: int,
    target: int,
    *,
    blocked: Iterable[int] = (),
    to_target: list[int] | None = None,
) -> list[int] | None:
    """The numpy kernels' shortest ``source → target`` path around
    ``blocked``, as ranks (``None`` when there is none), by a level search
    that reads little more than the shortest paths themselves.

    ``to_target`` is :func:`distances_to` ``(topology, target)``, computed
    when not given.  The search walks levels over the rank-sorted rows of
    :func:`_ranked`, and:

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
    _, adj = _ranked(topology)
    n = len(adj)
    if not (0 <= source < n and 0 <= target < n):
        raise RoutingError("endpoint missing from graph")
    closed = set(blocked)
    if source in closed or target in closed:
        return None
    if source == target:
        return [source]
    if to_target is None:
        to_target = _distances(topology, target)
    # a node's parent sits at its entry half 2·rank, which its rows list
    parent = _parent(n, closed)
    parent[2 * source] = -1
    bound = to_target[source]
    touched: list[int] = []
    while True:
        frontier = [source]
        level = 0
        dropped = _FAR  # the smallest level + distance left out
        while frontier:
            level += 1
            reached = []
            for v in frontier:
                for x in adj[v]:
                    if parent[x] != _UNSEEN:
                        continue
                    over = level + to_target[x >> 1]
                    if over > bound:
                        if over < dropped:
                            dropped = over
                        continue
                    parent[x] = v
                    if x == 2 * target:
                        ranks = [target]
                        while ranks[-1] != source:
                            ranks.append(parent[2 * ranks[-1]])
                        ranks.reverse()
                        return ranks
                    reached.append(x >> 1)
            reached.sort()
            touched += reached
            frontier = reached
        if dropped == _FAR:
            return None
        for r in touched:
            parent[2 * r] = _UNSEEN
        touched.clear()
        bound = dropped


def _inflow_cap(
    adj: list[list[int]], target: int, parent: list[int], starts: list[int]
) -> int:
    """How many units can enter ``target``: its neighbours that are not
    blocked (a source is closed in ``parent`` but still leaves).  A flow
    of that value is maximal, with no search to prove it."""
    return sum(1 for x in adj[target] if parent[x] != _CLOSED or x >> 1 in starts)


def _reset(parent: list[int], queue: list[int]) -> None:
    """Return the states one pass touched to ``_UNSEEN``: the exit halves
    it queued and the entry half each of them was reached through, the
    only entry halves a pass marks."""
    for state in queue:
        entry = parent[state]
        if entry >= 0:  # the starts' parent is -1
            parent[entry] = _UNSEEN
        parent[state] = _UNSEEN


def _augment(
    adj: list[list[int]],
    starts: Iterable[int],
    target: int,
    parent: list[int],
    pred: list[int],
    into_target: bytearray,
    to_target: list[int],
    bound: int,
) -> tuple[int, int] | None:
    """Push one unit from any of ``starts`` to ``target`` along a shortest
    residual path (one BFS from all of them at once); returns the start it
    used and the hit level, or ``None`` at max flow.

    States are ``2·rank`` (entry half) and ``2·rank + 1`` (exit half);
    ``parent`` is the call's list (:func:`_parent`) and maps each state a
    pass reached to the state it came from; every pass hands it back with
    only the closed entry halves set (:func:`_reset`).  Every move flips
    halves, so entry and exit levels alternate, and an entry half has
    exactly one move out.  The queue therefore holds exit halves only: an
    entry half's move is taken the moment the entry is reached, which
    keeps the order in which exit halves are reached, their parents and
    the hit.  An entry half whose move ends at an exit half already
    reached is left unmarked: it leads nowhere new and no path runs
    through it, so a pass marks only the entry halves of the exit halves
    it queues.

    ``bound`` is the ``U`` of the module docstring: an exit half ``y⁺``
    reached from a state at ``level`` sits at ``level + 1`` and is queued
    only while ``to_target[y] ≤ U − level``.
    """
    entry_target = 2 * target
    budget, spent = len(adj) // _RERUN_SHARE, 0
    while True:
        queue = []
        for s in starts:
            parent[2 * s + 1] = -1
            queue.append(2 * s + 1)
        append = queue.append
        dropped = _FAR  # the smallest bound that keeps a state left out
        level, level_end, limit = 0, len(queue), bound
        for i, state in enumerate(queue):  # the list grows while it is walked
            if i == level_end:
                level += 1
                level_end = len(queue)
                limit = bound - level
            v = state >> 1
            for x in adj[v]:  # x = 2·w, the entry half of neighbour w
                if x == entry_target:
                    if not into_target[v]:
                        used = _apply(parent, state, target, pred, into_target)
                        _reset(parent, queue)
                        return used, level
                elif parent[x] == _UNSEEN:
                    p = pred[x >> 1]
                    if p == v:
                        continue  # v already feeds w
                    # w⁻ moves on to w⁺ when w is free, else back to pred[w]⁺
                    y = x >> 1 if p < 0 else p
                    if parent[2 * y + 1] != _UNSEEN:
                        continue
                    if to_target[y] > limit:
                        if level + to_target[y] < dropped:
                            dropped = level + to_target[y]
                    else:
                        parent[x] = state
                        parent[2 * y + 1] = x
                        append(2 * y + 1)
            p = pred[v]
            # v carries flow: back to v⁻, whose move is back to pred[v]⁺
            if p >= 0 and parent[state - 1] == _UNSEEN and parent[2 * p + 1] == _UNSEEN:
                if to_target[p] > limit:
                    if level + to_target[p] < dropped:
                        dropped = level + to_target[p]
                else:
                    parent[state - 1] = state
                    parent[2 * p + 1] = state - 1
                    append(2 * p + 1)
        _reset(parent, queue)
        if dropped == _FAR:
            return None
        spent += len(queue)
        bound = dropped if spent < budget else _UNBOUNDED


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


def vertex_disjoint_ranks(
    topology: Topology,
    source: int,
    target: int,
    *,
    k: int | None = None,
    blocked: Iterable[int] = (),
    cutoff: int | None = None,
    to_target: list[int] | None = None,
) -> list[list[int]]:
    """A maximum family of internally disjoint ``source → target`` paths,
    on ranks.

    ``k`` truncates the family (and raises :class:`RoutingError` when the
    graph cannot supply ``k`` paths).  ``blocked`` vertices are removed
    first (endpoints may not be blocked).  ``cutoff`` stops augmenting once
    that many paths are found — disjoint-path families are bounded by the
    minimum degree, so a cutoff makes large-instance witnesses cheap
    (defaults to ``k``, or to ``min(deg(source), deg(target))`` otherwise,
    both of which are exact bounds rather than approximations); a cutoff
    below ``k`` raises :class:`InvalidParameterError`.  ``to_target`` is
    :func:`distances_to` ``(topology, target)``, computed when not given;
    it prunes the search and changes no path.  Paths are ordered by their
    first hop, in rank (``nodes()``) order.
    """
    if k is not None and cutoff is not None and cutoff < k:
        raise InvalidParameterError(
            f"cutoff {cutoff} is below k = {k}: at most {cutoff} paths would be found"
        )
    blocked = set(blocked)
    if source in blocked or target in blocked:
        raise RoutingError("endpoints may not be blocked")
    if source == target:
        raise RoutingError("disjoint paths require distinct endpoints")
    _, adj = _ranked(topology)
    n = len(adj)
    if not (0 <= source < n and 0 <= target < n):
        raise RoutingError("endpoint missing from graph")
    s, t = source, target
    if cutoff is None:
        cutoff = k if k is not None else min(len(adj[s]), len(adj[t]))
    if to_target is None:
        to_target = _distances(topology, t)
    parent = _parent(n, [*blocked, s])
    pred = [-1] * n
    into_target = bytearray(n)
    bound = to_target[s] - 1
    for _ in range(min(cutoff, _inflow_cap(adj, t, parent, [s]))):
        hit = _augment(adj, (s,), t, parent, pred, into_target, to_target, bound)
        if hit is None:
            break
        bound = hit[1]
    # every path leaves the source, so order them by their first hop
    paths = sorted(_flow_paths(adj, pred, into_target, t), key=lambda p: p[1])
    if k is not None:
        if len(paths) < k:
            raise RoutingError(
                f"requested {k} disjoint paths, graph supports only {len(paths)}"
            )
        paths = paths[:k]
    return paths


def vertex_disjoint_paths(
    topology: Topology,
    source: Hashable,
    target: Hashable,
    *,
    k: int | None = None,
    blocked: Iterable[Hashable] = (),
    cutoff: int | None = None,
    to_target: list[int] | None = None,
) -> list[list[Hashable]]:
    """:func:`vertex_disjoint_ranks` on labels: the endpoints and
    ``blocked`` are ranked once (a blocked label that is not a node is
    ignored, an endpoint that is not one raises :class:`RoutingError`)
    and the family is unranked once."""
    blocked = list(blocked)
    ranks = rank_labels(topology, [source, target, *blocked])
    family = vertex_disjoint_ranks(
        topology,
        ranks[source],
        ranks[target],
        k=k,
        blocked=[ranks[x] for x in blocked],
        cutoff=cutoff,
        to_target=to_target,
    )
    unrank = _ranked(topology)[0].unrank
    return [[unrank(r) for r in path] for path in family]


def node_to_set_disjoint_paths(
    topology: Topology,
    sources: Sequence[int],
    target: int,
    *,
    blocked: Iterable[int] = (),
    to_target: list[int] | None = None,
) -> list[list[int]]:
    """One path per source rank to ``target``, pairwise sharing only
    ``target``, as rank lists in the order of ``sources``.

    This is the node-to-set disjoint path problem (cf. Latifi, Ko &
    Srimani for hypercubes); Theorem 5's tails need exactly this.  A source
    equal to ``target`` gets the trivial path ``[target]``.  Sources must be
    distinct, and no path passes through another source.  Raises
    :class:`RoutingError` if no such family exists under ``blocked``.
    ``to_target`` is as in :func:`vertex_disjoint_ranks`.
    """
    if len(set(sources)) != len(sources):
        raise RoutingError("sources must be distinct")
    blocked = set(blocked)
    if target in blocked or any(s in blocked for s in sources):
        raise RoutingError("endpoints may not be blocked")
    starts = [s for s in sources if s != target]
    paths: dict[int, list[int]] = {target: [target]}
    if starts:
        _, adj = _ranked(topology)
        n = len(adj)
        if not (0 <= target < n and all(0 <= s < n for s in starts)):
            raise RoutingError("endpoint missing from graph")
        if to_target is None:
            to_target = _distances(topology, target)
        parent = _parent(n, [*blocked, *starts])
        pred = [-1] * n
        into_target = bytearray(n)
        free = list(starts)
        bound = min(to_target[s] for s in starts) - 1
        cap = _inflow_cap(adj, target, parent, starts)
        for served in range(len(starts)):
            hit = None
            if served < cap:
                hit = _augment(adj, free, target, parent, pred, into_target, to_target, bound)
            if hit is None:
                raise RoutingError(
                    f"only {served} of {len(starts)} node-to-set paths exist"
                )
            used, bound = hit
            free.remove(used)
        for ranks in _flow_paths(adj, pred, into_target, target):
            paths[ranks[0]] = ranks
    return [paths[s] for s in sources]
