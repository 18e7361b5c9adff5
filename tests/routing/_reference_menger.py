"""Reference Menger solver for the tests: the dict-based rank solver.

:mod:`repro.routing.flows` reads its rank adjacency from the topology's
codec and keeps the residual in flat arrays.  This module keeps the solver
it replaced, unchanged: labels in ``nodes()`` order, a label→rank dict, a
list-of-lists adjacency built through ``neighbors()``, and the residual as
dicts and sets.  Same unit augmentations, same FIFO order and early exit,
so both must return identical families.  Both solvers take the
``to_target`` distances the production one prunes with; this one ignores
them, as its plain BFS needs none.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.errors import RoutingError
from repro.routing.base import loop_erase
from repro.topologies.base import Topology

#: instance attribute caching ``(labels, rank, adjacency)`` per topology
_ATTR = "_reference_menger_ranks"


def _ranked(
    topology: Topology,
) -> tuple[list[Hashable], dict[Hashable, int], list[list[int]]]:
    """Labels in ``nodes()`` order, their ranks and the rank adjacency.

    Neighbour lists are sorted by rank, as CSR rows are, so BFS ties break
    by ``nodes()`` order rather than by a family's generator order.
    """
    ranked = topology.__dict__.get(_ATTR)
    if ranked is None:
        labels = list(topology.nodes())
        rank = {v: i for i, v in enumerate(labels)}
        adj = [sorted(rank[w] for w in topology.neighbors(v)) for v in labels]
        ranked = (labels, rank, adj)
        setattr(topology, _ATTR, ranked)
    return ranked


def _augment(
    adj: list[list[int]],
    starts: Iterable[int],
    target: int,
    closed: set[int],
    pred: dict[int, int],
    into_target: set[int],
) -> int | None:
    """Push one unit from any of ``starts`` to ``target`` along a shortest
    residual path (one BFS from all of them at once); returns the start it
    used, or ``None`` at max flow.

    States are ``2·rank`` (entry half) and ``2·rank + 1`` (exit half);
    ``closed`` vertices have no entry half (blocked vertices, sources).
    """
    parent = {2 * s + 1: -1 for s in starts}
    queue = list(parent)
    for state in queue:  # the list grows while it is walked: a BFS queue
        v = state >> 1
        if state & 1:
            for w in adj[v]:
                if w == target:
                    if v not in into_target:
                        return _apply(parent, state, target, pred, into_target)
                elif w not in closed and pred.get(w) != v and 2 * w not in parent:
                    parent[2 * w] = state
                    queue.append(2 * w)
            if v in pred and 2 * v not in parent:
                parent[2 * v] = state
                queue.append(2 * v)
        else:
            p = pred.get(v)
            nxt = 2 * v + 1 if p is None else 2 * p + 1
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    return None


def _apply(
    parent: dict[int, int],
    last: int,
    target: int,
    pred: dict[int, int],
    into_target: set[int],
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
            del pred[x]  # x⁻ → y⁺ cancels the arc y → x
    # new arcs go in only after every cancellation: a vertex the path
    # re-enters loses its old feeder and gains a new one
    for y, x in gained:
        if y == target:
            into_target.add(x)
        else:
            pred[y] = x
    return states[0] >> 1


def _flow_paths(
    labels: list[Hashable],
    pred: dict[int, int],
    firsts: Iterable[int],
    target: int,
) -> list[list[Hashable]]:
    """Follow the flow from each of ``firsts`` to ``target``, in order."""
    succ = {p: v for v, p in pred.items()}
    paths = []
    for first in firsts:
        ranks = [first]
        while ranks[-1] != target:
            ranks.append(succ.get(ranks[-1], target))
        paths.append(loop_erase([labels[r] for r in ranks]))
    return paths


def vertex_disjoint_paths(
    topology: Topology,
    source: Hashable,
    target: Hashable,
    *,
    k: int | None = None,
    blocked: Iterable[Hashable] = (),
    cutoff: int | None = None,
    to_target: object = None,
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
    labels, rank, adj = _ranked(topology)
    if source not in rank or target not in rank:
        raise RoutingError("endpoint missing from graph")
    s, t = rank[source], rank[target]
    if cutoff is None:
        cutoff = k if k is not None else min(len(adj[s]), len(adj[t]))
    closed = {rank[x] for x in blocked if x in rank}
    closed.add(s)
    pred: dict[int, int] = {}
    into_target: set[int] = set()
    for _ in range(cutoff):
        if _augment(adj, (s,), t, closed, pred, into_target) is None:
            break
    # the source feeds several vertices, so its paths start from its hops
    hops = [w for w in adj[s] if pred.get(w) == s or (w == t and s in into_target)]
    paths = [[source, *p] for p in _flow_paths(labels, pred, hops, t)]
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
    to_target: object = None,
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
        labels, rank, adj = _ranked(topology)
        if target not in rank or any(s not in rank for s in real_sources):
            raise RoutingError("endpoint missing from graph")
        t = rank[target]
        starts = [rank[s] for s in real_sources]
        closed = {rank[x] for x in blocked if x in rank}
        closed.update(starts)
        pred: dict[int, int] = {}
        into_target: set[int] = set()
        free = list(starts)
        while free:
            used = _augment(adj, free, t, closed, pred, into_target)
            if used is None:
                raise RoutingError(
                    f"only {len(starts) - len(free)} of {len(starts)} "
                    "node-to-set paths exist"
                )
            free.remove(used)
        for path in _flow_paths(labels, pred, starts, t):
            result_by_source[path[0]] = path
    return [result_by_source[s] for s in sources]
