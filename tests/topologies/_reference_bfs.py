"""Reference BFS for the tests: the queue BFS over labels.

The library answers every BFS question on the fastgraph substrate (CSR or
implicit kernels over codec ranks, an enumeration codec for families
without one).  This module keeps the label BFS it replaced, unchanged: a
FIFO queue over ``neighbors()`` rows, so the frontier stays in discovery
order and each row in generator order.  Distances must agree exactly with
every substrate; paths must have the same length, and may differ in which
tie they pick.  The ``seen``-set edge walk and the dict fill of
:class:`~repro.cayley.graph.DistanceOracle` live here too.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterator

from repro.cayley.group import GeneratorSet, Group
from repro.topologies.base import Topology


def bfs_distances(
    topology: Topology, source: Hashable, blocked: frozenset | set = frozenset()
) -> dict[Hashable, int]:
    """Distances from ``source`` to every node reached around ``blocked``."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in topology.neighbors(u):
            if w not in dist and w not in blocked:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def bfs_shortest_path(
    topology: Topology,
    source: Hashable,
    target: Hashable,
    blocked: frozenset | set = frozenset(),
) -> list[Hashable] | None:
    """A shortest ``source → target`` path around ``blocked``, ties broken
    by discovery order; ``None`` when unreachable."""
    if source == target:
        return [source]
    parent: dict[Hashable, Hashable] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in topology.neighbors(u):
            if w in parent or w in blocked:
                continue
            parent[w] = u
            if w == target:
                path = [w]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


def edges(topology: Topology) -> Iterator[tuple[Hashable, Hashable]]:
    """Each undirected edge once, in ``nodes()`` order, via a ``seen`` set."""
    seen: set[Hashable] = set()
    for u in topology.nodes():
        seen.add(u)
        for v in topology.neighbors(u):
            if v not in seen:
                yield (u, v)


def oracle_fill(
    group: Group, gens: GeneratorSet
) -> tuple[dict[Hashable, int], dict[Hashable, int]]:
    """The dict oracle fill: ``(dist, via)`` from the identity, where
    ``via[w]`` is the index of the generator that first reached ``w``."""
    identity = group.identity()
    dist: dict[Hashable, int] = {identity: 0}
    via: dict[Hashable, int] = {}
    queue: deque[Hashable] = deque([identity])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for i in range(len(gens)):
            w = gens.apply(v, i)
            if w not in dist:
                dist[w] = dv + 1
                via[w] = i
                queue.append(w)
    return dist, via
