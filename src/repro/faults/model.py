"""Node- and link-fault sets and random fault injection.

The paper measures fault tolerance by vertex connectivity: a network with
connectivity ``κ`` stays connected under any set of fewer than ``κ`` node
faults.  :class:`FaultSet` is a small immutable wrapper that validates
fault labels against a topology and supports the common set algebra;
:class:`LinkFaultSet` is its edge-fault sibling (links stored undirected,
queried in either orientation).  Both are hashable so fault configurations
can key caches and deduplicate campaign trials.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Iterator

from repro.errors import InvalidParameterError
from repro.topologies.base import Topology

__all__ = [
    "FaultSet",
    "LinkFaultSet",
    "canonical_link",
    "sample_nodes",
    "random_node_faults",
    "random_link_faults",
]


def canonical_link(u: Hashable, v: Hashable) -> tuple[Hashable, Hashable]:
    """The orientation-free form of an undirected link ``{u, v}``.

    Node labels inside one topology are mutually comparable tuples/ints;
    the ``repr`` fallback keeps the canonicalisation total for exotic
    label types without ordering.
    """
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class FaultSet:
    """An immutable set of faulty nodes of a given topology."""

    def __init__(self, topology: Topology, nodes: Iterable[Hashable] = ()) -> None:
        self.topology = topology
        frozen = frozenset(nodes)
        for v in frozen:
            topology.validate_node(v)
        self._nodes = frozen

    @property
    def nodes(self) -> frozenset:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._nodes)

    def __contains__(self, v: Hashable) -> bool:
        return v in self._nodes

    def __or__(self, other: "FaultSet | Iterable[Hashable]") -> "FaultSet":
        extra = other.nodes if isinstance(other, FaultSet) else other
        return FaultSet(self.topology, self._nodes | frozenset(extra))

    def without(self, nodes: Iterable[Hashable]) -> "FaultSet":
        """A copy with ``nodes`` healed."""
        return FaultSet(self.topology, self._nodes - frozenset(nodes))

    def healthy_neighbors(self, v: Hashable) -> list[Hashable]:
        """Non-faulty neighbors of ``v`` (``v`` itself may be faulty)."""
        return [w for w in self.topology.neighbors(v) if w not in self._nodes]

    def __eq__(self, other: object) -> bool:
        """Equal iff the topologies agree by name and the nodes coincide.

        Name-based topology identity (rather than object identity) lets two
        independently constructed ``HB(2, 3)`` instances produce equal fault
        sets — the useful notion for dict keys and campaign dedup.
        """
        if not isinstance(other, FaultSet):
            return NotImplemented
        return (
            self.topology.name == other.topology.name
            and self._nodes == other._nodes
        )

    def __hash__(self) -> int:
        return hash((self.topology.name, self._nodes))

    def __repr__(self) -> str:
        return f"FaultSet({self.topology.name}, {len(self._nodes)} faults)"


class LinkFaultSet:
    """An immutable set of faulty undirected links of a given topology.

    Links are canonicalised on entry, so membership tests accept either
    orientation: ``(u, v) in lfs`` iff ``(v, u) in lfs``.
    """

    def __init__(
        self,
        topology: Topology,
        links: Iterable[tuple[Hashable, Hashable]] = (),
    ) -> None:
        self.topology = topology
        frozen = frozenset(canonical_link(u, v) for u, v in links)
        for u, v in frozen:
            if not topology.has_edge(u, v):
                raise InvalidParameterError(
                    f"({u!r}, {v!r}) is not an edge of {topology.name}"
                )
        self._links = frozen

    @property
    def links(self) -> frozenset:
        return self._links

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[tuple[Hashable, Hashable]]:
        return iter(self._links)

    def __contains__(self, link: tuple[Hashable, Hashable]) -> bool:
        u, v = link
        return canonical_link(u, v) in self._links

    def blocks(self, u: Hashable, v: Hashable) -> bool:
        """Whether traversing ``u -> v`` (either direction) is faulted."""
        return canonical_link(u, v) in self._links

    def __or__(
        self, other: "LinkFaultSet | Iterable[tuple[Hashable, Hashable]]"
    ) -> "LinkFaultSet":
        extra = other.links if isinstance(other, LinkFaultSet) else other
        return LinkFaultSet(self.topology, self._links | frozenset(
            canonical_link(u, v) for u, v in extra
        ))

    def without(
        self, links: Iterable[tuple[Hashable, Hashable]]
    ) -> "LinkFaultSet":
        """A copy with ``links`` healed."""
        healed = frozenset(canonical_link(u, v) for u, v in links)
        return LinkFaultSet(self.topology, self._links - healed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkFaultSet):
            return NotImplemented
        return (
            self.topology.name == other.topology.name
            and self._links == other._links
        )

    def __hash__(self) -> int:
        return hash((self.topology.name, self._links))

    def __repr__(self) -> str:
        return f"LinkFaultSet({self.topology.name}, {len(self._links)} faults)"


def sample_nodes(
    topology: Topology,
    count: int,
    *,
    rng: random.Random,
    exclude: Iterable[Hashable] = (),
) -> list[Hashable]:
    """``count`` distinct nodes reservoir-sampled over the node iterator.

    The whole node set is never materialised (topologies here can be
    large), and the draw sequence depends only on the iterator order and
    the ``rng`` state — never on ``PYTHONHASHSEED`` — so callers on
    different BFS backends pick identical nodes.  The reservoir order is
    the selection order, not sorted.
    """
    excluded = set(exclude)
    available = topology.num_nodes - len(excluded)
    if count < 0 or count > available:
        raise InvalidParameterError(
            f"cannot sample {count} nodes among {available} eligible nodes"
        )
    reservoir: list[Hashable] = []
    seen = 0
    for v in topology.nodes():
        if v in excluded:
            continue
        seen += 1
        if len(reservoir) < count:
            reservoir.append(v)
        else:
            j = rng.randrange(seen)
            if j < count:
                reservoir[j] = v
    return reservoir


def random_node_faults(
    topology: Topology,
    count: int,
    *,
    rng: random.Random | None = None,
    exclude: Iterable[Hashable] = (),
) -> FaultSet:
    """``count`` distinct random faulty nodes, never touching ``exclude``.

    Sampling delegates to :func:`sample_nodes`.  Without an explicit
    ``rng`` a fixed-seed ``Random(0)`` is used so the default is
    reproducible.
    """
    rng = rng or random.Random(0)
    return FaultSet(topology, sample_nodes(topology, count, rng=rng, exclude=exclude))


def random_link_faults(
    topology: Topology,
    count: int,
    *,
    rng: random.Random | None = None,
    exclude: Iterable[tuple[Hashable, Hashable]] = (),
) -> LinkFaultSet:
    """``count`` distinct random faulty links, never touching ``exclude``.

    Reservoir sampling over the edge iterator, mirroring
    :func:`random_node_faults` (edge streams can be much larger than the
    node set, so materialising them is avoided the same way; the seeded
    default ``Random(0)`` keeps the no-``rng`` path reproducible).
    """
    rng = rng or random.Random(0)
    excluded = {canonical_link(u, v) for u, v in exclude}
    if count < 0:
        raise InvalidParameterError(f"cannot place {count} link faults")
    reservoir: list[tuple[Hashable, Hashable]] = []
    seen = 0
    for u, v in topology.edges():
        link = canonical_link(u, v)
        if link in excluded:
            continue
        seen += 1
        if len(reservoir) < count:
            reservoir.append(link)
        else:
            j = rng.randrange(seen)
            if j < count:
                reservoir[j] = link
    if len(reservoir) < count:
        raise InvalidParameterError(
            f"cannot place {count} link faults among {seen} eligible links"
        )
    return LinkFaultSet(topology, reservoir)
