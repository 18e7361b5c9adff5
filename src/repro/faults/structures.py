"""Structure faults: correlated failure regions lowered to point masks.

PR 2's campaigns inject *independent point* faults, but real deployments
lose correlated structures — a dead router card takes its whole
neighborhood, a rack takes a subcube, a backplane takes a butterfly ring.
*Structure fault diameter of hypercubes* (arXiv 2412.09885) formalises
this regime; this module brings it to every family in the repo.

A :class:`StructureFault` is a failed *center* plus the dependent nodes
that die with it, generated deterministically (no RNG inside a builder —
randomness lives only in placement sampling, which is seeded):

* ``star``    — the closed ball of a given radius around the center
  (radius 1 is the classic failed-router-card model: the center plus its
  closed neighborhood);
* ``path``    — a greedy label-ordered path of failed nodes (a cable run);
* ``subcube`` — a sub-hypercube embedded in the hypercube coordinate of
  ``HB``/``HD``/``H_m`` labels (a rack);
* ``ring``    — the ``⟨g⟩``-coset of the butterfly factor of ``HB``: the
  whole level-ring sharing the anchor's cube word and butterfly word (an
  optical backplane).

Every structure **lowers** to the existing point-fault masks —
:meth:`StructureFault.as_fault_set` / :meth:`as_link_fault_set` — so all
downstream consumers (fault-masked fastgraph BFS on the CSR *and*
implicit substrates, :class:`~repro.core.resilient.ResilientRouter`,
:class:`~repro.simulation.network.NetworkSimulator`,
:func:`~repro.faults.connectivity.connected_under_faults`) work unchanged.

On top of the abstraction:

* :func:`structure_fault_diameter` — max masked eccentricity over
  survivors for a placement.  ``source_sample=None`` examines every
  survivor source (exact); an integer samples that many seeded sources
  plus the (sorted, capped) structure boundary — the implicit backend
  keeps ``HB(9,11)``-class instances in reach because each masked BFS is
  ``O(num_nodes)`` bytes.
* :func:`run_cascade` — a seeded cascading-failure engine: per epoch,
  every healthy boundary node of the failed region independently ignites
  a new structure with probability ``spread``; the trace lowers to a
  :class:`~repro.faults.dynamic.FaultSchedule` the simulator replays
  unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro.errors import InvalidParameterError
from repro.fastgraph.backend import get_fastgraph
from repro.faults.dynamic import FaultEvent, FaultSchedule
from repro.faults.model import FaultSet, LinkFaultSet, canonical_link, sample_nodes
from repro.topologies.base import Topology
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube

__all__ = [
    "StructureFault",
    "star_structure",
    "path_structure",
    "subcube_structure",
    "ring_structure",
    "build_structure",
    "structure_kinds",
    "random_structures",
    "union_fault_set",
    "union_link_fault_set",
    "StructureDiameterResult",
    "structure_fault_diameter",
    "CascadeConfig",
    "CascadeTrace",
    "run_cascade",
]


class StructureFault:
    """One correlated failure region: a center plus its dependent nodes.

    ``nodes`` is a deduplicated tuple in deterministic generation order
    (the center always first), so lowering, JSON emission, and cascade
    replay are independent of ``PYTHONHASHSEED``.
    """

    def __init__(
        self,
        topology: Topology,
        kind: str,
        center: Hashable,
        nodes: Iterable[Hashable],
    ) -> None:
        self.topology = topology
        self.kind = kind
        self.center = center
        ordered: list[Hashable] = []
        seen: set[Hashable] = set()
        for v in nodes:
            topology.validate_node(v)
            if v not in seen:
                seen.add(v)
                ordered.append(v)
        if center not in seen:
            raise InvalidParameterError(
                f"structure center {center!r} is not among its nodes"
            )
        self._nodes = tuple(ordered)
        self._node_set = frozenset(ordered)

    @property
    def nodes(self) -> tuple[Hashable, ...]:
        return self._nodes

    @property
    def node_set(self) -> frozenset:
        return self._node_set

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._nodes)

    def __contains__(self, v: Hashable) -> bool:
        return v in self._node_set

    # -- lowering to the point-fault masks ----------------------------------

    def as_fault_set(self) -> FaultSet:
        """The structure as a plain node-fault mask."""
        return FaultSet(self.topology, self._nodes)

    def as_link_fault_set(self) -> LinkFaultSet:
        """Every link incident to a structure node, as a link-fault mask.

        The link-level lowering models a structure whose *wiring* dies
        while the nodes survive (a pulled cable bundle); membership covers
        both orientations via the canonical link form.
        """
        links = []
        for v in self._nodes:
            for w in self.topology.neighbors(v):
                links.append(canonical_link(v, w))
        return LinkFaultSet(self.topology, links)

    def boundary(self) -> tuple[Hashable, ...]:
        """The healthy frontier: survivors adjacent to the structure,
        sorted for deterministic iteration."""
        frontier: set[Hashable] = set()
        for v in self._nodes:
            for w in self.topology.neighbors(v):
                if w not in self._node_set:
                    frontier.add(w)
        return tuple(sorted(frontier))

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "center": repr(self.center),
            "nodes": len(self._nodes),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureFault):
            return NotImplemented
        return (
            self.topology.name == other.topology.name
            and self.kind == other.kind
            and self._nodes == other._nodes
        )

    def __hash__(self) -> int:
        return hash((self.topology.name, self.kind, self._nodes))

    def __repr__(self) -> str:
        return (
            f"StructureFault({self.topology.name}, {self.kind}, "
            f"center={self.center!r}, {len(self._nodes)} nodes)"
        )


# -- generators --------------------------------------------------------------


def star_structure(
    topology: Topology, center: Hashable, *, radius: int = 1
) -> StructureFault:
    """The closed ball of ``radius`` around ``center`` (BFS discovery order).

    ``radius=1`` is the failed-router-card model from the structure-fault
    literature: the center plus its closed neighborhood.  Balls of growing
    radius at one center are nested, which the monotonicity properties of
    the structure-fault diameter rely on.
    """
    topology.validate_node(center)
    if radius < 0:
        raise InvalidParameterError(f"star radius must be >= 0, got {radius}")
    ordered = [center]
    depth = {center: 0}
    cursor = 0
    while cursor < len(ordered):
        v = ordered[cursor]
        cursor += 1
        if depth[v] == radius:
            continue
        for w in topology.neighbors(v):
            if w not in depth:
                depth[w] = depth[v] + 1
                ordered.append(w)
    return StructureFault(topology, "star", center, ordered)


def path_structure(
    topology: Topology, start: Hashable, *, length: int
) -> StructureFault:
    """A greedy failed path of up to ``length`` nodes from ``start``.

    Each step extends to the smallest-label unvisited neighbor, so the
    walk is fully deterministic and ``path(l)`` is a prefix of
    ``path(l')`` for ``l <= l'`` (nested structures).  A dead end stops
    the walk early.
    """
    topology.validate_node(start)
    if length < 1:
        raise InvalidParameterError(f"path length must be >= 1, got {length}")
    ordered = [start]
    visited = {start}
    current = start
    while len(ordered) < length:
        fresh = sorted(w for w in topology.neighbors(current) if w not in visited)
        if not fresh:
            break
        current = fresh[0]
        visited.add(current)
        ordered.append(current)
    return StructureFault(topology, "path", start, ordered)


def _cube_coordinate(
    topology: Topology,
) -> tuple[int, Callable[[Hashable, int], Hashable]] | None:
    """``(m, embed)`` for families with a hypercube coordinate, else ``None``.

    ``embed(label, mask)`` XORs ``mask`` into the hypercube part of a
    label — the whole label for ``H_m``, the left factor for products
    whose left factor is a hypercube (``HB``, ``HD``).
    """
    if isinstance(topology, Hypercube):
        return topology.m, lambda label, mask: label ^ mask  # type: ignore[operator]
    factors = getattr(topology, "factors", None)
    if callable(factors):
        left, _ = factors()
        if isinstance(left, Hypercube):
            return left.m, lambda label, mask: (label[0] ^ mask, label[1])  # type: ignore[index]
    return None


def _butterfly_coordinate(
    topology: Topology,
) -> tuple[int, Callable[[Hashable, int], Hashable]] | None:
    """``(n, embed)`` for families with a butterfly factor, else ``None``.

    ``embed(label, x)`` replaces the butterfly level ``PI`` with ``x``,
    keeping the cube word and the butterfly word ``CI`` fixed.
    """
    if isinstance(topology, CayleyButterfly):
        return topology.n, lambda label, x: (x, label[1])  # type: ignore[index]
    factors = getattr(topology, "factors", None)
    if callable(factors):
        _, right = factors()
        if isinstance(right, CayleyButterfly):
            return right.n, lambda label, x: (label[0], (x, label[1][1]))  # type: ignore[index]
    return None


def subcube_structure(
    topology: Topology, anchor: Hashable, *, dims: int
) -> StructureFault:
    """A failed sub-hypercube of dimension ``dims`` anchored at ``anchor``.

    The ``2^min(dims, m)`` nodes differ from ``anchor`` only in the first
    ``dims`` hypercube dimensions (the rack model).  Requires a hypercube
    coordinate (``H_m`` itself, or a product with ``H_m`` on the left —
    ``HB``/``HD``); subcubes of growing dimension at one anchor are
    nested.
    """
    topology.validate_node(anchor)
    if dims < 0:
        raise InvalidParameterError(f"subcube dims must be >= 0, got {dims}")
    coordinate = _cube_coordinate(topology)
    if coordinate is None:
        raise InvalidParameterError(
            f"{topology.name} has no hypercube coordinate for subcube faults"
        )
    m, embed = coordinate
    dims = min(dims, m)
    nodes = [embed(anchor, mask) for mask in range(1 << dims)]
    return StructureFault(topology, "subcube", anchor, nodes)


def ring_structure(topology: Topology, anchor: Hashable) -> StructureFault:
    """The failed butterfly level-ring through ``anchor`` (backplane model).

    The ``⟨g⟩``-coset of the butterfly factor: all ``n`` levels sharing
    the anchor's cube word and butterfly word ``CI`` — on ``HB(m, n)``
    exactly the ring the generator ``g`` traverses (``(x, c)·(1, 0) =
    (x+1, c)``).  Only families with a butterfly factor support it.
    """
    topology.validate_node(anchor)
    coordinate = _butterfly_coordinate(topology)
    if coordinate is None:
        raise InvalidParameterError(
            f"{topology.name} has no butterfly coordinate for ring faults"
        )
    n, embed = coordinate
    if isinstance(topology, CayleyButterfly):
        pi = anchor[0]  # type: ignore[index]
    else:
        pi = anchor[1][0]  # type: ignore[index]
    nodes = [embed(anchor, (pi + k) % n) for k in range(n)]
    return StructureFault(topology, "ring", anchor, nodes)


#: structure kinds in canonical order (campaign sweeps iterate this order)
_KINDS = ("star", "path", "subcube", "ring")


def structure_kinds(topology: Topology) -> tuple[str, ...]:
    """The structure kinds applicable to ``topology``, canonical order."""
    kinds = ["star", "path"]
    if _cube_coordinate(topology) is not None:
        kinds.append("subcube")
    if _butterfly_coordinate(topology) is not None:
        kinds.append("ring")
    return tuple(kinds)


def build_structure(
    topology: Topology, kind: str, center: Hashable, *, size: int = 1
) -> StructureFault:
    """Build one structure of ``kind`` at ``center`` with scale ``size``.

    ``size`` means: star radius, path ``2 * size`` nodes, subcube
    dimension (clamped to the cube order); rings have a fixed extent
    (the butterfly order ``n``) and ignore it.
    """
    if kind == "star":
        return star_structure(topology, center, radius=size)
    if kind == "path":
        return path_structure(topology, center, length=2 * size)
    if kind == "subcube":
        return subcube_structure(topology, center, dims=size)
    if kind == "ring":
        return ring_structure(topology, center)
    raise InvalidParameterError(
        f"unknown structure kind {kind!r} (expected one of {_KINDS})"
    )


def random_structures(
    topology: Topology,
    kind: str,
    count: int,
    *,
    size: int = 1,
    rng: random.Random | None = None,
    exclude: Iterable[Hashable] = (),
) -> list[StructureFault]:
    """``count`` structures at distinct seeded-random centers.

    Centers are reservoir-sampled over the node iterator (never touching
    ``exclude``); structures may overlap away from their centers — the
    union lowering handles that.  Without an explicit ``rng`` a fixed-seed
    ``Random(0)`` keeps the default reproducible.
    """
    rng = rng or random.Random(0)
    centers = sample_nodes(topology, count, rng=rng, exclude=exclude)
    return [build_structure(topology, kind, c, size=size) for c in centers]


def union_fault_set(
    topology: Topology, structures: Iterable[StructureFault]
) -> FaultSet:
    """The node-fault mask of several structures applied together."""
    nodes: set[Hashable] = set()
    for s in structures:
        nodes |= s.node_set
    return FaultSet(topology, nodes)


def union_link_fault_set(
    topology: Topology, structures: Iterable[StructureFault]
) -> LinkFaultSet:
    """The link-fault mask of several structures applied together."""
    links: set[tuple[Hashable, Hashable]] = set()
    for s in structures:
        links |= s.as_link_fault_set().links
    return LinkFaultSet(topology, links)


# -- structure-fault diameter ------------------------------------------------


@dataclass(frozen=True)
class StructureDiameterResult:
    """Outcome of one structure-fault diameter computation.

    ``diameter`` is the max masked eccentricity over the examined survivor
    sources — exact when every survivor was examined and the survivors
    stayed connected, otherwise a certified lower bound (``exact`` is
    ``False``; a disconnected placement reports the max *finite*
    eccentricity observed, flagged by ``connected``).
    """

    diameter: int
    connected: bool
    exact: bool
    sources_examined: int
    faulted: int
    survivors: int


def _masked_source_stats(
    topology: Topology,
    source: Hashable,
    blocked: frozenset,
    backend: str | None,
) -> tuple[int, int]:
    """``(eccentricity, reached)`` of one fault-masked BFS, any substrate."""
    fast = get_fastgraph(topology, backend=backend)
    if fast is not None:
        return fast.masked_source_stats(source, blocked=blocked, backend=backend)
    dist = topology.bfs_distances(source, blocked=blocked, backend="python")
    return max(dist.values()), len(dist)


def structure_fault_diameter(
    topology: Topology,
    structures: StructureFault | Iterable[StructureFault],
    *,
    backend: str | None = None,
    source_sample: int | None = None,
    boundary_cap: int = 8,
    seed: int = 0,
) -> StructureDiameterResult:
    """Max masked eccentricity over survivors for one structure placement.

    ``source_sample=None`` examines every survivor source — exact, for
    instances where ``survivors`` BFS runs are affordable.  An integer
    examines the structure boundary (sorted, first ``boundary_cap``
    nodes — eccentric survivors hug the fault) plus that many
    reservoir-sampled extra sources drawn with ``Random(seed)``; the
    result is then a certified lower bound.  ``backend`` pins the BFS
    substrate (``"implicit"`` keeps million-node instances in
    ``O(num_nodes)`` bytes per BFS).
    """
    if isinstance(structures, StructureFault):
        structures = [structures]
    placement = list(structures)
    faults = union_fault_set(topology, placement)
    blocked = faults.nodes
    survivors = topology.num_nodes - len(blocked)
    if survivors <= 1:
        return StructureDiameterResult(
            diameter=0,
            connected=True,
            exact=True,
            sources_examined=0,
            faulted=len(blocked),
            survivors=survivors,
        )
    sources: Iterable[Hashable]
    exact_sources = source_sample is None
    if exact_sources:
        sources = (v for v in topology.nodes() if v not in blocked)
    else:
        frontier: set[Hashable] = set()
        for s in placement:
            frontier.update(s.boundary())
        chosen = sorted(frontier - blocked)[:boundary_cap]
        extra = min(source_sample or 0, survivors - len(chosen))
        if extra > 0:
            chosen += sample_nodes(
                topology,
                extra,
                rng=random.Random(seed),
                exclude=blocked | set(chosen),
            )
        sources = chosen
    diameter = 0
    connected = True
    examined = 0
    for source in sources:
        ecc, reached = _masked_source_stats(topology, source, blocked, backend)
        examined += 1
        diameter = max(diameter, ecc)
        if reached != survivors:
            connected = False
    return StructureDiameterResult(
        diameter=diameter,
        connected=connected,
        exact=exact_sources and connected,
        sources_examined=examined,
        faulted=len(blocked),
        survivors=survivors,
    )


# -- cascading failures ------------------------------------------------------


@dataclass(frozen=True)
class CascadeConfig:
    """Parameters of a seeded structure-failure cascade.

    Each epoch, every healthy boundary node of the failed region
    independently ignites a new ``kind``/``size`` structure with
    probability ``spread`` (boundary iterated in sorted label order, so
    the draw sequence is deterministic).  The cascade stops after
    ``epochs`` epochs, when an epoch ignites nothing, or when more than
    ``max_failed`` nodes are down.
    """

    kind: str = "star"
    size: int = 1
    epochs: int = 3
    spread: float = 0.3
    epoch_time: float = 1.0
    max_failed: int | None = None

    def validate(self) -> None:
        if self.epochs < 0:
            raise InvalidParameterError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.spread <= 1.0:
            raise InvalidParameterError(
                f"spread must be within [0, 1], got {self.spread}"
            )
        if self.epoch_time <= 0:
            raise InvalidParameterError(
                f"epoch_time must be > 0, got {self.epoch_time}"
            )


class CascadeTrace:
    """The epochs of one cascade: which structures ignited when.

    ``epochs[0]`` holds the seed structures; ``epochs[i]`` the structures
    ignited at epoch ``i``.  The trace lowers to the point-fault world at
    any epoch (:meth:`fault_set`) and to a permanent
    :class:`~repro.faults.dynamic.FaultSchedule` (:meth:`to_schedule`)
    that the packet simulator replays unchanged.
    """

    def __init__(
        self,
        topology: Topology,
        config: CascadeConfig,
        epochs: Sequence[Sequence[StructureFault]],
    ) -> None:
        self.topology = topology
        self.config = config
        self.epochs = tuple(tuple(e) for e in epochs)
        newly: list[tuple[Hashable, ...]] = []
        failed: set[Hashable] = set()
        for epoch in self.epochs:
            fresh: list[Hashable] = []
            for s in epoch:
                for v in s.nodes:
                    if v not in failed:
                        failed.add(v)
                        fresh.append(v)
            newly.append(tuple(fresh))
        #: per-epoch newly failed nodes, in deterministic failure order
        self.newly_failed = tuple(newly)

    @property
    def total_failed(self) -> int:
        return sum(len(fresh) for fresh in self.newly_failed)

    def fault_set(self, epoch: int | None = None) -> FaultSet:
        """The cumulative node-fault mask through ``epoch`` (default all)."""
        upto = len(self.epochs) if epoch is None else epoch + 1
        nodes: list[Hashable] = []
        for fresh in self.newly_failed[:upto]:
            nodes.extend(fresh)
        return FaultSet(self.topology, nodes)

    def to_schedule(self) -> FaultSchedule:
        """Permanent fail events at ``epoch * epoch_time`` per fresh node."""
        events = [
            FaultEvent(i * self.config.epoch_time, "fail", "node", v)
            for i, fresh in enumerate(self.newly_failed)
            for v in fresh
        ]
        return FaultSchedule(self.topology, events)

    def to_jsonable(self) -> list[dict]:
        return [
            {
                "epoch": i,
                "structures": [s.to_jsonable() for s in epoch],
                "newly_failed": len(self.newly_failed[i]),
            }
            for i, epoch in enumerate(self.epochs)
        ]

    def __repr__(self) -> str:
        return (
            f"CascadeTrace({self.topology.name}, {len(self.epochs)} epochs, "
            f"{self.total_failed} failed)"
        )


def run_cascade(
    topology: Topology,
    seeds: Iterable[StructureFault],
    config: CascadeConfig,
    *,
    seed: int = 0,
) -> CascadeTrace:
    """Propagate structure failures for ``config.epochs`` epochs (seeded)."""
    config.validate()
    initial = list(seeds)
    if not initial:
        raise InvalidParameterError("a cascade needs at least one seed structure")
    rng = random.Random(seed)
    failed: set[Hashable] = set()
    for s in initial:
        if not isinstance(s, StructureFault):
            raise InvalidParameterError(
                f"cascade seeds must be StructureFault instances, got {type(s).__name__}"
            )
        failed |= s.node_set
    epochs: list[list[StructureFault]] = [initial]
    cap = config.max_failed if config.max_failed is not None else topology.num_nodes
    for _ in range(config.epochs):
        if len(failed) >= cap:
            break
        frontier: set[Hashable] = set()
        for v in failed:
            for w in topology.neighbors(v):
                if w not in failed:
                    frontier.add(w)
        ignited: list[StructureFault] = []
        for v in sorted(frontier):
            if rng.random() < config.spread:
                s = build_structure(topology, config.kind, v, size=config.size)
                if not s.node_set <= failed:
                    ignited.append(s)
                    failed |= s.node_set
        if not ignited:
            break
        epochs.append(ignited)
    return CascadeTrace(topology, config, epochs)
