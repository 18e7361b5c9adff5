"""Fault-tolerant routing (paper Remark 10) with graceful degradation.

The constructive proof of Theorem 5 "readily suggests an optimal routing
scheme in the presence of the maximal number of allowable faults".
:class:`ResilientRouter` implements that scheme and wraps it into a
runtime suitable for dynamic fault environments.  A route request
escalates through three stages:

1. **disjoint** — Theorem 5's ``m + 4`` internally disjoint paths (cached
   per pair: the family does not depend on the fault set).  Guaranteed to
   contain a fault-free member whenever the *total* number of node plus
   link faults is at most ``m + 3``: internal disjointness means each
   faulty node — and, because the paths also share no edges, each faulty
   link — can kill at most one member.
2. **adaptive** — shortest-path BFS on the faulted graph (node *and* link
   faults respected), for the regime beyond the guarantee where the
   network is degraded but not yet partitioned.
3. **structured failure** — a :class:`DegradedRouteError` carrying a
   :class:`ReachabilityReport`: how much of the healthy network the source
   can still reach, i.e. best-effort partial reachability instead of a
   bare exception.

Adaptive results are cached per ``(pair, fault configuration)`` and the
whole adaptive cache is dropped on any fault event (wire
:meth:`ResilientRouter.on_fault_event` to
:meth:`repro.simulation.network.NetworkSimulator.add_fault_listener`);
the fault-independent disjoint families survive invalidation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable

from repro.core.disjoint_paths import disjoint_paths
from repro.core.hyperbutterfly import HBNode, HyperButterfly
from repro.errors import DisconnectedError, RoutingError

if TYPE_CHECKING:
    from repro.faults.dynamic import FaultEvent

__all__ = [
    "RouteOutcome",
    "ReachabilityReport",
    "DegradedRouteError",
    "ResilientRouter",
]


@dataclass(frozen=True)
class RouteOutcome:
    """A found route plus which escalation stage produced it."""

    path: tuple
    strategy: str  # "disjoint" | "adaptive"

    @property
    def length(self) -> int:
        return len(self.path) - 1


@dataclass(frozen=True)
class ReachabilityReport:
    """Best-effort connectivity summary from one source under faults."""

    source: Hashable
    reachable: int  # healthy nodes reachable from source (incl. itself)
    healthy: int  # all healthy nodes
    node_faults: int
    link_faults: int

    @property
    def fraction(self) -> float:
        return self.reachable / self.healthy if self.healthy else 0.0


class DegradedRouteError(DisconnectedError):
    """No route exists; carries the partial-reachability report."""

    def __init__(self, message: str, report: ReachabilityReport) -> None:
        super().__init__(message)
        self.report = report


def _canonical_link(u: Hashable, v: Hashable) -> tuple[Hashable, Hashable]:
    """Deferred :func:`repro.faults.model.canonical_link` — core sits below
    faults in the layer DAG, so the dependency must not bind at import time
    (reprolint HB401)."""
    from repro.faults.model import canonical_link

    return canonical_link(u, v)


def _normalize_links(links: Iterable) -> frozenset:
    return frozenset(_canonical_link(u, v) for u, v in links)


class ResilientRouter:
    """Disjoint → adaptive → structured-failure routing on ``HB(m, n)``."""

    def __init__(self, hb: HyperButterfly) -> None:
        self.hb = hb
        self._families: dict[tuple[HBNode, HBNode], tuple[tuple, ...]] = {}
        self._adaptive: dict[tuple, tuple | None] = {}
        self._standing_nodes: frozenset = frozenset()
        self._standing_links: frozenset = frozenset()
        self.invalidations = 0

    # -- cache management ----------------------------------------------------

    def invalidate(self) -> None:
        """Drop every fault-dependent cached route."""
        self._adaptive.clear()
        self.invalidations += 1

    def on_fault_event(self, event: FaultEvent) -> None:
        """Fault listener hook for :class:`NetworkSimulator`."""
        self.invalidate()

    # -- standing faults -----------------------------------------------------

    @property
    def standing_node_faults(self) -> frozenset:
        return self._standing_nodes

    @property
    def standing_link_faults(self) -> frozenset:
        return self._standing_links

    def apply_faults(
        self,
        node_faults: Iterable[HBNode] = (),
        link_faults: Iterable[tuple[HBNode, HBNode]] = (),
    ) -> None:
        """Install a whole fault configuration in one call.

        Accepts any node/link iterables — in particular a
        :class:`~repro.faults.model.FaultSet` /
        :class:`~repro.faults.model.LinkFaultSet` or the lowering of a
        :class:`~repro.faults.structures.StructureFault` — replacing any
        previously standing configuration.  The adaptive cache is
        invalidated here, in the same call: per-event listener ticks never
        fire on this path, so skipping the invalidation would serve routes
        cached under the previous fault set (the regression this API
        fixes).  Standing faults merge with the per-call ``node_faults`` /
        ``link_faults`` of :meth:`route_ex` / :meth:`reachability`.
        """
        self._standing_nodes = frozenset(node_faults)
        self._standing_links = _normalize_links(link_faults)
        self.invalidate()

    def clear_faults(self) -> None:
        """Heal the standing fault configuration (invalidates the cache)."""
        self._standing_nodes = frozenset()
        self._standing_links = frozenset()
        self.invalidate()

    # -- guarantees ----------------------------------------------------------

    def max_guaranteed_faults(self) -> int:
        """``m + 3`` total (node + link) faults — Corollary 1's regime."""
        return self.hb.m + 3

    # -- routing -------------------------------------------------------------

    def _family(self, u: HBNode, v: HBNode) -> tuple[tuple, ...]:
        key = (u, v)
        family = self._families.get(key)
        if family is None:
            family = tuple(tuple(p) for p in disjoint_paths(self.hb, u, v))
            self._families[key] = family
        return family

    @staticmethod
    def _path_ok(path: tuple, nodes: frozenset, links: frozenset) -> bool:
        if nodes and not nodes.isdisjoint(path):
            return False
        if links:
            for a, b in zip(path, path[1:], strict=False):
                if _canonical_link(a, b) in links:
                    return False
        return True

    def _adaptive_path(
        self, u: HBNode, v: HBNode, nodes: frozenset, links: frozenset
    ) -> tuple | None:
        key = (u, v, nodes, links)
        if key in self._adaptive:
            return self._adaptive[key]
        path: tuple | None = None
        if links:
            parent = self._parents_avoiding(u, nodes, links, stop=v)
            if v in parent:
                walk = [v]
                while walk[-1] != u:
                    walk.append(parent[walk[-1]])
                path = tuple(reversed(walk))
        else:
            raw = self.hb.bfs_shortest_path(u, v, blocked=nodes)
            path = tuple(raw) if raw is not None else None
        self._adaptive[key] = path
        return path

    def _parents_avoiding(
        self,
        u: HBNode,
        nodes: frozenset,
        links: frozenset,
        *,
        stop: HBNode | None = None,
    ) -> dict:
        """Label BFS from ``u`` that skips faulty nodes *and* faulty links.

        Returns the BFS parent map (``u`` maps to itself); its keys are the
        nodes reached.  The sweep ends early once ``stop`` is reached.
        """
        parent: dict = {u: u}
        queue = deque([u])
        while queue:
            a = queue.popleft()
            for b in self.hb.neighbors(a):
                if b in parent or b in nodes:
                    continue
                if _canonical_link(a, b) in links:
                    continue
                parent[b] = a
                if b == stop:
                    return parent
                queue.append(b)
        return parent

    def route_ex(
        self,
        u: HBNode,
        v: HBNode,
        *,
        node_faults: Iterable[HBNode] = (),
        link_faults: Iterable[tuple[HBNode, HBNode]] = (),
    ) -> RouteOutcome:
        """Escalating route ``u → v``; raises :class:`DegradedRouteError`
        (with a reachability report) when the faults partition the pair.
        Per-call faults are merged with the standing configuration
        installed by :meth:`apply_faults`."""
        nodes = self._standing_nodes | frozenset(node_faults)
        links = self._standing_links | _normalize_links(link_faults)
        self.hb.validate_node(u)
        self.hb.validate_node(v)
        if u in nodes or v in nodes:
            raise RoutingError("an endpoint is itself faulty")
        if u == v:
            return RouteOutcome(path=(u,), strategy="disjoint")
        # stage 1: the paper's disjoint family (shortest surviving member)
        best: tuple | None = None
        for path in self._family(u, v):
            if self._path_ok(path, nodes, links):
                if best is None or len(path) < len(best):
                    best = path
        if best is not None:
            return RouteOutcome(path=best, strategy="disjoint")
        if len(nodes) + len(links) <= self.max_guaranteed_faults():
            raise RoutingError(
                "internal error: a disjoint family with <= m+3 total faults "
                "must contain a fault-free path"
            )
        # stage 2: adaptive BFS on the degraded graph
        path = self._adaptive_path(u, v, nodes, links)
        if path is not None:
            return RouteOutcome(path=path, strategy="adaptive")
        # stage 3: structured failure with partial reachability
        report = self.reachability(u, node_faults=nodes, link_faults=links)
        raise DegradedRouteError(
            f"{len(nodes)} node + {len(links)} link faults exceed the "
            f"guaranteed tolerance {self.max_guaranteed_faults()} and "
            f"disconnect {u!r} from {v!r}; source still reaches "
            f"{report.reachable}/{report.healthy} healthy nodes",
            report,
        )

    def route(
        self,
        u: HBNode,
        v: HBNode,
        *,
        node_faults: Iterable[HBNode] = (),
        link_faults: Iterable[tuple[HBNode, HBNode]] = (),
    ) -> list[HBNode]:
        """The escalating route as a plain node list."""
        return list(
            self.route_ex(u, v, node_faults=node_faults, link_faults=link_faults).path
        )

    def reachability(
        self,
        u: HBNode,
        *,
        node_faults: Iterable[HBNode] = (),
        link_faults: Iterable[tuple[HBNode, HBNode]] = (),
    ) -> ReachabilityReport:
        """How much of the healthy network ``u`` can still reach (per-call
        faults merged with the standing configuration)."""
        nodes = self._standing_nodes | frozenset(node_faults)
        links = self._standing_links | _normalize_links(link_faults)
        self.hb.validate_node(u)
        if u in nodes:
            reachable = 0
        elif links:
            reachable = len(self._parents_avoiding(u, nodes, links))
        else:
            reachable = len(self.hb.bfs_distances(u, blocked=nodes))
        return ReachabilityReport(
            source=u,
            reachable=reachable,
            healthy=self.hb.num_nodes - len(nodes),
            node_faults=len(nodes),
            link_faults=len(links),
        )
