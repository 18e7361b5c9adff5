"""Store-and-forward packet simulator over any topology.

Model: each node has one output queue per link; a link transfers one
packet per ``link_time`` (unit by default) and a node spends ``hop_time``
forwarding.  Routing is delegated to a
:class:`repro.simulation.protocols.RoutingProtocol`, which may be
oblivious (paths fixed at injection) or hop-by-hop.

Faults come in two flavours:

* **static** — the classic ``faults=``/``link_faults=`` sets, down for the
  whole run;
* **dynamic** — a :class:`repro.faults.dynamic.FaultSchedule` whose
  fail/repair events toggle node and link health *mid-run*.  Components
  interested in health changes (adaptive protocols, the resilient router's
  route cache) register through :meth:`NetworkSimulator.add_fault_listener`.

Without a :class:`TransportConfig` packets are fire-and-forget: a hop into
a faulty node or across a faulty link silently loses the packet.  With
one, every hop is acknowledged: data that arrives triggers an ack back to
the sender; a sender that misses the ack retransmits with exponential
backoff plus seeded jitter (up to ``max_retries``), and receivers suppress
duplicate deliveries caused by lost acks.  Delivered/dropped/retried/
duplicate counts are tracked per packet, so campaign runs can compare the
fire-and-forget and reliable transports on identical fault schedules.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.errors import SimulationError
from repro.fastgraph.backend import get_fastgraph
from repro.faults.dynamic import FaultEvent, FaultSchedule, FaultState
from repro.faults.model import canonical_link
from repro.simulation.events import EventQueue
from repro.simulation.stats import LatencyStats
from repro.topologies.base import Topology

if TYPE_CHECKING:  # protocols imports the simulator types lazily; mirror that
    from repro.simulation.protocols import RoutingProtocol

__all__ = ["Packet", "TransportConfig", "NetworkSimulator"]


@dataclass
class Packet:
    """One message travelling through the network."""

    ident: int
    source: Hashable
    target: Hashable
    injected_at: float
    delivered_at: float | None = None
    hops: int = 0
    dropped: bool = False
    drop_reason: str | None = None
    ttl: int | None = None
    retransmissions: int = 0
    duplicates: int = 0

    @property
    def latency(self) -> float | None:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.injected_at


@dataclass(frozen=True)
class TransportConfig:
    """Reliable per-hop transport: acks, retransmission, dedup.

    ``ack_timeout`` is measured from the moment data *would* arrive; it
    must exceed ``link_time`` (the ack's return trip) or every hop
    retransmits spuriously.  Retry ``k`` waits
    ``backoff_base * backoff_factor**k + U(0, jitter)`` before resending —
    exponential backoff with seeded jitter so synchronized senders desync.
    """

    ack_timeout: float = 2.0
    max_retries: int = 8
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    jitter: float = 0.5

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        delay = self.backoff_base * self.backoff_factor**attempt
        if self.jitter > 0:
            delay += rng.uniform(0.0, self.jitter)
        return delay


class NetworkSimulator:
    """Discrete-event store-and-forward simulation on a topology."""

    def __init__(
        self,
        topology: Topology,
        protocol: RoutingProtocol,
        *,
        link_time: float = 1.0,
        hop_time: float = 0.0,
        faults: Iterable[Hashable] = (),
        link_faults: Iterable[tuple[Hashable, Hashable]] = (),
        schedule: FaultSchedule | None = None,
        transport: TransportConfig | None = None,
        ttl: int | None = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.protocol = protocol
        self.link_time = link_time
        self.hop_time = hop_time
        self.transport = transport
        self.default_ttl = ttl
        self.queue = EventQueue()
        self.packets: list[Packet] = []
        self._ids = itertools.count()
        self._hop_ids = itertools.count()
        self._rng = random.Random(seed)
        # live health state: static faults are applied as depth-1 failures
        self._state = FaultState()
        for v in dict.fromkeys(faults):  # ordered de-duplication
            topology.validate_node(v)
            self._state.apply(FaultEvent(0.0, "fail", "node", v))
        for u, v in link_faults:
            if not topology.has_edge(u, v):
                raise SimulationError(f"({u!r}, {v!r}) is not an edge")
            self._state.apply(
                FaultEvent(0.0, "fail", "link", canonical_link(u, v))
            )
        self._fault_listeners: list[Callable[[FaultEvent], None]] = []
        self.schedule = schedule
        if schedule is not None:
            if schedule.topology.name != topology.name:
                raise SimulationError(
                    f"fault schedule belongs to {schedule.topology.name}, "
                    f"not {topology.name}"
                )
            for event in schedule:
                self.queue.schedule(
                    event.time,
                    lambda e=event: self._apply_fault_event(e),
                    label=f"fault:{event.action}",
                )
        # reliable-transport state
        self._acked: set[tuple[int, int]] = set()  # (packet id, hop id)
        self._seen: set[tuple[Hashable, int, int]] = set()  # receiver dedup
        # per-directed-link busy-until time: contention modelling
        self._link_free_at: dict[tuple[Hashable, Hashable], float] = {}
        # CSR-backed edge validation for the per-hop protocol check
        self._fast = get_fastgraph(topology)
        bind = getattr(protocol, "bind", None)
        if callable(bind):
            bind(self)

    # -- fault state ---------------------------------------------------------

    @property
    def faults(self) -> frozenset:
        """Currently faulty nodes (static plus live schedule state)."""
        return self._state.faulty_nodes

    @property
    def faulty_links(self) -> frozenset:
        """Currently faulty links, in canonical orientation."""
        return self._state.faulty_links

    def node_ok(self, v: Hashable) -> bool:
        return not self._state.node_faulty(v)

    def link_ok(self, u: Hashable, v: Hashable) -> bool:
        return not self._state.link_faulty(u, v)

    def add_fault_listener(self, fn: Callable[[FaultEvent], None]) -> None:
        """Call ``fn(event)`` whenever a component's health actually flips."""
        self._fault_listeners.append(fn)

    def _apply_fault_event(self, event: FaultEvent) -> None:
        if self._state.apply(event):
            for fn in self._fault_listeners:
                fn(event)

    # -- injection ---------------------------------------------------------

    def inject(
        self,
        source: Hashable,
        target: Hashable,
        *,
        at: float = 0.0,
        ttl: int | None = None,
    ) -> Packet:
        """Schedule a packet injection at absolute time ``at``."""
        self.topology.validate_node(source)
        self.topology.validate_node(target)
        packet = Packet(
            ident=next(self._ids),
            source=source,
            target=target,
            injected_at=at,
            ttl=ttl if ttl is not None else self.default_ttl,
        )
        self.packets.append(packet)
        if at < self.queue.now:
            raise SimulationError("cannot inject in the past")
        self.queue.schedule(
            at - self.queue.now,
            lambda: self._arrive(packet, source),
            label=f"inject#{packet.ident}",
        )
        return packet

    def inject_all(self, pairs: Iterable[tuple[Hashable, Hashable]]) -> list[Packet]:
        """Inject one packet per ``(source, target)`` pair at time 0."""
        return [self.inject(s, t) for s, t in pairs]

    # -- core event handlers -------------------------------------------------

    def _drop(self, packet: Packet, reason: str) -> None:
        packet.dropped = True
        packet.drop_reason = reason

    def _arrive(self, packet: Packet, node: Hashable) -> None:
        """Node logic once a packet is *at* ``node``: deliver or forward."""
        if packet.dropped or packet.delivered_at is not None:
            return
        if self._state.node_faulty(node):
            self._drop(packet, "node_fault")
            return
        if node == packet.target:
            packet.delivered_at = self.queue.now
            return
        if packet.ttl is not None and packet.hops >= packet.ttl:
            self._drop(packet, "ttl_expired")
            return
        next_hop = self.protocol.next_hop(packet, node)
        if next_hop is None:
            self._drop(packet, "no_route")
            return
        if not self._fast.has_edge(node, next_hop):
            raise SimulationError(
                f"protocol proposed non-edge {node!r} -> {next_hop!r}"
            )
        if self.transport is None:
            self._send(packet, node, next_hop)
        else:
            self._send_reliable(packet, node, next_hop, next(self._hop_ids), 0)

    # -- fire-and-forget hop --------------------------------------------------

    def _send(self, packet: Packet, node: Hashable, next_hop: Hashable) -> None:
        link = (node, next_hop)
        now = self.queue.now
        start = max(now + self.hop_time, self._link_free_at.get(link, 0.0))
        finish = start + self.link_time
        self._link_free_at[link] = finish
        packet.hops += 1
        self.queue.schedule(
            finish - now,
            lambda: self._finish_hop(packet, node, next_hop),
            label=f"hop#{packet.ident}",
        )

    def _finish_hop(self, packet: Packet, node: Hashable, next_hop: Hashable) -> None:
        if packet.dropped or packet.delivered_at is not None:
            return
        if self._state.link_faulty(node, next_hop):
            self._drop(packet, "link_fault")
            return
        self._arrive(packet, next_hop)

    # -- reliable hop ----------------------------------------------------------

    def _send_reliable(
        self,
        packet: Packet,
        node: Hashable,
        next_hop: Hashable,
        hop_id: int,
        attempt: int,
    ) -> None:
        if packet.dropped or packet.delivered_at is not None:
            return
        cfg = self.transport
        link = (node, next_hop)
        now = self.queue.now
        start = max(now + self.hop_time, self._link_free_at.get(link, 0.0))
        finish = start + self.link_time
        self._link_free_at[link] = finish
        self.queue.schedule(
            finish - now,
            lambda: self._data_arrival(packet, node, next_hop, hop_id),
            label=f"data#{packet.ident}",
        )
        self.queue.schedule(
            finish - now + cfg.ack_timeout,
            lambda: self._ack_timeout(packet, node, next_hop, hop_id, attempt),
            label=f"timeout#{packet.ident}",
        )

    def _data_arrival(
        self, packet: Packet, node: Hashable, next_hop: Hashable, hop_id: int
    ) -> None:
        if packet.delivered_at is not None or packet.dropped:
            return
        # data is lost if the link or the receiver is down right now;
        # the sender's ack timeout will notice and retransmit
        if self._state.link_faulty(node, next_hop):
            return
        if self._state.node_faulty(next_hop):
            return
        key = (next_hop, packet.ident, hop_id)
        duplicate = key in self._seen
        # ack returns over the reverse link (acks are tiny control frames:
        # no contention modelled); lost if the reverse trip is down then
        self.queue.schedule(
            self.link_time,
            lambda: self._ack_arrival(packet, node, next_hop, hop_id),
            label=f"ack#{packet.ident}",
        )
        if duplicate:
            packet.duplicates += 1
            return
        self._seen.add(key)
        packet.hops += 1
        self._arrive(packet, next_hop)

    def _ack_arrival(
        self, packet: Packet, node: Hashable, next_hop: Hashable, hop_id: int
    ) -> None:
        if self._state.link_faulty(next_hop, node):
            return
        if self._state.node_faulty(node):
            return
        self._acked.add((packet.ident, hop_id))

    def _ack_timeout(
        self,
        packet: Packet,
        node: Hashable,
        next_hop: Hashable,
        hop_id: int,
        attempt: int,
    ) -> None:
        if (packet.ident, hop_id) in self._acked:
            return
        if packet.dropped or packet.delivered_at is not None:
            return
        cfg = self.transport
        if attempt >= cfg.max_retries:
            self._drop(packet, "retries_exhausted")
            return
        packet.retransmissions += 1
        delay = cfg.backoff_delay(attempt, self._rng)
        self.queue.schedule(
            delay,
            lambda: self._send_reliable(packet, node, next_hop, hop_id, attempt + 1),
            label=f"retry#{packet.ident}",
        )

    # -- running and reporting ------------------------------------------------

    def run(self, *, until: float | None = None, max_events: int | None = None) -> None:
        self.queue.run(until=until, max_events=max_events)

    def stats(self) -> LatencyStats:
        return LatencyStats.from_packets(self.packets)
