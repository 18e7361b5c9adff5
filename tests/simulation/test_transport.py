"""Dynamic faults, TTL, and reliable-transport tests for the simulator."""

from __future__ import annotations

import pytest

from repro.core.resilient import ResilientRouter
from repro.errors import SimulationError
from repro.faults.dynamic import FaultEvent, FaultSchedule
from repro.simulation.network import NetworkSimulator, TransportConfig
from repro.simulation.protocols import (
    BFSProtocol,
    HBObliviousProtocol,
    ResilientProtocol,
)
from repro.topologies.cycle import Cycle
from tests.simulation._label_traffic import workload_labels


def _cycle_sim(k, *, schedule=None, transport=None, ttl=None, faults=(),
               link_faults=(), seed=0):
    cycle = Cycle(k)
    sim = NetworkSimulator(
        cycle,
        BFSProtocol(cycle),
        schedule=schedule,
        transport=transport,
        ttl=ttl,
        faults=faults,
        link_faults=link_faults,
        seed=seed,
    )
    return cycle, sim


class TestTTL:
    def test_ttl_expiry_drops(self):
        cycle, sim = _cycle_sim(16, ttl=4)
        packet = sim.inject(0, 8)
        sim.run()
        assert packet.dropped
        assert packet.drop_reason == "ttl_expired"
        assert packet.hops == 4

    def test_sufficient_ttl_delivers(self):
        cycle, sim = _cycle_sim(16, ttl=8)
        packet = sim.inject(0, 8)
        sim.run()
        assert packet.delivered_at is not None

    def test_per_packet_ttl_overrides_default(self):
        cycle, sim = _cycle_sim(16, ttl=2)
        packet = sim.inject(0, 8, ttl=20)
        sim.run()
        assert packet.delivered_at is not None


class TestDynamicFaults:
    def test_mid_run_failure_reroutes_bfs(self):
        """Node 1 fails before injection time: BFS detours the long way."""
        cycle = Cycle(8)
        schedule = FaultSchedule(cycle, [FaultEvent(1.0, "fail", "node", 1)])
        sim = NetworkSimulator(cycle, BFSProtocol(cycle), schedule=schedule)
        packet = sim.inject(0, 2, at=2.0)
        sim.run()
        assert packet.delivered_at is not None
        assert packet.hops == 6  # 0 -> 7 -> 6 -> 5 -> 4 -> 3 -> 2

    def test_repair_restores_short_route(self):
        cycle = Cycle(8)
        schedule = FaultSchedule(
            cycle,
            [
                FaultEvent(1.0, "fail", "node", 1),
                FaultEvent(10.0, "repair", "node", 1),
            ],
        )
        sim = NetworkSimulator(cycle, BFSProtocol(cycle), schedule=schedule)
        early = sim.inject(0, 2, at=2.0)
        late = sim.inject(0, 2, at=11.0)
        sim.run()
        assert early.hops == 6
        assert late.hops == 2  # healed: direct 0 -> 1 -> 2 again

    def test_fire_and_forget_loses_on_link_fault(self):
        cycle, sim = _cycle_sim(8, link_faults=[(0, 1)])
        # protocol still routes 0 -> 1 (BFS ignores link faults), so the
        # hop is attempted and the packet dies on the faulty link
        packet = sim.inject(0, 1)
        sim.run()
        assert packet.dropped and packet.drop_reason == "link_fault"

    def test_static_faults_still_drop_at_node(self):
        cycle, sim = _cycle_sim(8, faults=[4])
        packet = sim.inject(4, 0)
        sim.run()
        assert packet.dropped and packet.drop_reason == "node_fault"

    def test_fault_listener_fires_once_per_flip(self):
        cycle = Cycle(8)
        schedule = FaultSchedule(
            cycle,
            [
                FaultEvent(1.0, "fail", "node", 3),
                FaultEvent(2.0, "fail", "node", 3),  # overlapping: no flip
                FaultEvent(3.0, "repair", "node", 3),
                FaultEvent(4.0, "repair", "node", 3),
            ],
        )
        sim = NetworkSimulator(cycle, BFSProtocol(cycle), schedule=schedule)
        flips = []
        sim.add_fault_listener(lambda e: flips.append((e.time, e.action)))
        sim.run()
        assert flips == [(1.0, "fail"), (4.0, "repair")]

    def test_schedule_topology_mismatch_rejected(self):
        other = Cycle(6)
        schedule = FaultSchedule(other, [FaultEvent(1.0, "fail", "node", 0)])
        cycle = Cycle(8)
        with pytest.raises(SimulationError):
            NetworkSimulator(cycle, BFSProtocol(cycle), schedule=schedule)


class TestReliableTransport:
    def test_retransmission_recovers_transient_target_fault(self):
        cycle = Cycle(8)
        schedule = FaultSchedule(
            cycle,
            [
                FaultEvent(0.5, "fail", "node", 1),
                FaultEvent(4.0, "repair", "node", 1),
            ],
        )
        # without retries the packet dies silently in the fault window
        bare = NetworkSimulator(
            cycle,
            BFSProtocol(cycle),
            schedule=FaultSchedule(cycle, schedule.events),
        )
        lost = bare.inject(0, 1)
        bare.run()
        assert lost.dropped

        sim = NetworkSimulator(
            cycle, BFSProtocol(cycle), schedule=schedule,
            transport=TransportConfig(),
        )
        packet = sim.inject(0, 1)
        sim.run()
        assert packet.delivered_at is not None
        assert packet.retransmissions >= 1
        assert packet.delivered_at >= 4.0  # only after the repair

    def test_duplicate_suppression_on_lost_ack(self):
        cycle = Cycle(16)
        # the ack of hop 0 -> 1 crosses back during (1, 2): fault exactly
        # that window so data survives but the ack is lost; the packet is
        # still in flight (6 hops to go) when the retransmission lands
        schedule = FaultSchedule(
            cycle,
            [
                FaultEvent(1.5, "fail", "link", (0, 1)),
                FaultEvent(2.5, "repair", "link", (0, 1)),
            ],
        )
        sim = NetworkSimulator(
            cycle, BFSProtocol(cycle), schedule=schedule,
            transport=TransportConfig(),
        )
        packet = sim.inject(0, 6)
        sim.run()
        assert packet.delivered_at is not None
        assert packet.hops == 6  # duplicate did not advance the packet
        assert packet.retransmissions >= 1
        assert packet.duplicates >= 1

    def test_retries_exhausted_drops(self):
        from repro.simulation.protocols import PrecomputedPathProtocol

        cycle = Cycle(8)
        # a fault-oblivious source route straight into the dead node
        sim = NetworkSimulator(
            cycle,
            PrecomputedPathProtocol(cycle.bfs_shortest_path),
            faults=[1],
            transport=TransportConfig(max_retries=2, jitter=0.0),
        )
        packet = sim.inject(0, 1)
        sim.run()
        assert packet.dropped
        assert packet.drop_reason == "retries_exhausted"
        assert packet.retransmissions == 2

    def test_transport_seeded_determinism(self):
        def run(seed):
            cycle = Cycle(12)
            schedule = FaultSchedule.generate(
                cycle, rate=0.4, horizon=30.0, seed=5,
                mode="transient", kinds=("node", "link"), repair_time=3.0,
            )
            sim = NetworkSimulator(
                cycle, BFSProtocol(cycle), schedule=schedule,
                transport=TransportConfig(), seed=seed,
            )
            sim.inject_all(workload_labels(cycle, "uniform", 40, seed=9))
            sim.run()
            return sim.stats()

        assert run(3) == run(3)

    def test_no_faults_transport_matches_plain_delivery(self, hb13):
        plain = NetworkSimulator(hb13, HBObliviousProtocol(hb13))
        plain.inject_all(workload_labels(hb13, "uniform", 40, seed=2))
        plain.run()
        reliable = NetworkSimulator(
            hb13, HBObliviousProtocol(hb13), transport=TransportConfig()
        )
        reliable.inject_all(workload_labels(hb13, "uniform", 40, seed=2))
        reliable.run()
        p, r = plain.stats(), reliable.stats()
        assert r.delivered == p.delivered == 40
        assert r.retransmissions == 0 and r.duplicates == 0
        assert r.mean_hops == p.mean_hops


class TestResilientProtocol:
    def test_delivers_under_static_faults(self, hb23, rng):
        from repro.faults.model import random_node_faults

        router = ResilientRouter(hb23)
        nodes = list(hb23.nodes())
        pairs = []
        faults = random_node_faults(hb23, 5, rng=rng)
        while len(pairs) < 20:
            u, v = rng.sample(nodes, 2)
            if u not in faults and v not in faults:
                pairs.append((u, v))
        sim = NetworkSimulator(
            hb23, ResilientProtocol(router), faults=faults
        )
        sim.inject_all(pairs)
        sim.run()
        stats = sim.stats()
        assert stats.delivered == 20
        assert stats.dropped == 0

    def test_replans_after_mid_run_fault(self, hb13):
        router = ResilientRouter(hb13)
        protocol = ResilientProtocol(router)
        u = hb13.identity_node()
        v = max(hb13.nodes(), key=lambda w: hb13.distance(u, w))
        shortest = hb13.bfs_shortest_path(u, v)
        # fail the shortest path's second node just before injection
        schedule = FaultSchedule(
            hb13, [FaultEvent(0.5, "fail", "node", shortest[1])]
        )
        sim = NetworkSimulator(hb13, protocol, schedule=schedule)
        packet = sim.inject(u, v, at=1.0)
        sim.run()
        assert packet.delivered_at is not None
        assert router.invalidations >= 1
