"""Network simulator tests."""

from __future__ import annotations

from repro.simulation.network import NetworkSimulator
from repro.simulation.protocols import BFSProtocol, HBObliviousProtocol
from tests.simulation._label_traffic import workload_labels


class TestDelivery:
    def test_single_packet_latency_equals_distance(self, hb13):
        sim = NetworkSimulator(hb13, HBObliviousProtocol(hb13))
        u, v = hb13.identity_node(), (1, (2, 0b101))
        packet = sim.inject(u, v)
        sim.run()
        assert packet.delivered_at is not None
        assert packet.hops == hb13.distance(u, v)
        # unit link time, uncontended: latency == hop count
        assert packet.latency == packet.hops

    def test_all_uniform_traffic_delivered(self, hb13):
        sim = NetworkSimulator(hb13, HBObliviousProtocol(hb13))
        pairs = workload_labels(hb13, "uniform", 100, seed=4)
        sim.inject_all(pairs)
        sim.run()
        stats = sim.stats()
        assert stats.delivered == 100
        assert stats.dropped == 0
        assert stats.mean_latency >= stats.mean_hops  # queueing only adds

    def test_self_packet_delivers_immediately(self, hb13):
        sim = NetworkSimulator(hb13, HBObliviousProtocol(hb13))
        u = hb13.identity_node()
        packet = sim.inject(u, u)
        sim.run()
        assert packet.delivered_at == 0.0  # reprolint: disable=HB301 -- self-delivery happens at the literal injection time
        assert packet.hops == 0


class TestContention:
    def test_shared_link_serialises(self, hb13):
        """Two packets over the same first link: second waits a slot."""
        sim = NetworkSimulator(hb13, HBObliviousProtocol(hb13))
        u = hb13.identity_node()
        v = (1, (0, 0))  # one hypercube hop
        p1 = sim.inject(u, v)
        p2 = sim.inject(u, v)
        sim.run()
        assert {p1.latency, p2.latency} == {1.0, 2.0}

    def test_makespan_grows_with_load(self, hb13):
        light = NetworkSimulator(hb13, HBObliviousProtocol(hb13))
        light.inject_all(workload_labels(hb13, "uniform", 10, seed=1))
        light.run()
        heavy = NetworkSimulator(hb13, HBObliviousProtocol(hb13))
        heavy.inject_all(workload_labels(hb13, "uniform", 400, seed=1))
        heavy.run()
        assert heavy.stats().makespan >= light.stats().makespan


class TestFaults:
    def test_faulty_node_drops_packets(self, hb13):
        u, v = hb13.identity_node(), (1, (0, 0))
        sim = NetworkSimulator(
            hb13, HBObliviousProtocol(hb13), faults=[v]
        )
        packet = sim.inject(u, v)
        sim.run()
        assert packet.dropped

    def test_adaptive_protocol_avoids_faults(self, hb13):
        u = hb13.identity_node()
        v = (1, (1, 0b001))
        # fault a node on the oblivious route; BFS protocol routes around
        oblivious = HBObliviousProtocol(hb13)

        class Probe:
            target = v
            source = u
            ident = 0

        first_hop = oblivious.next_hop(Probe, u)
        sim = NetworkSimulator(
            hb13, BFSProtocol(hb13, faults=[first_hop]), faults=[first_hop]
        )
        packet = sim.inject(u, v)
        sim.run()
        assert packet.delivered_at is not None
        assert not packet.dropped

    def test_stats_shape(self, hb13):
        sim = NetworkSimulator(hb13, HBObliviousProtocol(hb13))
        sim.inject_all(workload_labels(hb13, "uniform", 25, seed=2))
        sim.run()
        stats = sim.stats()
        assert stats.injected == 25
        assert 0.0 < stats.delivery_rate <= 1.0
        assert "delivered" in stats.summary()
