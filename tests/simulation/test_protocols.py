"""Routing protocol tests."""

from __future__ import annotations

from repro.core.routing import HBRouter
from repro.simulation.network import NetworkSimulator
from repro.simulation.protocols import (
    BFSProtocol,
    HBObliviousProtocol,
    HDObliviousProtocol,
    PrecomputedPathProtocol,
    _cached_debruijn_route,
)
from repro.topologies.hyperdebruijn import HyperDeBruijn
from tests.simulation._label_traffic import workload_labels


class TestHBOblivious:
    def test_hop_by_hop_equals_router_distance(self, hb23, rng):
        protocol = HBObliviousProtocol(hb23)
        router = HBRouter(hb23)
        nodes = list(hb23.nodes())
        for _ in range(40):
            u, v = rng.sample(nodes, 2)
            sim = NetworkSimulator(hb23, HBObliviousProtocol(hb23))
            packet = sim.inject(u, v)
            sim.run()
            assert packet.hops == router.distance(u, v)

    def test_cube_corrected_before_fly(self, hb23):
        protocol = HBObliviousProtocol(hb23)

        class Probe:
            source = (0, (0, 0))
            target = (3, (1, 0b001))
            ident = 0

        hop = protocol.next_hop(Probe, Probe.source)
        assert hop[1] == (0, 0)  # butterfly part untouched first


class TestHDOblivious:
    def test_debruijn_shift_route_is_valid_walk(self):
        hd = HyperDeBruijn(2, 4)
        d = hd.debruijn
        for u in d.nodes():
            for v in d.nodes():
                if u == v:
                    continue
                path = _cached_debruijn_route(4, u, v)
                assert path[0] == u and path[-1] == v
                for a, b in zip(path, path[1:], strict=False):
                    assert b in d.neighbors(a), (u, v, path)
                assert len(path) - 1 <= 4  # at most n hops

    def test_all_pairs_deliver(self, rng):
        hd = HyperDeBruijn(2, 3)
        sim = NetworkSimulator(hd, HDObliviousProtocol(hd))
        sim.inject_all(workload_labels(hd, "uniform", 150, seed=8))
        sim.run()
        stats = sim.stats()
        assert stats.delivered == 150 and stats.dropped == 0

    def test_hop_bound_m_plus_n(self, rng):
        hd = HyperDeBruijn(2, 4)
        nodes = list(hd.nodes())
        for _ in range(50):
            u, v = rng.sample(nodes, 2)
            sim = NetworkSimulator(hd, HDObliviousProtocol(hd))
            packet = sim.inject(u, v)
            sim.run()
            assert packet.hops <= hd.m + hd.n


class TestPrecomputedPath:
    def test_follows_given_path(self, hb13):
        router = HBRouter(hb13)
        protocol = PrecomputedPathProtocol(
            lambda s, t: router.route(s, t).path
        )
        sim = NetworkSimulator(hb13, protocol)
        u, v = hb13.identity_node(), (1, (2, 0b011))
        packet = sim.inject(u, v)
        sim.run()
        assert packet.hops == router.distance(u, v)

    def test_none_path_drops(self, hb13):
        protocol = PrecomputedPathProtocol(lambda s, t: None)
        sim = NetworkSimulator(hb13, protocol)
        packet = sim.inject(hb13.identity_node(), (1, (0, 0)))
        sim.run()
        assert packet.dropped


class TestBFSProtocol:
    def test_shortest_under_no_faults(self, hb13, rng):
        nodes = list(hb13.nodes())
        for _ in range(20):
            u, v = rng.sample(nodes, 2)
            sim = NetworkSimulator(hb13, BFSProtocol(hb13))
            packet = sim.inject(u, v)
            sim.run()
            assert packet.hops == hb13.distance(u, v)

    def test_unreachable_drops(self, hb13):
        u = hb13.identity_node()
        v = (1, (1, 0b001))
        faults = hb13.neighbors(u)
        sim = NetworkSimulator(hb13, BFSProtocol(hb13, faults=faults), faults=faults)
        packet = sim.inject(u, v)
        sim.run()
        assert packet.dropped
