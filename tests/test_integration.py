"""End-to-end integration tests across subsystems.

Each test chains several modules the way a downstream user would, so a
regression in any seam (labels ↔ routing ↔ faults ↔ simulation ↔ io ↔
partition) surfaces even if every unit suite still passes.
"""

from __future__ import annotations

import pytest

from repro import (
    HBRouter,
    HyperButterfly,
    ResilientRouter,
    disjoint_paths,
    format_hb_node,
    parse_hb_node,
)
from repro.core.partition import partition_by_cube_bits
from repro.fastgraph.codecs import codec_for
from repro.io import dump_paths, load_paths
from repro.routing.base import validate_path
from repro.simulation import NetworkSimulator, TrafficMatrix
from repro.simulation.workloads import translation_pairs
from repro.viz import path_family_to_dot
from tests.routing.test_tables import NextHopTable


class TestRouteSerializeRender:
    def test_full_pipeline(self, hb23, tmp_path):
        """Route optimally, persist the Theorem-5 family, reload, render."""
        u = parse_hb_node("(00;abc)", hb23.m, hb23.n)
        v = parse_hb_node("(11;CAb)", hb23.m, hb23.n)
        route = HBRouter(hb23).route(u, v)
        family = disjoint_paths(hb23, u, v)
        assert any(len(p) - 1 == route.length for p in family)

        file = tmp_path / "family.json"
        dump_paths(family, file, meta={"source": format_hb_node(u, 2, 3)})
        reloaded, meta = load_paths(file, topology=hb23)
        assert reloaded == family
        assert meta["source"] == "(00;abc)"

        dot = path_family_to_dot(hb23, reloaded)
        assert dot.count("penwidth=2.5") == sum(len(p) - 1 for p in family)


class TestFaultsMeetSimulation:
    def test_simulated_delivery_under_survivable_faults(self, hb13, rng):
        """Fault a node on every shortest route; the fault-tolerant path
        still delivers when driven through the packet simulator."""
        router = ResilientRouter(hb13)
        u, v = (0, (0, 0)), (1, (2, 0b101))
        optimal = HBRouter(hb13).route(u, v).path
        faults = [optimal[1]]
        safe_path = router.route(u, v, node_faults=faults)
        validate_path(hb13, safe_path, source=u, target=v)

        from repro.simulation.protocols import PrecomputedPathProtocol

        sim = NetworkSimulator(
            hb13,
            PrecomputedPathProtocol(lambda s, t: safe_path),
            faults=faults,
        )
        packet = sim.inject(u, v)
        sim.run()
        assert packet.delivered_at is not None
        assert packet.hops == len(safe_path) - 1


class TestPartitionMeetsRouting:
    def test_block_local_routing_matches_projection(self, hb23, rng):
        """Routing inside a partition block == routing in the small HB."""
        block = partition_by_cube_bits(hb23, [1])[1]
        small_router = HBRouter(block.sub)
        sub_nodes = list(block.sub.nodes())
        for _ in range(15):
            a, b = rng.sample(sub_nodes, 2)
            inner = small_router.route(a, b)
            lifted = [block.lift(x) for x in inner.path]
            validate_path(hb23, lifted, source=block.lift(a), target=block.lift(b))
            # block-local optimal == host-optimal whenever endpoints share
            # the frozen bits (the block is isometrically embedded)
            assert inner.length == hb23.distance(lifted[0], lifted[-1])


class TestTablesMeetSimulation:
    def test_table_driven_protocol(self, hb13):
        """Drive the simulator entirely from the split routing table."""
        table = NextHopTable.split(hb13)

        class TableProtocol:
            def next_hop(self, packet, node):
                return table.next_hop(node, packet.target)

        sim = NetworkSimulator(hb13, TableProtocol())
        traffic = TrafficMatrix.from_ranks(*translation_pairs(hb13))
        sim.inject_all(traffic.pairs(codec_for(hb13)))
        sim.run()
        stats = sim.stats()
        assert stats.delivered == hb13.num_nodes
        # translation traffic: all packets travel the same optimal distance
        expected = hb13.distance(
            hb13.identity_node(), ((1 << hb13.m) - 1, (hb13.n // 2, 0))
        )
        assert stats.mean_hops == pytest.approx(expected)


class TestEmbeddingMeetsPartition:
    def test_embedded_tree_survives_partition_projection(self, rng):
        """A T(m+n-2) embedded in a half-machine block is also a valid
        embedding in the full machine after lifting."""
        from repro.embeddings.trees import hb_tree_embedding
        from repro.embeddings.base import Embedding

        hb = HyperButterfly(3, 3)
        block = partition_by_cube_bits(hb, [2])[0]
        inner = hb_tree_embedding(block.sub)
        lifted = Embedding(
            guest=inner.guest,
            host=hb,
            mapping={g: block.lift(h) for g, h in inner.mapping.items()},
        )
        lifted.verify()
