"""Discrete-event message-passing network simulator.

The paper argues its claims analytically; this substrate exercises them
dynamically (DESIGN.md substitution table): store-and-forward packet
delivery over any :class:`repro.topologies.base.Topology`, pluggable
routing protocols, synthetic traffic workloads, broadcast, and the leader
election of the companion paper, with latency/throughput statistics.

Two execution engines share the same topologies, workloads and fault
models: the exact event-by-event :class:`NetworkSimulator`, and the
numpy-vectorized :class:`repro.simulation.flow.FlowEngine` that advances
whole traffic matrices per tick (pinned bit-identical to the event
simulator under the unit-link model).
"""

from repro.simulation.campaign import (
    TrafficCampaignConfig,
    run_traffic_campaign,
)
from repro.simulation.events import Event, EventQueue
from repro.simulation.flow import (
    FlowEngine,
    FlowResult,
    RouteBlock,
    routes_block,
)
from repro.simulation.gossip import (
    all_port_gossip_rounds,
    gossip_lower_bound,
    single_port_gossip,
)
from repro.simulation.leader_election import (
    ElectionResult,
    flood_max_election,
    tree_based_election,
)
from repro.simulation.linkconfig import LinkClass, LinkConfig
from repro.simulation.network import NetworkSimulator, Packet, TransportConfig
from repro.simulation.protocols import (
    BFSProtocol,
    HBObliviousProtocol,
    HDObliviousProtocol,
    PrecomputedPathProtocol,
    ResilientProtocol,
    RoutingProtocol,
)
from repro.simulation.stats import LatencyStats
from repro.simulation.workloads import (
    WORKLOAD_FAMILIES,
    TrafficMatrix,
    build_workload,
)

__all__ = [
    "Event",
    "EventQueue",
    "NetworkSimulator",
    "Packet",
    "TransportConfig",
    "RoutingProtocol",
    "PrecomputedPathProtocol",
    "HBObliviousProtocol",
    "HDObliviousProtocol",
    "BFSProtocol",
    "ResilientProtocol",
    "TrafficMatrix",
    "WORKLOAD_FAMILIES",
    "build_workload",
    "LinkClass",
    "LinkConfig",
    "FlowEngine",
    "FlowResult",
    "RouteBlock",
    "routes_block",
    "TrafficCampaignConfig",
    "run_traffic_campaign",
    "single_port_gossip",
    "all_port_gossip_rounds",
    "gossip_lower_bound",
    "LatencyStats",
    "flood_max_election",
    "tree_based_election",
    "ElectionResult",
]
