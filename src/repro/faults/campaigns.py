"""Degradation campaigns: charting robustness past the ``m + 3`` guarantee.

Corollary 1 promises full pairwise connectivity — hence delivery ratio
1.0 with the disjoint-path scheme — for any ``<= m + 3`` node faults.
This module measures what happens *beyond* that line (the regime studied
for hypercubes in *Structure fault diameter of hypercubes*):

* **static sweep** — for each fault count (through the guarantee region,
  then fractions of the whole network), sample fault sets and healthy
  node pairs and route with the escalating
  :class:`repro.core.resilient.ResilientRouter` (on ``HB``) or adaptive
  BFS (baselines), recording delivery ratio, latency (hops), stretch over
  the fault-free distance, and the share of pairs still served by the
  paper's disjoint families.  The *breaking point* is the first fault
  count whose delivery ratio drops below 1.0.
* **transient transport sweep** — identical Poisson fail/repair schedules
  and traffic replayed through the packet simulator twice per fault rate:
  fire-and-forget versus the reliable per-hop transport (acks,
  exponential-backoff retransmission, duplicate suppression), measuring
  how much delivery the transport buys back.

Everything is seeded; the same :class:`CampaignConfig` reproduces the
emitted JSON bit for bit (the campaign determinism test enforces this).

The simulation layer is imported lazily inside functions: the ``faults``
package initialises this module, while ``simulation.network`` imports
``faults.dynamic`` — eager cross-imports here would cycle.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Container, Hashable, Iterator, Sequence

from repro.core.hyperbutterfly import HyperButterfly
from repro.core.resilient import DegradedRouteError, ResilientRouter
from repro.errors import InvalidParameterError
from repro.faults.dynamic import FaultSchedule
from repro.faults.model import random_node_faults
from repro.topologies.base import Topology
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn

__all__ = [
    "CampaignConfig",
    "healthy_pairs",
    "run_campaign",
    "StructureCampaignConfig",
    "run_structure_campaign",
    "write_campaign_json",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one degradation campaign on ``HB(m, n)`` + baselines."""

    m: int = 3
    n: int = 4
    seed: int = 0
    trials: int = 3
    pairs: int = 25
    # static sweep: fractions of the node set, beyond the guarantee region
    fault_fractions: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    # transient transport sweep: Poisson fault arrivals per time unit
    transient_rates: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5, 1.0)
    transient_packets: int = 120
    horizon: float = 80.0
    repair_time: float = 6.0

    def __post_init__(self) -> None:
        _require_positive(self, "trials", "pairs")

    @classmethod
    def quick(cls, m: int, n: int, *, seed: int = 0) -> "CampaignConfig":
        """A seconds-scale configuration for smoke tests and CI."""
        return cls(
            m=m,
            n=n,
            seed=seed,
            trials=2,
            pairs=8,
            fault_fractions=(0.2, 0.5),
            transient_rates=(0.1, 0.5),
            transient_packets=30,
            horizon=40.0,
        )


def _require_positive(config: object, *fields: str) -> None:
    """Reject sample counts below 1 (they would average over nothing)."""
    for name in fields:
        value = getattr(config, name)
        if value < 1:
            raise InvalidParameterError(
                f"{type(config).__name__}.{name} must be >= 1, got {value}"
            )


def _round(x: float) -> float:
    return round(x, 6)


def _fault_counts(num_nodes: int, guarantee: int, config: CampaignConfig) -> list[int]:
    """The guarantee region step by step, then the configured fractions."""
    counts = set(range(0, guarantee + 3))
    for fraction in config.fault_fractions:
        counts.add(int(round(fraction * num_nodes)))
    # a fault set must leave at least two healthy nodes to route between
    return sorted(c for c in counts if c <= num_nodes - 2)


def healthy_pairs(
    rng: random.Random,
    nodes: Sequence[Hashable],
    faults: Container[Hashable],
    count: int,
) -> Iterator[tuple[Hashable, Hashable]]:
    """``count`` random ordered pairs of distinct nodes outside ``faults``.

    Rejection sampling: fault sets are far smaller than the network, so
    this avoids rebuilding an O(V) healthy-node list per trial.
    """
    for _ in range(count):
        while True:
            u, v = rng.sample(nodes, 2)
            if u not in faults and v not in faults:
                break
        yield u, v


def _ratio(numerator: float, denominator: int) -> float | None:
    return _round(numerator / denominator) if denominator else None


@dataclass
class _PairTally:
    """Route outcomes over healthy pairs, summarised as one campaign row.

    Without a ``router`` (the baselines route by adaptive BFS) the
    ``disjoint_share`` is null.  Only :class:`DegradedRouteError` is a lost
    pair; any other ``RoutingError`` (a broken Theorem 5 family inside the
    guarantee) propagates.
    """

    topology: Topology
    router: ResilientRouter | None
    total: int = 0
    delivered: int = 0
    disjoint_hits: int = 0
    length_sum: int = 0
    stretch_sum: float = 0.0

    def route(self, u: Hashable, v: Hashable, faults: frozenset) -> None:
        self.total += 1
        if self.router is None:
            path = self.topology.bfs_shortest_path(u, v, blocked=faults)
            if path is None:
                return
            length = len(path) - 1
        else:
            try:
                outcome = self.router.route_ex(u, v, node_faults=faults)
            except DegradedRouteError:
                return
            length = outcome.length
            self.disjoint_hits += outcome.strategy == "disjoint"
        self.delivered += 1
        self.length_sum += length
        # stretch over the fault-free distance (u != v on a connected graph)
        base = self.topology.bfs_shortest_path(u, v)
        assert base is not None
        self.stretch_sum += length / (len(base) - 1)

    def row(self) -> dict:
        share = _ratio(self.disjoint_hits, self.total) if self.router else None
        return {
            "delivery_ratio": _ratio(self.delivered, self.total),
            "mean_latency_hops": _ratio(self.length_sum, self.delivered),
            "mean_stretch": _ratio(self.stretch_sum, self.delivered),
            "disjoint_share": share,
        }


def _matched_networks(
    m: int, n: int
) -> tuple[HyperButterfly, HyperDeBruijn, Hypercube]:
    """``HB(m, n)`` and its baselines: ``HD(m, n)`` and the hypercube
    closest in node count."""
    hb = HyperButterfly(m, n)
    cube = Hypercube(max(2, round(math.log2(hb.num_nodes))))
    return hb, HyperDeBruijn(m, n), cube


def _router(topology: Topology) -> ResilientRouter | None:
    """``HB`` routes by escalation, the baselines by adaptive BFS alone."""
    return ResilientRouter(topology) if isinstance(topology, HyperButterfly) else None


def _network_entry(topology: Topology) -> dict:
    return {
        "name": topology.name,
        "num_nodes": topology.num_nodes,
        "scheme": "resilient(disjoint->adaptive)"
        if isinstance(topology, HyperButterfly)
        else "adaptive-bfs",
    }


def _static_curve(
    topology: Topology, guarantee: int, config: CampaignConfig
) -> tuple[list[dict], int | None]:
    """Sweep static fault counts; returns (curve rows, breaking point)."""
    rng = random.Random(config.seed)
    router = _router(topology)
    all_nodes = list(topology.nodes())
    curve: list[dict] = []
    breaking_point: int | None = None
    for count in _fault_counts(topology.num_nodes, guarantee, config):
        tally = _PairTally(topology, router)
        for _ in range(config.trials):
            faults = random_node_faults(topology, count, rng=rng)
            for u, v in healthy_pairs(rng, all_nodes, faults, config.pairs):
                tally.route(u, v, faults.nodes)
        if breaking_point is None and tally.delivered < tally.total:
            breaking_point = count
        curve.append(
            {
                "faults": count,
                "fault_fraction": _round(count / topology.num_nodes),
                **tally.row(),
            }
        )
    return curve, breaking_point


def _replay(
    hb: HyperButterfly,
    schedule: FaultSchedule,
    packets: int,
    span: float,
    seed: int,
) -> dict:
    """Replay one fault schedule fire-and-forget and with reliable transport.

    The same ``packets`` uniform flows (seed ``seed``), injected uniformly
    over ``[0, span)`` (seed ``seed + 1``), run through the simulator
    (seed ``seed + 2``) twice; returns ``{"no_retry": stats, "retry":
    stats}``.
    """
    from repro.fastgraph.codecs import codec_for
    from repro.simulation.network import NetworkSimulator, TransportConfig
    from repro.simulation.protocols import HBObliviousProtocol
    from repro.simulation.workloads import build_workload

    traffic = build_workload(hb, "uniform", count=packets, seed=seed).pairs(
        codec_for(hb)
    )
    inject_rng = random.Random(seed + 1)
    inject_times = [inject_rng.uniform(0.0, span) for _ in traffic]
    transport = TransportConfig(
        ack_timeout=2.0,
        max_retries=10,
        backoff_base=1.0,
        backoff_factor=2.0,
        jitter=0.5,
    )
    stats = {}
    for label, cfg in (("no_retry", None), ("retry", transport)):
        sim = NetworkSimulator(
            hb,
            HBObliviousProtocol(hb),
            schedule=schedule,
            transport=cfg,
            seed=seed + 2,
        )
        for (s, t), at in zip(traffic, inject_times, strict=True):
            sim.inject(s, t, at=at)
        sim.run()
        stats[label] = sim.stats()
    return stats


def _transient_curve(hb: HyperButterfly, config: CampaignConfig) -> list[dict]:
    """Fire-and-forget vs reliable transport on identical fault schedules."""
    rows: list[dict] = []
    for rate in config.transient_rates:
        schedule = FaultSchedule.generate(
            hb,
            rate=rate,
            horizon=config.horizon,
            seed=config.seed + 1,
            mode="transient",
            kinds=("node", "link"),
            repair_time=config.repair_time,
        )
        stats = _replay(
            hb,
            schedule,
            config.transient_packets,
            0.6 * config.horizon,
            config.seed + 2,
        )
        base, retry = stats["no_retry"], stats["retry"]
        rows.append(
            {
                "rate": _round(rate),
                "no_retry_delivery": _round(base.delivery_rate),
                "retry_delivery": _round(retry.delivery_rate),
                "mean_retransmissions": _round(
                    retry.retransmissions / retry.injected
                )
                if retry.injected
                else 0.0,
                "duplicates": retry.duplicates,
                "no_retry_mean_latency": _round(base.mean_latency),
                "retry_mean_latency": _round(retry.mean_latency),
            }
        )
    return rows


def run_campaign(config: CampaignConfig) -> dict:
    """The full campaign: static curves on HB/HD/hypercube + transient sweep."""
    hb, hd, cube = _matched_networks(config.m, config.n)
    networks = []
    # guaranteed tolerance = connectivity - 1; a hypercube's is its degree
    for topology, guarantee in ((hb, hb.m + 3), (hd, config.m + 1), (cube, cube.m - 1)):
        curve, breaking_point = _static_curve(topology, guarantee, config)
        networks.append(
            {
                **_network_entry(topology),
                "guaranteed_tolerance": guarantee,
                "curve": curve,
                "breaking_point": breaking_point,
            }
        )
    return {
        "config": asdict(config),
        "networks": networks,
        "transient": {
            "network": hb.name,
            "mode": "transient",
            "kinds": ["link", "node"],
            "repair_time": config.repair_time,
            "curve": _transient_curve(hb, config),
        },
    }


# -- correlated structure-fault campaigns ------------------------------------


@dataclass(frozen=True)
class StructureCampaignConfig:
    """Parameters of one correlated structure-fault campaign.

    The static sweep crosses structure ``kinds`` × ``sizes`` × ``counts``
    on ``HB(m, n)`` and the usual baselines (``HD``, hypercube), kinds
    filtered per network by applicability (rings need a butterfly factor).
    ``diameter_probes`` are ``(m, n, backend, kind, source_sample)``
    tuples: each computes the structure-fault diameter of a single
    structure on ``HB(m, n)`` — ``source_sample=None`` is exact, an int
    samples (boundary + reservoir) for instances where exact sweeps are
    out of reach; ``backend="implicit"`` keeps ``>= 2^20``-node probes in
    ``O(num_nodes)`` bytes per BFS.
    """

    m: int = 3
    n: int = 4
    seed: int = 0
    trials: int = 3
    pairs: int = 15
    kinds: tuple[str, ...] = ("star", "path", "subcube", "ring")
    sizes: tuple[int, ...] = (1, 2)
    counts: tuple[int, ...] = (1, 2, 3)
    cascade_epochs: int = 4
    cascade_spread: float = 0.35
    cascade_packets: int = 80
    horizon: float = 60.0
    diameter_probes: tuple[tuple[int, int, str, str, int | None], ...] = (
        (3, 4, "auto", "star", None),
        (3, 4, "auto", "ring", None),
        (6, 11, "implicit", "star", 3),
    )

    def __post_init__(self) -> None:
        _require_positive(self, "trials", "pairs")

    @classmethod
    def quick(cls, m: int, n: int, *, seed: int = 0) -> "StructureCampaignConfig":
        """A seconds-scale configuration for smoke tests and CI."""
        return cls(
            m=m,
            n=n,
            seed=seed,
            trials=2,
            pairs=6,
            kinds=("star", "path", "subcube", "ring"),
            sizes=(1,),
            counts=(1, 2),
            cascade_epochs=2,
            cascade_packets=24,
            horizon=30.0,
            diameter_probes=((m, n, "auto", "star", None),),
        )


def _structure_rows(
    topology: Topology,
    config: StructureCampaignConfig,
    seed_offset: int,
) -> list[dict]:
    """The kind × size × count sweep on one network, aggregated over trials."""
    from repro.faults.connectivity import connected_under_faults
    from repro.faults.structures import (
        random_structures,
        structure_kinds,
        union_fault_set,
    )

    rng = random.Random(config.seed + seed_offset)
    router = _router(topology)
    all_nodes = list(topology.nodes())
    applicable = [k for k in config.kinds if k in structure_kinds(topology)]
    rows: list[dict] = []
    for kind in applicable:
        for size in config.sizes:
            for count in config.counts:
                tally = _PairTally(topology, router)
                faulted_sum = 0
                connected_trials = 0
                for _ in range(config.trials):
                    structures = random_structures(
                        topology, kind, count, size=size, rng=rng
                    )
                    faults = union_fault_set(topology, structures)
                    faulted_sum += len(faults)
                    if connected_under_faults(topology, faults):
                        connected_trials += 1
                    if topology.num_nodes - len(faults) < 2:
                        continue  # nothing left to route between
                    for u, v in healthy_pairs(rng, all_nodes, faults, config.pairs):
                        tally.route(u, v, faults.nodes)
                rows.append(
                    {
                        "kind": kind,
                        "size": size,
                        "count": count,
                        "mean_faulted": _round(faulted_sum / config.trials),
                        "connected_fraction": _round(
                            connected_trials / config.trials
                        ),
                        **tally.row(),
                    }
                )
    return rows


def _cascade_section(hb: HyperButterfly, config: StructureCampaignConfig) -> dict:
    """One seeded cascade on HB + retry-vs-no-retry transport replay."""
    from repro.faults.connectivity import connected_under_faults
    from repro.faults.structures import CascadeConfig, random_structures, run_cascade

    epoch_time = config.horizon / (config.cascade_epochs + 2)
    cascade_config = CascadeConfig(
        kind="star",
        size=1,
        epochs=config.cascade_epochs,
        spread=config.cascade_spread,
        epoch_time=epoch_time,
        max_failed=hb.num_nodes // 2,
    )
    seeds = random_structures(
        hb, "star", 1, size=1, rng=random.Random(config.seed + 5)
    )
    trace = run_cascade(hb, seeds, cascade_config, seed=config.seed + 6)
    epochs = []
    cumulative = 0
    for i, epoch in enumerate(trace.epochs):
        cumulative += len(trace.newly_failed[i])
        epochs.append(
            {
                "epoch": i,
                "structures_ignited": len(epoch),
                "newly_failed": len(trace.newly_failed[i]),
                "cumulative_failed": cumulative,
                "connected": connected_under_faults(hb, trace.fault_set(i)),
            }
        )

    stats = _replay(
        hb,
        trace.to_schedule(),
        config.cascade_packets,
        0.8 * config.horizon,
        config.seed + 7,
    )
    replay = {
        label: {
            "delivery": _round(s.delivery_rate),
            "mean_latency": _round(s.mean_latency),
            "retransmissions": s.retransmissions,
            "duplicates": s.duplicates,
        }
        for label, s in stats.items()
    }
    return {
        "network": hb.name,
        "spread": _round(config.cascade_spread),
        "epoch_time": _round(epoch_time),
        "total_failed": trace.total_failed,
        "epochs": epochs,
        "transport_replay": replay,
    }


def _diameter_section(config: StructureCampaignConfig) -> list[dict]:
    """Structure-fault diameter probes, one structure per row.

    ``HB`` is a Cayley graph, hence vertex-transitive: a single
    structure's fault diameter does not depend on where its center lands,
    so anchoring every probe at the first codec-order node loses no
    generality while keeping the row deterministic.
    """
    from repro.faults.structures import build_structure, structure_fault_diameter

    rows: list[dict] = []
    for m, n, backend, kind, source_sample in config.diameter_probes:
        hb = HyperButterfly(m, n)
        anchor = next(iter(hb.nodes()))
        structure = build_structure(hb, kind, anchor, size=1)
        result = structure_fault_diameter(
            hb,
            structure,
            backend=None if backend == "auto" else backend,
            source_sample=source_sample,
            seed=config.seed + 10,
        )
        rows.append(
            {
                "name": hb.name,
                "num_nodes": hb.num_nodes,
                "backend": backend,
                "kind": kind,
                "structure_nodes": len(structure),
                "fault_free_diameter": hb.diameter_formula(),
                "structure_fault_diameter": result.diameter,
                "exact": result.exact,
                "connected": result.connected,
                "sources_examined": result.sources_examined,
            }
        )
    return rows


def run_structure_campaign(config: StructureCampaignConfig) -> dict:
    """Correlated sweep on HB/HD/hypercube + cascade + diameter probes."""
    matched = _matched_networks(config.m, config.n)
    networks = [
        {**_network_entry(topology), "rows": _structure_rows(topology, config, offset)}
        for offset, topology in enumerate(matched)
    ]
    return {
        "config": asdict(config),
        "networks": networks,
        "cascade": _cascade_section(matched[0], config),
        "structure_fault_diameter": _diameter_section(config),
    }


def write_campaign_json(results: dict, path: str | Path) -> str:
    """Serialise deterministically (sorted keys, fixed indent); returns text."""
    text = json.dumps(results, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")
    return text
