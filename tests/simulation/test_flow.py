"""Vectorized flow engine: route validity and event-simulator pinning.

The load-bearing property is **bit-identical replay**: under the unit
link model the engine must reproduce the discrete-event simulator flow
for flow — same delivery tick, same hop count, same drop reason — across
every topology family, fault regime, TTL and arrival pacing.  Everything
else (capacity queueing, latency classes) generalizes the event model
and is checked against a small pure-Python per-link FIFO reference.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import random

import numpy as np
import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError, SimulationError
from repro.fastgraph.codecs import (
    ButterflyElementCodec,
    HypercubeCodec,
    ProductCodec,
    codec_for,
    register_codec,
)
from repro.faults.dynamic import FaultEvent, FaultSchedule
from repro.faults.model import canonical_link
from repro.simulation import flow as flow_module
from repro.simulation.flow import (
    DROP_REASONS,
    FlowEngine,
    register_route_builder,
    routes_block,
)
from repro.simulation.linkconfig import LinkClass, LinkConfig
from repro.simulation.network import NetworkSimulator
from repro.simulation.protocols import HDObliviousProtocol, PrecomputedPathProtocol
from repro.simulation.workloads import TrafficMatrix, build_workload
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Torus
from tests.simulation._reference_routes import reference_routes

TOPOLOGIES = [
    HyperButterfly(2, 3),
    HyperDeBruijn(2, 3),
    Hypercube(4),
    CayleyButterfly(3),
]


def _all_pairs(topology):
    n = topology.num_nodes
    grid = np.arange(n, dtype=np.int64)
    return np.repeat(grid, n), np.tile(grid, n)


class TestRouteBlocks:
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
    def test_routes_are_walks_ending_at_the_target(self, topology):
        src, dst = _all_pairs(topology)
        block = routes_block(topology, src, dst)
        for i in range(block.num_flows):
            path = block.label_path(i)
            assert path is not None
            assert path[0] == block.codec.unrank(int(src[i]))
            assert path[-1] == block.codec.unrank(int(dst[i]))
            for a, b in zip(path, path[1:]):
                assert topology.has_edge(a, b), (path, a, b)

    @pytest.mark.parametrize(
        "topology",
        [HyperButterfly(2, 3), CayleyButterfly(3), Hypercube(4)],
        ids=lambda t: t.name,
    )
    def test_shortest_for_oracle_families(self, topology):
        """Cayley-oracle and e-cube builders produce *shortest* routes."""
        src, dst = _all_pairs(topology)
        block = routes_block(topology, src, dst)
        codec = block.codec
        for i in range(0, block.num_flows, 7):
            u = codec.unrank(int(src[i]))
            v = codec.unrank(int(dst[i]))
            expected = len(topology.bfs_shortest_path(u, v)) - 1
            assert int(block.lengths[i]) == expected

    def test_hd_routes_equal_protocol_walks_exhaustively(self):
        """The one-shot vectorized HD plan is exactly the hop-by-hop
        oblivious walk (overlap grows by one per shift, so the protocol's
        re-scan never jumps ahead)."""
        hd = HyperDeBruijn(2, 3)
        src, dst = _all_pairs(hd)
        block = routes_block(hd, src, dst)
        protocol = HDObliviousProtocol(hd)

        class Probe:
            ident = 0

            def __init__(self, source, target):
                self.source, self.target = source, target

        for i in range(block.num_flows):
            s = block.codec.unrank(int(src[i]))
            t = block.codec.unrank(int(dst[i]))
            walk = [s]
            while walk[-1] != t:
                walk.append(protocol.next_hop(Probe(s, t), walk[-1]))
            assert block.label_path(i) == walk

    def test_generic_fallback_on_a_torus(self):
        torus = Torus(3, 4)
        rng = np.random.default_rng(0)
        src = rng.integers(0, torus.num_nodes, 30)
        dst = rng.integers(0, torus.num_nodes, 30)
        block = routes_block(torus, src, dst)
        for i in range(30):
            path = block.label_path(i)
            expected = torus.bfs_shortest_path(path[0], path[-1])
            assert len(path) - 1 == len(expected) - 1

    def test_registry_override_wins(self):
        calls = []

        def fake_builder(topology, sources, targets):
            calls.append(len(sources))
            return None  # defer to the structural path

        register_route_builder("HyperButterfly", fake_builder)
        try:
            hb = HyperButterfly(2, 3)
            block = routes_block(hb, np.array([0, 1]), np.array([5, 9]))
            assert calls == [2]
            assert block.num_flows == 2
        finally:
            from repro.simulation.flow import _ROUTE_BUILDERS

            del _ROUTE_BUILDERS["HyperButterfly"]

    def test_rank_validation(self):
        hb = HyperButterfly(2, 3)
        with pytest.raises(InvalidParameterError):
            routes_block(hb, np.array([0]), np.array([hb.num_nodes]))
        with pytest.raises(InvalidParameterError):
            routes_block(hb, np.array([-1]), np.array([0]))


def _assert_matches_reference(topology, src, dst):
    block = routes_block(topology, src, dst)
    hops, lengths, gen_idx = reference_routes(topology, src, dst)
    for got, want in (
        (block.hops, hops),
        (block.lengths, lengths),
        (block.gen_idx, gen_idx),
    ):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    return block


class TestCayleyRouteExpansion:
    """The move-table walk against the per-generator reference expansion
    (``_reference_routes``) and against the oracle's own paths."""

    @pytest.mark.parametrize(
        "topology",
        [
            HyperButterfly(1, 3),
            HyperButterfly(2, 3),
            HyperButterfly(3, 4),
            CayleyButterfly(3),
            CayleyButterfly(4),
        ],
        ids=lambda t: t.name,
    )
    def test_all_pairs_match_reference(self, topology):
        split = topology.cayley.oracle.factor_split() is not None
        assert split == isinstance(topology, HyperButterfly)
        _assert_matches_reference(topology, *_all_pairs(topology))

    @pytest.mark.parametrize("m, n", [(4, 7), (6, 11)])
    @pytest.mark.parametrize("family", ["uniform", "hotspot"])
    def test_sampled_flows_match_reference(self, m, n, family):
        hb = HyperButterfly(m, n)
        tm = build_workload(hb, family, count=20_000, seed=m * 100 + n)
        _assert_matches_reference(hb, tm.sources, tm.targets)

    @pytest.mark.parametrize(
        "topology", [HyperButterfly(2, 3), CayleyButterfly(3)], ids=lambda t: t.name
    )
    def test_width_zero_batches(self, topology):
        empty = np.zeros(0, dtype=np.int64)
        block = _assert_matches_reference(topology, empty, empty)
        assert block.hops.shape == (0, 0) and block.gen_idx.dtype == np.int16
        same = np.arange(topology.num_nodes, dtype=np.int64)
        block = _assert_matches_reference(topology, same, same)
        assert block.hops.shape == (topology.num_nodes, 0)
        assert not block.lengths.any()

    @pytest.mark.parametrize(
        "topology", [HyperButterfly(2, 3), CayleyButterfly(3)], ids=lambda t: t.name
    )
    def test_rows_are_oracle_shortest_paths(self, topology):
        src, dst = _all_pairs(topology)
        block = routes_block(topology, src, dst)
        oracle = topology.cayley.oracle
        for i in range(block.num_flows):
            u = block.codec.unrank(int(src[i]))
            v = block.codec.unrank(int(dst[i]))
            assert block.label_path(i) == oracle.shortest_path(u, v)

    def test_sampled_rows_are_oracle_shortest_paths(self):
        hb = HyperButterfly(4, 7)
        rng = np.random.default_rng(47)
        src = rng.integers(0, hb.num_nodes, 400)
        dst = rng.integers(0, hb.num_nodes, 400)
        block = routes_block(hb, src, dst)
        for i in range(block.num_flows):
            u = block.codec.unrank(int(src[i]))
            v = block.codec.unrank(int(dst[i]))
            assert block.label_path(i) == hb.cayley.oracle.shortest_path(u, v)

    def test_codec_generator_order_differs_from_the_oracle(self):
        """A codec listing the generators in another order than the oracle:
        word entries are oracle indices, the walk must still follow them."""

        class PermutedHB(HyperButterfly):
            pass

        def factory(t):
            return ProductCodec(
                HypercubeCodec(t.m),
                ButterflyElementCodec(t.n),
                generators=tuple(reversed(t.gens.generators)),
            )

        register_codec(PermutedHB, factory)
        try:
            hb = PermutedHB(2, 3)
            src, dst = _all_pairs(hb)
            block = _assert_matches_reference(hb, src, dst)
            permuted = tuple(reversed(hb.gens.generators))
            assert block.codec.generators == permuted  # never reassigned
            oracle = hb.cayley.oracle
            for i in range(0, block.num_flows, 7):
                u = block.codec.unrank(int(src[i]))
                v = block.codec.unrank(int(dst[i]))
                assert block.label_path(i) == oracle.shortest_path(u, v)
        finally:
            from repro.fastgraph.codecs import _REGISTRY

            _REGISTRY.pop("PermutedHB", None)


def _sample_regime(topology, seed):
    rng = random.Random(seed)
    nodes = list(topology.nodes())
    edges = list(topology.edges())
    static_nodes = rng.sample(nodes, 2)
    static_links = rng.sample(edges, 2)
    events = []
    for t in (1, 2, 4):
        v = rng.choice(nodes)
        events.append(FaultEvent(float(t), "fail", "node", v))
        events.append(FaultEvent(float(t + 2), "repair", "node", v))
        u, w = rng.choice(edges)
        events.append(FaultEvent(float(t), "fail", "link", canonical_link(u, w)))
        events.append(
            FaultEvent(float(t + 3), "repair", "link", canonical_link(u, w))
        )
    return static_nodes, static_links, FaultSchedule(topology, events)


def _event_sim(topology, tm, routes, *, until=None, **kwargs):
    """The event simulator replaying ``tm`` along ``routes``, run to
    ``until`` (to the end when ``None``)."""
    sim = NetworkSimulator(
        topology, PrecomputedPathProtocol(routes.path_fn(tm)), **kwargs
    )
    for i, (s, t) in enumerate(tm.pairs(routes.codec)):
        sim.inject(s, t, at=float(tm.inject_at[i]))
    sim.run(until=until)
    return sim


def _assert_bit_identical(topology, tm, routes, *, faults=(), link_faults=(),
                          schedule=None, ttl=None):
    kwargs = dict(
        faults=faults, link_faults=link_faults, schedule=schedule, ttl=ttl
    )
    sim = _event_sim(topology, tm, routes, **kwargs)
    engine = FlowEngine(topology, tm, routes, **kwargs).run()
    _assert_same_outcomes(sim, engine)
    return engine


def _assert_same_outcomes(sim, engine):
    res = engine.result()
    for i, packet in enumerate(sim.packets):
        flow_tick = int(res.delivered_at[i])
        assert (packet.delivered_at is None) == (flow_tick < 0), i
        if packet.delivered_at is not None:
            assert float(flow_tick) == packet.delivered_at, i
        assert packet.hops == int(res.hops[i]), i
        assert (packet.drop_reason or "") == DROP_REASONS[res.drop_code[i]], i
    assert sim.stats() == engine.stats()


def _spy_tick_paths(monkeypatch):
    """Count the ticks each path slots: ``scalar`` (fewer than
    ``_SMALL_TICK`` sends), ``sort`` (a narrow tick's link sort) and
    ``hash`` (a wide tick; its shared sends' sort is not counted apart)."""
    paths = collections.Counter()
    hashed = [False]
    step = FlowEngine._step
    scalar_tick = FlowEngine._scalar_tick
    link_queues = FlowEngine._link_queues
    alone_on_link = FlowEngine._alone_on_link

    def spy_step(self, ids, tick):
        hashed[0] = False
        return step(self, ids, tick)

    def spy_scalar(self, *args):
        paths["scalar"] += 1
        return scalar_tick(self, *args)

    def spy_queues(self, *args):
        if not hashed[0]:
            paths["sort"] += 1
        return link_queues(self, *args)

    def spy_alone(self, link):
        hashed[0] = True
        paths["hash"] += 1
        return alone_on_link(self, link)

    monkeypatch.setattr(FlowEngine, "_step", spy_step)
    monkeypatch.setattr(FlowEngine, "_scalar_tick", spy_scalar)
    monkeypatch.setattr(FlowEngine, "_link_queues", spy_queues)
    monkeypatch.setattr(FlowEngine, "_alone_on_link", spy_alone)
    return paths


class _NarrowTickPath:
    """Runs each test with ``_SMALL_TICK`` at :attr:`small_tick` (left at
    its default when ``None``) and checks that a test which slotted any
    send slotted some on the path its narrow ticks should take: the
    scalar pass, or the link sort when ``_SMALL_TICK`` is 0."""

    small_tick: int | None = None

    @pytest.fixture(autouse=True)
    def _narrow_tick_path(self, monkeypatch):
        if self.small_tick is not None:
            monkeypatch.setattr(flow_module, "_SMALL_TICK", self.small_tick)
        paths = _spy_tick_paths(monkeypatch)
        yield
        narrow = "scalar" if flow_module._SMALL_TICK else "sort"
        assert paths[narrow] or not sum(paths.values()), dict(paths)


class TestEventSimPinning(_NarrowTickPath):
    """Flow engine == event simulator, flow for flow, across the grid."""

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("per_tick", [None, 20], ids=["batch", "paced"])
    def test_fault_free(self, topology, per_tick):
        tm = build_workload(topology, "uniform", count=100, seed=7,
                            per_tick=per_tick)
        routes = routes_block(topology, tm.sources, tm.targets)
        engine = _assert_bit_identical(topology, tm, routes)
        assert engine.stats().delivered == 100

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("ttl", [None, 3], ids=["no-ttl", "ttl3"])
    def test_faulty_regime(self, topology, ttl):
        static_nodes, static_links, schedule = _sample_regime(topology, 3)
        tm = build_workload(topology, "uniform", count=120, seed=11, per_tick=20)
        routes = routes_block(topology, tm.sources, tm.targets)
        engine = _assert_bit_identical(
            topology, tm, routes,
            faults=static_nodes, link_faults=static_links,
            schedule=schedule, ttl=ttl,
        )
        # the regime must actually exercise drops for the pin to mean much
        assert engine.stats().dropped > 0

    @pytest.mark.parametrize(
        "family", ["permutation", "bit_reversal", "hotspot", "bursty"]
    )
    def test_other_families_pin_too(self, family):
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, family, count=96, seed=5, per_tick=16)
        routes = routes_block(hb, tm.sources, tm.targets)
        _assert_bit_identical(hb, tm, routes)

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("family", ["hotspot", "incast"])
    @pytest.mark.parametrize("per_tick", [None, 25], ids=["batch", "paced"])
    def test_contention_heavy_event_order(self, topology, family, per_tick):
        """300 flows funnelled onto few links: long per-link queues, many
        arrivals per tick from many earlier ticks, so every tick's bucket
        order — injections first, then sends in processing order — is
        exercised."""
        tm = build_workload(topology, family, count=300, seed=13,
                            per_tick=per_tick)
        routes = routes_block(topology, tm.sources, tm.targets)
        engine = _assert_bit_identical(topology, tm, routes)
        assert engine.stats().delivered == 300

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("family", ["hotspot", "incast"])
    def test_run_until_then_run_equals_one_run(self, topology, family):
        tm = build_workload(topology, family, count=300, seed=17, per_tick=25)
        routes = routes_block(topology, tm.sources, tm.targets)
        whole = FlowEngine(topology, tm, routes).run()
        for until in (0, 4, 11):
            split = FlowEngine(topology, tm, routes).run(until=until)
            assert split.stats().delivered < 300
            split.run()
            assert split.ticks_processed == whole.ticks_processed
            for field in ("delivered_at", "hops", "drop_code", "drop_at"):
                assert np.array_equal(
                    getattr(split.result(), field), getattr(whole.result(), field)
                ), (until, field)

    def test_static_fault_validation_matches_event_sim(self):
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "uniform", count=4, seed=0)
        nodes = list(hb.nodes())
        with pytest.raises(SimulationError):
            FlowEngine(hb, tm, link_faults=[(nodes[0], nodes[0])])
        other = HyperButterfly(2, 4)
        schedule = FaultSchedule(other, [])
        with pytest.raises(SimulationError):
            FlowEngine(hb, tm, schedule=schedule)


class TestEventSimPinningSortPath(TestEventSimPinning):
    """The same grid with every narrow tick on the link sort path."""

    small_tick = 0


def _masked(result, horizon):
    """A full run's outcome as a run stopped at ``horizon`` reports it."""
    late_drop = result.drop_at > horizon
    return {
        "delivered_at": np.where(
            result.delivered_at > horizon, -1, result.delivered_at
        ),
        "drop_code": np.where(late_drop, 0, result.drop_code),
        "drop_at": np.where(late_drop, -1, result.drop_at),
    }


def _first_tick_reaching(topology, tm, routes, ticks):
    """The smallest ``until`` whose run processes ``ticks`` ticks."""
    assert FlowEngine(topology, tm, routes).run().ticks_processed >= ticks
    for until in itertools.count():
        engine = FlowEngine(topology, tm, routes).run(until=until)
        if engine.ticks_processed >= ticks:
            return until


class TestPartialRuns(_NarrowTickPath):
    """A fault-free engine records a delivery when the last hop is sent,
    yet a stopped run reports exactly what the event queue has processed
    by the run's horizon: ``until``, or the last tick ``max_ticks`` let
    it process."""

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("family", ["hotspot", "incast"])
    def test_stopped_runs_report_the_full_run_masked_at_the_horizon(
        self, topology, family
    ):
        tm = build_workload(topology, family, count=300, seed=17, per_tick=25)
        routes = routes_block(topology, tm.sources, tm.targets)
        full = FlowEngine(topology, tm, routes).run().result()
        stops = [({"until": u}, u) for u in (0, 3, 4, 7, 11, 16)]
        stops += [
            ({"max_ticks": k}, _first_tick_reaching(topology, tm, routes, k))
            for k in (1, 4, 9)
        ]
        masked_any = False
        for run_kwargs, horizon in stops:
            engine = FlowEngine(topology, tm, routes).run(**run_kwargs)
            res = engine.result()
            for field, expected in _masked(full, horizon).items():
                assert np.array_equal(getattr(res, field), expected), (
                    run_kwargs, field,
                )
            masked_any |= bool((full.delivered_at > horizon).any())
            # hop counts of flows still in flight come from the event queue
            _assert_same_outcomes(
                _event_sim(topology, tm, routes, until=horizon), engine
            )
        assert masked_any

    def test_hotspot_until_hides_later_deliveries(self):
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "hotspot", count=300, seed=17, per_tick=25)
        engine = FlowEngine(hb, tm).run(until=4)
        res = engine.result()
        assert int(res.delivered_at.max()) == 4
        assert engine.stats().delivered == 32
        assert int(engine.delivered_at.max()) > 4  # recorded, not reported
        assert engine.run().stats().delivered == 300

    def test_nothing_is_reported_before_the_first_run(self):
        hb = HyperButterfly(2, 3)
        tm = TrafficMatrix.from_ranks([3, 3], [3, 5], inject_at=[0, 0])
        engine = FlowEngine(hb, tm)
        assert engine.result().delivered_at.tolist() == [-1, -1]
        assert engine.run(until=0).result().delivered_at.tolist() == [0, -1]

    def test_a_lower_until_does_not_hide_processed_ticks(self):
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "hotspot", count=300, seed=17, per_tick=25)
        engine = FlowEngine(hb, tm).run(until=9)
        before = engine.result().delivered_at
        assert np.array_equal(engine.run(until=2).result().delivered_at, before)


class TestPartialRunsSortPath(TestPartialRuns):
    """The same grid with every narrow tick on the link sort path."""

    small_tick = 0


def _fifo_reference(tm, routes, config):
    """Per-flow ``(delivered_at, hops)`` under the engine's link model.

    One packet at a time in event order — ``(tick, push order)``, flows
    injected in id order before any hop is pushed.  Each directed link
    sends in rounds of ``latency`` ticks carrying up to ``capacity``
    packets first come first served; a round is filled only by sends of
    the tick that opened it, and the next round starts when the previous
    one ends (or at the send's tick, if later).
    """
    targets = tm.targets.tolist()
    lengths = routes.lengths.tolist()
    hops = routes.hops.tolist()
    gens = routes.gen_idx.tolist()
    cur = tm.sources.tolist()
    pos = [0] * len(cur)
    delivered = [-1] * len(cur)
    seq = itertools.count()
    queue = [(int(t), next(seq), i) for i, t in enumerate(tm.inject_at)]
    heapq.heapify(queue)
    rounds: dict[tuple[int, int], list[int]] = {}  # link -> [opened, start, fill]
    while queue:
        tick, _, i = heapq.heappop(queue)
        if cur[i] == targets[i]:
            delivered[i] = tick
            continue
        assert pos[i] < lengths[i]
        link = (cur[i], hops[i][pos[i]])
        cls = config.class_for(routes.gen_names[gens[i][pos[i]]])
        state = rounds.get(link)
        if state is not None and state[0] == tick and state[2] < cls.capacity:
            state[2] += 1
        else:
            start = tick if state is None else max(tick, state[1] + cls.latency)
            state = rounds[link] = [tick, start, 1]
        cur[i] = link[1]
        pos[i] += 1
        heapq.heappush(queue, (state[1] + cls.latency, next(seq), i))
    return delivered, pos


def _cube_fly_config(routes):
    """Capacity 2 on cube links, latency 3 on butterfly / shift links."""
    return LinkConfig(
        classes=[LinkClass("cube", capacity=2), LinkClass("fly", latency=3)],
        assign={
            name: "cube" if name.startswith("h_") else "fly"
            for name in routes.gen_names
        },
    )


class TestLinkModelReference(_NarrowTickPath):
    """Capacity and latency above one, against the per-link FIFO model."""

    @pytest.mark.parametrize(
        "topology",
        [HyperButterfly(2, 3), HyperDeBruijn(2, 3), Hypercube(4)],
        ids=lambda t: t.name,
    )
    @pytest.mark.parametrize("family", ["hotspot", "incast"])
    @pytest.mark.parametrize("per_tick", [None, 10], ids=["batch", "paced"])
    def test_engine_matches_fifo_reference(self, topology, family, per_tick):
        tm = build_workload(topology, family, count=300, seed=3,
                            per_tick=per_tick)
        routes = routes_block(topology, tm.sources, tm.targets)
        config = _cube_fly_config(routes)
        res = FlowEngine(topology, tm, routes, link_config=config).run().result()
        delivered, hops = _fifo_reference(tm, routes, config)
        assert res.delivered_at.tolist() == delivered
        assert res.hops.tolist() == hops
        # the configuration must actually queue: some flow waits on a link
        lat = np.array([config.class_for(g).latency for g in routes.gen_names])
        hop_lat = np.where(routes.gen_idx >= 0, lat[routes.gen_idx], 0)
        assert (res.delivered_at > tm.inject_at + hop_lat.sum(axis=1)).any()


class TestLinkModelReferenceSortPath(TestLinkModelReference):
    """The same grid with every narrow tick on the link sort path."""

    small_tick = 0


#: batch loads whose ticks carry thousands of sends, so lone sends take
#: the slot-table path; the torus exercises the generic, unlabelled routes
WIDE_TOPOLOGIES = [
    HyperButterfly(3, 5),
    HyperDeBruijn(2, 5),
    Hypercube(8),
    Torus(12, 12),
]


def _wide_load(topology, family="uniform", count=3000, seed=23):
    tm = build_workload(topology, family, count=count, seed=seed)
    return tm, routes_block(topology, tm.sources, tm.targets)


def _spy_wide_ticks(monkeypatch):
    """Record the width of every hashed tick and the ticks in which a lone
    send waited on a link still busy after the tick (``base > tick``)."""
    widths, waits = [], []
    alone_on_link = FlowEngine._alone_on_link
    delay_lone_sends = FlowEngine._delay_lone_sends

    def spy_alone(self, link):
        widths.append(len(link))
        return alone_on_link(self, link)

    def spy_delay(self, link, lat, fin, tick):
        hit_at = delay_lone_sends(self, link, lat, fin, tick)
        if hit_at is not None and (self._busy_free[hit_at] > tick).any():
            waits.append(tick)
        return hit_at

    monkeypatch.setattr(FlowEngine, "_alone_on_link", spy_alone)
    monkeypatch.setattr(FlowEngine, "_delay_lone_sends", spy_delay)
    return widths, waits


def _outcome(engine):
    res = engine.result()
    return (
        engine.ticks_processed,
        *(
            getattr(res, f).tolist()
            for f in ("delivered_at", "drop_code", "drop_at", "hops")
        ),
    )


class TestWideTicks:
    """Ticks of at least ``_WIDE_TICK`` sends: lone sends skip the link
    sort, the rest take it, and both must replay the event order exactly."""

    @pytest.mark.parametrize("topology", WIDE_TOPOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("regime", ["fault-free", "faulty", "ttl3"])
    def test_event_sim_pin(self, topology, regime, monkeypatch):
        widths, _ = _spy_wide_ticks(monkeypatch)
        tm, routes = _wide_load(topology)
        kwargs = {}
        if regime == "faulty":
            nodes, links, schedule = _sample_regime(topology, 5)
            kwargs = dict(faults=nodes, link_faults=links, schedule=schedule)
        elif regime == "ttl3":
            kwargs = dict(ttl=3)
        engine = _assert_bit_identical(topology, tm, routes, **kwargs)
        assert len(widths) > 3 and min(widths) >= flow_module._WIDE_TICK
        if regime != "fault-free":
            assert engine.stats().dropped > 0

    @pytest.mark.parametrize(
        "topology", WIDE_TOPOLOGIES[:3], ids=lambda t: t.name
    )
    @pytest.mark.parametrize("family", ["uniform", "hotspot"])
    def test_fifo_reference_pin(self, topology, family, monkeypatch):
        widths, waits = _spy_wide_ticks(monkeypatch)
        tm, routes = _wide_load(topology, family)
        config = _cube_fly_config(routes)
        res = FlowEngine(topology, tm, routes, link_config=config).run().result()
        delivered, hops = _fifo_reference(tm, routes, config)
        assert res.delivered_at.tolist() == delivered
        assert res.hops.tolist() == hops
        assert widths and waits

    @pytest.mark.parametrize(
        "topology", [Hypercube(8), HyperButterfly(3, 5)], ids=lambda t: t.name
    )
    def test_lone_send_waits_on_a_busy_link(self, topology, monkeypatch):
        """Unit links, hotspot load: a wide tick holds lone sends whose
        link a queue from an earlier tick still occupies."""
        _, waits = _spy_wide_ticks(monkeypatch)
        tm, routes = _wide_load(topology, "hotspot")
        _assert_bit_identical(topology, tm, routes)
        assert waits

    @pytest.mark.parametrize("topology", WIDE_TOPOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("family", ["uniform", "hotspot"])
    def test_slot_table_and_cutoff_do_not_change_results(
        self, topology, family, monkeypatch
    ):
        tm, routes = _wide_load(topology, family, count=2500)
        nodes, links, schedule = _sample_regime(topology, 9)
        configs = [None, LinkConfig.uniform(latency=2, capacity=2)]
        if routes.gen_names is not None:
            configs.append(_cube_fly_config(routes))

        def outcomes():
            return [
                _outcome(
                    FlowEngine(
                        topology, tm, routes, link_config=config,
                        faults=nodes, link_faults=links, schedule=schedule,
                    ).run()
                )
                for config in configs
            ]

        default = outcomes()
        for name, value in [
            ("_SLOT_TABLE_CAP", 2),  # nearly every send collides
            ("_WIDE_TICK", 0),  # every tick is hashed
            ("_WIDE_TICK", float("inf")),  # no tick is hashed
            ("_SMALL_TICK", 0),  # no scalar tick
            ("_SMALL_TICK", flow_module._WIDE_TICK),  # every narrow tick is
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(flow_module, name, value)
                assert outcomes() == default, (name, value)


def _spy_pushes(monkeypatch):
    """Record every ``(tick, flow ids)`` chunk the engine pushes."""
    pushes = []
    push = FlowEngine._push

    def spy(self, tick, flow_ids):
        pushes.append((tick, flow_ids.tolist()))
        return push(self, tick, flow_ids)

    monkeypatch.setattr(FlowEngine, "_push", spy)
    return pushes


class TestTickPaths:
    """The three tick paths — the scalar pass below ``_SMALL_TICK`` sends,
    the link sort below ``_WIDE_TICK``, the hash tables above — slot,
    settle and schedule sends identically."""

    @staticmethod
    def _runs(monkeypatch):
        """A hotspot load that reaches all three paths, fault-free and under
        the faulty regime, with unit and with cube/fly link classes."""
        hb = HyperButterfly(3, 5)
        tm, routes = _wide_load(hb, "hotspot")
        nodes, links, schedule = _sample_regime(hb, 5)
        faulty = dict(faults=nodes, link_faults=links, schedule=schedule)
        for kwargs in ({}, faulty):
            for config in (None, _cube_fly_config(routes)):
                yield lambda: FlowEngine(
                    hb, tm, routes, link_config=config, **kwargs
                )

    def test_busy_set_stays_sorted_unique_and_pruned(self, monkeypatch):
        """After every tick the busy set is sorted and unique, and holds
        only links free after ``tick + 1`` — or, when the tick sent
        nothing, is the set the last sending tick left."""
        paths = _spy_tick_paths(monkeypatch)
        spied_step = FlowEngine._step
        checked = []

        def step(self, ids, tick):
            before = (self._busy_ids, self._busy_free, sum(paths.values()))
            spied_step(self, ids, tick)
            busy, free = self._busy_ids, self._busy_free
            if sum(paths.values()) == before[2]:
                assert busy is before[0] and free is before[1], tick
                return
            assert len(busy) == len(free)
            assert (np.diff(busy) > 0).all(), tick  # sorted and unique
            assert (free > tick + 1).all(), tick
            checked.append(len(busy))

        monkeypatch.setattr(FlowEngine, "_step", step)
        for make in self._runs(monkeypatch):
            paths.clear()
            make().run()
            assert paths["scalar"] and paths["sort"] and paths["hash"]
        assert max(checked) > 0

    def test_paths_push_the_same_chunks(self, monkeypatch):
        """Push for push: each path schedules the same arrivals, per finish
        tick in ascending order, each chunk in forwarder order."""
        pushes = _spy_pushes(monkeypatch)
        for make in self._runs(monkeypatch):
            runs = []
            for small in (flow_module._SMALL_TICK, 0, flow_module._WIDE_TICK):
                with monkeypatch.context() as patch:
                    patch.setattr(flow_module, "_SMALL_TICK", small)
                    pushes.clear()
                    runs.append((_outcome(make().run()), list(pushes)))
            assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("small_tick", [None, 0, "wide"])
    def test_a_links_first_send_sets_its_capacity_and_free_tick(
        self, small_tick, monkeypatch
    ):
        """Five sends share one link, the last three labelled with a slow
        class: every send finishes by its own latency, but the first
        send's capacity slots them all and its latency frees the link."""
        if small_tick == "wide":
            monkeypatch.setattr(flow_module, "_WIDE_TICK", 0)
        elif small_tick is not None:
            monkeypatch.setattr(flow_module, "_SMALL_TICK", small_tick)
        hb = HyperButterfly(2, 3)
        codec = codec_for(hb)
        v = codec.rank(next(iter(hb.neighbors(codec.unrank(0)))))
        tm = TrafficMatrix.from_ranks([0] * 6, [v] * 6, inject_at=[0] * 5 + [1])
        routes = routes_block(hb, tm.sources, tm.targets)
        fast = int(routes.gen_idx[0, 0])
        slow = (fast + 1) % len(routes.gen_names)
        routes.gen_idx[2:5, 0] = slow
        config = LinkConfig(
            classes=[LinkClass("slow", latency=3, capacity=2)],
            assign={routes.gen_names[slow]: "slow"},
        )
        res = FlowEngine(hb, tm, routes, link_config=config).run().result()
        # capacity 1: slots 1..5 of latency 1 or 3; the link frees at 0 + 5
        # and the sixth send, at tick 1, leaves then
        assert res.delivered_at.tolist() == [1, 2, 9, 12, 15, 6]

    def test_a_finish_tick_past_int64_is_refused(self):
        """Refused at construction, before any tick could wrap."""
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "uniform", count=4, seed=1)
        config = LinkConfig.uniform(latency=2**62)
        with pytest.raises(SimulationError, match="past int64"):
            FlowEngine(hb, tm, link_config=config)

    @pytest.mark.parametrize(
        "patch", [None, ("_SMALL_TICK", 0), ("_WIDE_TICK", 0)],
        ids=["scalar", "sort", "hash"],
    )
    def test_int64_bound_holds_on_every_tick_path(self, patch, monkeypatch):
        """Flows of 4, 1, 1 and 3 hops injected at tick 0, at latency 2**62:
        the numpy paths once reported ``delivered_at`` ``[0, 2**62, 2**62,
        -2**62]``.  The bound is the sends times the largest latency past
        the last injection, so the largest latency it admits runs, with
        exact finish ticks."""
        if patch is not None:
            monkeypatch.setattr(flow_module, *patch)
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "uniform", count=4, seed=1)
        routes = routes_block(hb, tm.sources, tm.targets)
        assert routes.lengths.tolist() == [4, 1, 1, 3]
        assert tm.inject_at.tolist() == [0, 0, 0, 0]
        with pytest.raises(SimulationError, match="past int64"):
            FlowEngine(hb, tm, routes, link_config=LinkConfig.uniform(latency=2**62))
        latency = (2**63 - 1) // 9
        engine = FlowEngine(
            hb, tm, routes, link_config=LinkConfig.uniform(latency=latency)
        ).run()
        finish = engine.result().delivered_at.tolist()
        assert finish == [4 * latency, latency, latency, 3 * latency]


class TestEngineSemantics(_NarrowTickPath):
    def test_unreachable_target_drops_no_route(self):
        # disconnect a node pair by routing over an empty route block
        hb = HyperButterfly(2, 3)
        tm = TrafficMatrix.from_ranks([0], [5])
        routes = routes_block(hb, tm.sources, tm.targets)
        routes.lengths[0] = -1  # pretend unreachable
        engine = FlowEngine(hb, tm, routes).run()
        res = engine.result()
        assert DROP_REASONS[res.drop_code[0]] == "no_route"
        assert int(res.delivered_at[0]) == -1

    def test_zero_length_flow_delivers_at_injection(self):
        hb = HyperButterfly(2, 3)
        tm = TrafficMatrix.from_ranks([3], [3], inject_at=[5])
        engine = FlowEngine(hb, tm).run()
        assert int(engine.result().delivered_at[0]) == 5
        assert engine.stats().mean_latency == 0.0  # reprolint: disable=HB301 -- 0/1 is exactly 0.0 in float64

    def test_zero_length_batch_processes_no_tick(self):
        hb = HyperButterfly(2, 3)
        tm = TrafficMatrix.from_ranks([3, 0, 3], [3, 0, 3], inject_at=[5, 2, 9])
        engine = FlowEngine(hb, tm).run()
        assert engine.result().delivered_at.tolist() == [5, 2, 9]
        assert engine.ticks_processed == 0

    @staticmethod
    def _lone_flow(hb):
        """One flow of length 4 from rank 0, injected at tick 3, and a node
        none of its hops touches."""
        codec = codec_for(hb)
        target = next(
            v for v in range(hb.num_nodes)
            if hb.distance(codec.unrank(0), codec.unrank(v)) == 4
        )
        tm = TrafficMatrix.from_ranks([0], [target], inject_at=[3])
        routes = routes_block(hb, tm.sources, tm.targets)
        on_route = {0, *routes.hops[0].tolist()}
        elsewhere = codec.unrank(
            next(v for v in range(hb.num_nodes) if v not in on_route)
        )
        return tm, routes, elsewhere

    def test_lone_flow_takes_one_tick_per_hop(self):
        hb = HyperButterfly(2, 3)
        tm, routes, _ = self._lone_flow(hb)
        engine = FlowEngine(hb, tm, routes).run()
        assert int(engine.result().delivered_at[0]) == 3 + 4
        assert engine.ticks_processed == 4

    def test_a_fault_input_keeps_the_arrival_tick(self):
        # a static fault off the route changes no outcome, but the engine
        # then resolves the delivery at the arrival tick, one tick more
        hb = HyperButterfly(2, 3)
        tm, routes, elsewhere = self._lone_flow(hb)
        engine = FlowEngine(hb, tm, routes, faults=[elsewhere]).run()
        assert int(engine.result().delivered_at[0]) == 3 + 4
        assert engine.ticks_processed == 5

    def test_link_latency_scales_delivery_time(self):
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "uniform", count=20, seed=1)
        routes = routes_block(hb, tm.sources, tm.targets)
        unit = FlowEngine(hb, tm, routes).run().result()
        config = LinkConfig(default=LinkClass("default", latency=3))
        slow = FlowEngine(hb, tm, routes, link_config=config).run().result()
        # uncontended flows: every hop takes exactly 3x as long
        free = unit.delivered_at == tm.inject_at + unit.hops
        assert free.any()
        assert np.array_equal(
            slow.delivered_at[free], tm.inject_at[free] + 3 * slow.hops[free]
        )

    def test_capacity_bounds_per_link_throughput(self):
        # 8 flows over the same single-edge route, capacity 2, latency 1:
        # deliveries complete in ceil(8/2) = 4 batches
        hb = HyperButterfly(2, 3)
        codec = codec_for(hb)
        u = codec.unrank(0)
        v = next(iter(hb.neighbors(u)))
        rv = codec.rank(v)
        tm = TrafficMatrix.from_ranks([0] * 8, [rv] * 8)
        routes = routes_block(hb, tm.sources, tm.targets)
        config = LinkConfig(default=LinkClass("default", capacity=2))
        res = FlowEngine(hb, tm, routes, link_config=config).run().result()
        ticks = np.sort(res.delivered_at)
        assert ticks.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_generator_class_assignment(self):
        # cube hops slow (latency 4), butterfly hops unit: a pure-cube
        # flow takes 4 ticks per hop, a pure-butterfly flow stays at 1
        hb = HyperButterfly(2, 3)
        gens = hb.gens
        cube_names = {name for name in gens.names if name.startswith("h_")}
        config = LinkConfig(
            classes=[LinkClass("cube", latency=4)],
            assign={name: "cube" for name in cube_names},
        )
        codec = codec_for(hb)
        cube_target = codec.rank(hb.group.multiply(codec.unrank(0), gens.generators[0]))
        fly_target = codec.rank(
            hb.group.multiply(codec.unrank(0), gens.generators[len(cube_names)])
        )
        tm = TrafficMatrix.from_ranks([0, 0], [cube_target, fly_target])
        routes = routes_block(hb, tm.sources, tm.targets)
        res = FlowEngine(hb, tm, routes, link_config=config).run().result()
        assert res.delivered_at.tolist() == [4, 1]

    def test_until_leaves_flows_in_flight(self):
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "uniform", count=50, seed=3, per_tick=5)
        engine = FlowEngine(hb, tm).run(until=2)
        stats = engine.stats()
        assert stats.delivered < 50
        assert stats.dropped == 0  # in flight, not dropped
        engine.run()
        assert engine.stats().delivered == 50

    def test_result_curves_and_drop_counts(self):
        hb = HyperButterfly(2, 3)
        static_nodes, static_links, schedule = _sample_regime(hb, 3)
        tm = build_workload(hb, "uniform", count=80, seed=11, per_tick=20)
        engine = FlowEngine(
            hb, tm, faults=static_nodes, link_faults=static_links,
            schedule=schedule,
        ).run()
        res = engine.result()
        curve = res.delivered_curve()
        assert int(curve.sum()) == engine.stats().delivered
        counts = res.drop_counts()
        assert sum(counts.values()) == engine.stats().dropped
        assert set(counts) <= set(DROP_REASONS[1:])

    def test_routes_for_other_traffic_rejected(self):
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "uniform", count=10, seed=1)
        other = build_workload(hb, "uniform", count=10, seed=2)
        with pytest.raises(InvalidParameterError, match="sources"):
            FlowEngine(hb, tm, routes_block(hb, other.sources, other.targets))

    @pytest.mark.parametrize("route_count", [6, 14])
    def test_route_count_mismatch_rejected(self, route_count):
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "uniform", count=10, seed=1)
        other = build_workload(hb, "uniform", count=route_count, seed=1)
        routes = routes_block(hb, other.sources, other.targets)
        with pytest.raises(InvalidParameterError, match="flows"):
            FlowEngine(hb, tm, routes)

    def test_routes_on_another_topology_rejected(self):
        hb = HyperButterfly(2, 3)
        tm = build_workload(hb, "uniform", count=10, seed=1)
        routes = routes_block(HyperButterfly(2, 4), tm.sources, tm.targets)
        with pytest.raises(InvalidParameterError, match="nodes"):
            FlowEngine(hb, tm, routes)

    def test_negative_injection_rejected(self):
        hb = HyperButterfly(2, 3)
        tm = TrafficMatrix.from_ranks([0], [5], inject_at=[-1])
        with pytest.raises(InvalidParameterError):
            FlowEngine(hb, tm)


class TestEngineSemanticsSortPath(TestEngineSemantics):
    """The same grid with every narrow tick on the link sort path."""

    small_tick = 0


class TestCodecGroupOps:
    """The vectorized group arithmetic the route builders rely on."""

    @pytest.mark.parametrize(
        "topology",
        [HyperButterfly(2, 3), CayleyButterfly(3), Hypercube(4)],
        ids=lambda t: t.name,
    )
    def test_matches_scalar_group_ops(self, topology):
        codec = codec_for(topology)
        assert codec.supports_group_ops()
        group = topology.group if hasattr(topology, "group") else None
        n = codec.num_nodes
        rng = np.random.default_rng(1)
        a = rng.integers(0, n, 200)
        b = rng.integers(0, n, 200)
        inv = codec.inverse_block(a)
        prod = codec.multiply_block(a, b)
        if group is not None:
            for i in range(200):
                ea = codec.unrank(int(a[i]))
                eb = codec.unrank(int(b[i]))
                assert int(inv[i]) == codec.rank(group.inverse(ea))
                assert int(prod[i]) == codec.rank(group.multiply(ea, eb))
        # group axioms hold rank-side regardless
        identity = codec.multiply_block(a, inv)
        assert np.all(identity == identity[0])  # a · a⁻¹ is constant...
        assert np.all(codec.multiply_block(identity, b) == b)  # ...the identity

    def test_unsupported_codec_refuses(self):
        from repro.fastgraph.codecs import NodeCodec

        class Plain(NodeCodec):
            num_nodes = 4

            def rank(self, node):
                return int(node)

            def unrank(self, idx):
                return idx

        codec = Plain()
        assert not codec.supports_group_ops()
        with pytest.raises(NotImplementedError):
            codec.inverse_block(np.array([0]))
        with pytest.raises(NotImplementedError):
            codec.multiply_block(np.array([0]), np.array([1]))
