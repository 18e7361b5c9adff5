"""The benchmark's workloads: seeded inputs, one timed operation, checks.

Each workload builds a fixed pool of seeded inputs in :meth:`setup` (the
topology, its substrate and every input an operation consumes) and then
answers :meth:`run_op` for a pool index.  The timed loop cycles through
whole passes of the pool, so every pass has the same composition.
:meth:`check` tests invariants of one output; :meth:`crosscheck` runs the
slower independent comparisons after the timed loop; :meth:`account`
records the deterministic counters of a traced operation, and
:meth:`probe` times the layers a traced run measures apart from the
operations.

Sizes are constructor arguments so the self-test can run every workload
on toy instances; :data:`WORKLOADS` holds the measured sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.disjoint_paths import construction_case
from repro.core.hyperbutterfly import HyperButterfly
from repro.core.resilient import ResilientRouter
from repro.faults.model import sample_nodes
from repro.faults.structures import (
    build_structure,
    structure_fault_diameter,
    structure_kinds,
)
from repro.fastgraph.backend import get_fastgraph
from repro.fastgraph.codecs import codec_for
from repro.fastgraph.implicit import numba_enabled
from repro.simulation.flow import FlowEngine, routes_block
from repro.simulation.workloads import build_workload
from spans import Tracer, maybe_span

#: flows per operation whose route length is compared with ``hb.distance``
DISTANCE_SAMPLES = 8
#: every how many fault-diameter operations are recomputed on the CSR backend
CSR_EVERY = 10


# -- flow-level traffic --------------------------------------------------------


@dataclass
class TrafficState:
    hb: HyperButterfly
    pool: list  # TrafficMatrix per operation
    sample_idx: list  # flows per pool entry checked against hb.distance
    samples: list = field(default_factory=list)  # (op, pool index, lengths)


class TrafficWorkload:
    """``routes_block`` -> ``FlowEngine(...).run()`` -> ``.stats()``.

    One operation routes and drains ``flows`` flows of ``family`` injected
    at tick 0; throughput counts flows.
    """

    root = "traffic.op"

    def __init__(self, seed: int, *, m: int, n: int, family: str, flows: int, pool: int) -> None:
        self.seed = seed
        self.m, self.n = m, n
        self.family = family
        self.items_per_op = flows
        self.pool = pool

    def setup(self, tracer: Tracer | None = None) -> TrafficState:
        hb = HyperButterfly(self.m, self.n)
        with maybe_span(tracer, "cayley.oracle_fill"):
            hb.cayley.oracle  # noqa: B018 - the property builds the oracle
        pool = []
        for i in range(self.pool):
            with maybe_span(tracer, "workloads.build_workload"):
                pool.append(
                    build_workload(
                        hb, self.family, count=self.items_per_op, seed=self.seed * 10_000 + i
                    )
                )
            if tracer is not None:
                tracer.count("workloads.flows", self.items_per_op)
        rng = random.Random(self.seed)
        sample_idx = [rng.sample(range(self.items_per_op), DISTANCE_SAMPLES) for _ in pool]
        return TrafficState(hb, pool, sample_idx)

    def run_op(self, state: TrafficState, i: int, tracer: Tracer | None = None) -> tuple:
        traffic = state.pool[i]
        with maybe_span(tracer, "flow.routes_block"):
            routes = routes_block(state.hb, traffic.sources, traffic.targets)
        with maybe_span(tracer, "flow.engine_init"):
            engine = FlowEngine(state.hb, traffic, routes)
        with maybe_span(tracer, "flow.engine_run"):
            if tracer is None:
                engine.run()
            else:  # one tick per call, so each tick is its own span
                while True:
                    before = engine.ticks_processed
                    with tracer.span("flow.tick"):
                        engine.run(max_ticks=before + 1)
                    if engine.ticks_processed == before:
                        break
        with maybe_span(tracer, "flow.stats"):
            stats = engine.stats()
        return routes, engine.result(), stats, engine.ticks_processed

    def check(self, state: TrafficState, op: int, i: int, out: tuple) -> bool:
        routes, result, stats, _ = out
        flows = state.pool[i].num_flows
        state.samples.append((op, i, routes.lengths[state.sample_idx[i]].copy()))
        return bool(
            result.num_flows == flows
            and stats.delivered == flows
            and (result.delivered_at >= 0).all()
            and (result.hops == routes.lengths).all()
        )

    def crosscheck(self, state: TrafficState) -> set[int]:
        """Ops whose sampled route lengths differ from ``hb.distance``."""
        codec = codec_for(state.hb)
        expected = {}
        bad = set()
        for op, i, lengths in state.samples:
            if i not in expected:
                traffic = state.pool[i]
                expected[i] = [
                    state.hb.distance(
                        codec.unrank(int(traffic.sources[k])),
                        codec.unrank(int(traffic.targets[k])),
                    )
                    for k in state.sample_idx[i]
                ]
            if lengths.tolist() != expected[i]:
                bad.add(op)
        state.samples.clear()
        return bad

    def account(self, state: TrafficState, i: int, out: tuple, tracer: Tracer) -> None:
        routes, result, _, ticks = out
        tracer.count("flow.flows", routes.num_flows)
        tracer.count("flow.ticks", ticks)
        tracer.count("flow.hop_advances", int(result.hops.sum()))
        tracer.count("flow.route_hops", int(routes.lengths.sum()))
        arrays = (routes.sources, routes.hops, routes.lengths, routes.gen_idx)
        tracer.count("flow.route_bytes", sum(a.nbytes for a in arrays if a is not None))

    def probe(self, state: TrafficState, tracer: Tracer) -> list[bool]:
        return []

    def backends(self, state: TrafficState) -> dict:
        split = state.hb.cayley.oracle.factor_split() is not None
        return {"routes": "cayley oracle, factor split" if split else "cayley oracle"}


# -- structure-fault diameter probes --------------------------------------------


@dataclass
class DiameterState:
    hb: HyperButterfly
    pool: list  # StructureFault per operation
    fault_free_diameter: int
    checked: list = field(default_factory=list)  # (op, pool index, result)


class FaultDiameterWorkload:
    """One seeded structure probed by ``structure_fault_diameter``.

    Structures cycle through every kind the topology supports (star, path,
    subcube, ring) at size 1; one boundary source, implicit BFS.
    """

    root = "fault_diameter.op"
    items_per_op = 1

    def __init__(self, seed: int, *, m: int, n: int, pool: int) -> None:
        self.seed = seed
        self.m, self.n = m, n
        self.pool = pool

    def setup(self, tracer: Tracer | None = None) -> DiameterState:
        hb = HyperButterfly(self.m, self.n)
        get_fastgraph(hb)
        centers = sample_nodes(hb, self.pool, rng=random.Random(self.seed))
        kinds = structure_kinds(hb)
        pool = [
            build_structure(hb, kinds[i % len(kinds)], center, size=1)
            for i, center in enumerate(centers)
        ]
        return DiameterState(hb, pool, hb.diameter_formula())

    def run_op(self, state: DiameterState, i: int, tracer: Tracer | None = None) -> Any:
        with maybe_span(tracer, "structures.structure_fault_diameter"):
            return structure_fault_diameter(
                state.hb, state.pool[i], backend="implicit", source_sample=0, boundary_cap=1
            )

    def check(self, state: DiameterState, op: int, i: int, out: Any) -> bool:
        if op % CSR_EVERY == 0:
            state.checked.append((op, i, out))
        # One size-1 structure leaves HB connected (tests/faults pins this
        # exactly on HB(2,3)).  Masking never shortens a path, and the nodes
        # at the fault-free diameter from the boundary source survive: the
        # structure lies next to the source and spans fewer hops than that.
        return bool(
            out.connected
            and out.diameter >= state.fault_free_diameter
            and out.survivors + out.faulted == state.hb.num_nodes
            and out.faulted == len(state.pool[i])
            and out.sources_examined == 1
        )

    def crosscheck(self, state: DiameterState) -> set[int]:
        """Ops whose result differs on the CSR backend (every 10th op)."""
        bad = set()
        for op, i, out in state.checked:
            csr = structure_fault_diameter(
                state.hb, state.pool[i], backend="csr", source_sample=0, boundary_cap=1
            )
            if csr != out:
                bad.add(op)
        state.checked.clear()
        return bad

    def account(self, state: DiameterState, i: int, out: Any, tracer: Tracer) -> None:
        """A standalone masked BFS from the probe's source, as its own span."""
        structure = state.pool[i]
        blocked = structure.node_set
        source = sorted(set(structure.boundary()) - blocked)[0]
        fast = get_fastgraph(state.hb)
        with tracer.span("implicit.masked_bfs"):
            ecc, reached = fast.masked_source_stats(source, blocked=blocked, backend="implicit")
        tracer.count("implicit.bfs", 1)
        tracer.count("implicit.levels", ecc)
        tracer.count("implicit.reached", reached)
        tracer.count("implicit.arcs", reached * state.hb.degree_formula)

    def probe(
        self, state: DiameterState, tracer: Tracer, *, repeats: int = 9, size: int = 65_536
    ) -> list[bool]:
        """Time ``neighbors_block`` on a fixed-size block of seeded ranks."""
        ranks = np.random.default_rng(self.seed).integers(
            0, state.hb.num_nodes, size=size, dtype=np.int64
        )
        codec = codec_for(state.hb)
        for _ in range(repeats):
            with tracer.span("codecs.neighbors_block"):
                arcs = codec.neighbors_block(ranks)
        tracer.count("codecs.neighbors_block.arcs", int((arcs >= 0).sum()))
        return []

    def backends(self, state: DiameterState) -> dict:
        fast = get_fastgraph(state.hb)
        return {
            "bfs": fast.select_backend("implicit"),
            "crosscheck_bfs": fast.select_backend("csr"),
            "numba": numba_enabled(),
        }


# -- fault-tolerant routing ------------------------------------------------------


def double_corner(hb: HyperButterfly, u: tuple, v: tuple) -> bool:
    """Whether ``(u, v)`` meets both case-3 corners of Theorem 5's
    construction: ``dist(h, h') = 1`` and ``b'`` adjacent to ``b``."""
    return (u[0] ^ v[0]).bit_count() == 1 and any(
        w[1] == v[1] for w in hb.butterfly_neighbors(u)
    )


@dataclass
class RoutingState:
    hb: HyperButterfly
    pool: list  # (u, v, frozenset of node faults) per operation
    corner: tuple  # one double-corner (u, v, faults), routed by the traced run
    router: ResilientRouter


class FaultRoutingWorkload:
    """``ResilientRouter.route_ex(u, v, node_faults=...)`` under m+3 faults.

    Every pair is fresh to the router (a new router starts each pass).
    Double corners of Theorem 5's case 3 (see :func:`double_corner`) fall
    back to a global max-flow family, about 40x slower than other pairs
    and about 1 in 900 pairs on ``HB(4, 7)``.  A single one would take a
    fifth of a run's time, so the timed pool holds none: every pair is
    redrawn until it is not one.  Set-up draws one double corner as well,
    and the traced run routes it in its own span (:meth:`probe`).
    """

    root = "fault_routing.op"
    items_per_op = 1

    def __init__(self, seed: int, *, m: int, n: int, pool: int) -> None:
        self.seed = seed
        self.m, self.n = m, n
        self.pool = pool

    def setup(self, tracer: Tracer | None = None) -> RoutingState:
        hb = HyperButterfly(self.m, self.n)
        faults = self.m + 3
        group = faults + 3  # u, then candidates for v and the faults
        rng = random.Random(self.seed)
        nodes = sample_nodes(hb, (self.pool + 2) * group, rng=rng)
        pool = []
        for i in range(self.pool + 2):
            u, *candidates = nodes[i * group : (i + 1) * group]
            if i == self.pool:  # the double corner
                h = rng.choice(hb.hypercube_neighbors(u))[0]
                b = rng.choice(hb.butterfly_neighbors(u))[1]
                v = (h, b)
            else:
                v = next(x for x in candidates if not double_corner(hb, u, x))
            pool.append((u, v, frozenset([x for x in candidates if x != v][:faults])))
        router = ResilientRouter(hb)
        u, v, blocked = pool.pop()  # warm-up route: builds the factor graphs
        router.route_ex(u, v, node_faults=blocked)
        corner = pool.pop()
        return RoutingState(hb, pool, corner, router)

    def run_op(self, state: RoutingState, i: int, tracer: Tracer | None = None) -> Any:
        if i == 0:
            state.router = ResilientRouter(state.hb)
        u, v, blocked = state.pool[i]
        with maybe_span(tracer, "resilient.route_ex"):
            return state.router.route_ex(u, v, node_faults=blocked)

    def check(self, state: RoutingState, op: int, i: int, out: Any) -> bool:
        return self._valid(state, state.pool[i], out)

    def _valid(self, state: RoutingState, pair: tuple, out: Any) -> bool:
        u, v, blocked = pair
        path = out.path
        return bool(
            path[0] == u
            and path[-1] == v
            and all(state.hb.has_edge(a, b) for a, b in zip(path, path[1:]))
            and blocked.isdisjoint(path)
            and out.strategy == "disjoint"  # Theorem 5: m + 3 faults never defeat the family
        )

    def crosscheck(self, state: RoutingState) -> set[int]:
        return set()

    def account(self, state: RoutingState, i: int, out: Any, tracer: Tracer) -> None:
        u, v, _ = state.pool[i]
        tracer.count("resilient.routes", 1)
        tracer.count("resilient.disjoint", out.strategy == "disjoint")
        tracer.count("disjoint_paths.case3", construction_case(u, v) == 3)
        tracer.count("resilient.stretch_sum", (len(out.path) - 1) / state.hb.distance(u, v))

    def probe(self, state: RoutingState, tracer: Tracer) -> list[bool]:
        """Route the double corner on a fresh router, as its own root span."""
        u, v, blocked = state.corner
        router = ResilientRouter(state.hb)
        with tracer.span("resilient.corner"):
            out = router.route_ex(u, v, node_faults=blocked)
        return [self._valid(state, state.corner, out)]

    def backends(self, state: RoutingState) -> dict:
        return {"route": "ResilientRouter: disjoint family, adaptive BFS fallback"}


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """A named workload at its measured size, plus the toy used to warm up."""

    build: Callable[[int], Any]
    toy: Callable[[int], Any]
    item: str


WORKLOADS = {
    "traffic-uniform": Spec(
        build=lambda s: TrafficWorkload(s, m=6, n=11, family="uniform", flows=10_000, pool=12),
        toy=lambda s: TrafficWorkload(s, m=2, n=3, family="uniform", flows=200, pool=2),
        item="flows",
    ),
    "traffic-hotspot": Spec(
        build=lambda s: TrafficWorkload(s, m=6, n=11, family="hotspot", flows=3_000, pool=32),
        toy=lambda s: TrafficWorkload(s, m=2, n=3, family="hotspot", flows=200, pool=2),
        item="flows",
    ),
    "fault-diameter": Spec(
        build=lambda s: FaultDiameterWorkload(s, m=4, n=10, pool=32),
        toy=lambda s: FaultDiameterWorkload(s, m=2, n=3, pool=4),
        item="probes",
    ),
    "fault-routing": Spec(
        build=lambda s: FaultRoutingWorkload(s, m=4, n=7, pool=100),
        toy=lambda s: FaultRoutingWorkload(s, m=2, n=3, pool=4),
        item="routes",
    ),
}
