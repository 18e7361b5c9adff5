"""Vectorized flow-level traffic engine: whole traffic matrices per tick.

The discrete-event simulator (:mod:`repro.simulation.network`) processes
one packet-hop event at a time — exact, but hopeless past ~10^5 packets.
This module advances **all in-flight flows of a tick at once** with numpy
array arithmetic, at cost ``O(flows arriving this tick)`` per tick:

* **Routes** are precomputed in bulk (:func:`routes_block`) as packed-rank
  hop arrays — a ``(flows, max_hops)`` int64 matrix of successive node
  ranks — via the :class:`repro.cayley.graph.DistanceOracle` factor-split
  fast path (per-factor word tables combined through the quotient
  ``source⁻¹·target``, computed with the codec's vectorized group
  arithmetic) for Cayley families, a dedicated e-cube + shift-in builder
  for the hyper-de Bruijn baseline, a bit-scatter e-cube builder for the
  hypercube, and a per-pair python fallback for everything else.
* **Dynamics** (:class:`FlowEngine`) replay the event simulator's
  fire-and-forget store-and-forward model tick-synchronously: each tick's
  sends are grouped by packed directed link id with one unstable sort,
  forwarder order is restored inside each link by one sort of the packed
  key ``group * sends + forwarder index`` (the scatter-add analogue of
  ``np.bincount`` on link ids, canonical however the sort breaks ties),
  transmission slots are handed out capacity-limited per link, and fault
  fail/repair events replay the depth-counted
  :class:`repro.faults.dynamic.FaultState` epochs as vectorized masks.

**Bit-identical fallback discipline.**  With unit link classes the engine
is pinned *event for event* against :class:`NetworkSimulator` (hop_time 0,
link_time 1, integer injection ticks, fire-and-forget transport, source
routing along the same :class:`RouteBlock`): identical per-flow delivery
ticks, hop counts, drop reasons and therefore identical
:class:`LatencyStats`.  The equivalence argument: with those parameters
every event lands on an integer tick and no event schedules another event
at its own tick, so processing whole ticks in event order is exact; within
a tick the event queue orders fault events before injections before hop
completions (scheduling order), and hop completions by the order their
sends were processed.  A tick's bucket holds exactly that order without
any per-flow bookkeeping: its injection chunk (ascending flow ids) is
pushed first, later chunks are pushed in increasing processing tick, and
each tick pushes its arrivals per finish tick in forwarder order — which
is processing order.
Capacity/latency link classes beyond the unit model generalize the event
simulator rather than mirror it (it has no capacity notion).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable

import numpy as np

from repro.errors import InvalidParameterError, SimulationError
from repro.simulation.linkconfig import LinkConfig
from repro.simulation.stats import LatencyStats
from repro.simulation.workloads import TrafficMatrix

if TYPE_CHECKING:
    from repro.faults.dynamic import FaultSchedule
    from repro.fastgraph.codecs import NodeCodec

__all__ = [
    "DROP_REASONS",
    "RouteBlock",
    "routes_block",
    "register_route_builder",
    "FlowResult",
    "FlowEngine",
]

#: drop-code -> reason string, aligned with the event simulator's reasons
DROP_REASONS = ("", "node_fault", "link_fault", "ttl_expired", "no_route")
_DROP_NODE = 1
_DROP_LINK = 2
_DROP_TTL = 3
_DROP_NOROUTE = 4


# Route blocks --------------------------------------------------------------


@dataclass(eq=False)
class RouteBlock:
    """Bulk source routes: packed-rank hop arrays for a flow batch.

    ``hops[i, k]`` is the rank of flow ``i``'s position after ``k + 1``
    edges; ``lengths[i]`` is the edge count (0 when source == target, -1
    when unreachable), entries beyond it are ``-1`` padding.  ``gen_idx``
    labels each hop with the index of the generator/dimension that induced
    it (``-1`` = unlabelled), which :class:`LinkConfig` maps to link
    classes via ``gen_names``.
    """

    codec: NodeCodec
    sources: np.ndarray
    hops: np.ndarray
    lengths: np.ndarray
    gen_idx: np.ndarray | None = None
    gen_names: tuple[str, ...] | None = None

    @property
    def num_flows(self) -> int:
        return len(self.sources)

    @property
    def max_hops(self) -> int:
        return self.hops.shape[1]

    def label_path(self, i: int) -> list[Hashable] | None:
        """Flow ``i``'s route as node labels (``None`` if unreachable) —
        the event-simulator interop used by the pinning tests."""
        if self.lengths[i] < 0:
            return None
        path = [self.codec.unrank(int(self.sources[i]))]
        for k in range(int(self.lengths[i])):
            path.append(self.codec.unrank(int(self.hops[i, k])))
        return path

    def path_fn(
        self, traffic: TrafficMatrix
    ) -> Callable[[Hashable, Hashable], list[Hashable] | None]:
        """A ``(source, target) -> path`` function over this block, for
        :class:`repro.simulation.protocols.PrecomputedPathProtocol`."""
        index: dict[tuple[int, int], int] = {}
        for i, (s, t) in enumerate(
            zip(traffic.sources, traffic.targets, strict=True)
        ):
            index.setdefault((int(s), int(t)), i)

        def fn(source: Hashable, target: Hashable) -> list[Hashable] | None:
            i = index[(self.codec.rank(source), self.codec.rank(target))]
            return self.label_path(i)

        return fn


def _validated(
    codec: NodeCodec, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    if len(src) != len(dst):
        raise InvalidParameterError("sources and targets must share one length")
    for arr in (src, dst):
        if len(arr) and (int(arr.min()) < 0 or int(arr.max()) >= codec.num_nodes):
            raise InvalidParameterError("rank out of range for this topology")
    return src, dst


def _expand_gen_matrix(
    codec: NodeCodec,
    generators: tuple[Any, ...],
    sources: np.ndarray,
    gen_mat: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Turn per-flow generator words into per-flow node-rank hop arrays."""
    flows, max_len = gen_mat.shape
    hops = np.full((flows, max_len), -1, dtype=np.int64)
    cur = sources.astype(np.int64, copy=True)
    for k in range(max_len):
        active = np.flatnonzero(lengths > k)
        if not len(active):
            break
        col = gen_mat[active, k]
        for gi, gen in enumerate(generators):
            sub = active[col == gi]
            if len(sub):
                cur[sub] = codec.apply_generator(cur[sub], gen)
        hops[active, k] = cur[active]
    return hops


def _cayley_routes(
    topology: Any, sources: np.ndarray, targets: np.ndarray
) -> RouteBlock | None:
    """Oracle-backed bulk routes for Cayley topologies (HB, B_n).

    The quotient ``delta = source⁻¹·target`` of every flow is computed in
    rank space with the codec's vectorized group arithmetic; the oracle's
    word tables (per factor on the product fast path) then yield each
    flow's generator word, and applying the word columns in bulk produces
    the hop matrix.  Matches ``DistanceOracle.shortest_path`` row for row.
    """
    from repro.fastgraph.codecs import codec_for

    group = getattr(topology, "group", None)
    gens = getattr(topology, "gens", None)
    if group is None or gens is None:
        return None
    codec = codec_for(topology)
    if codec is None or codec.generators is None or not codec.supports_group_ops():
        return None
    src, dst = _validated(codec, sources, targets)
    cayley = getattr(topology, "cayley", None)
    oracle = cayley.oracle if cayley is not None else None
    if oracle is None:
        from repro.cayley.graph import DistanceOracle

        oracle = DistanceOracle(group, gens)
    delta = codec.multiply_block(codec.inverse_block(src), dst)
    split = oracle.factor_split()
    if split is not None:
        left, left_index, right, right_index = split
        lw, ld = left.word_table()
        rw, rd = right.word_table()
        # lift factor-local generator indices to parent positions
        lw = np.where(lw >= 0, np.asarray(left_index, dtype=np.int16)[lw], np.int16(-1))
        rw = np.where(rw >= 0, np.asarray(right_index, dtype=np.int16)[rw], np.int16(-1))
        nr = codec.right.num_nodes
        dl, dr = np.divmod(delta, nr)
        len_l = ld[dl]
        len_r = rd[dr]
        lengths = len_l + len_r
        gen_mat = np.full((len(src), lw.shape[1] + rw.shape[1]), -1, dtype=np.int16)
        gen_mat[:, : lw.shape[1]] = lw[dl]
        right_rows = rw[dr]
        for k in range(rw.shape[1]):
            rows = np.flatnonzero(len_r > k)
            if not len(rows):
                break
            gen_mat[rows, len_l[rows] + k] = right_rows[rows, k]
    else:
        words, dist = oracle.word_table()
        gen_mat = words[delta]
        lengths = dist[delta]
    max_len = int(lengths.max()) if len(lengths) else 0
    gen_mat = gen_mat[:, :max_len]
    hops = _expand_gen_matrix(codec, gens.generators, src, gen_mat, lengths)
    return RouteBlock(
        codec=codec,
        sources=src,
        hops=hops,
        lengths=lengths.astype(np.int64),
        gen_idx=gen_mat,
        gen_names=tuple(gens.names),
    )


def _ecube_leg(
    hops: np.ndarray,
    gen_mat: np.ndarray,
    counts: np.ndarray,
    h: np.ndarray,
    h2: np.ndarray,
    bits: int,
    pack: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rest: np.ndarray,
    gen_base: int,
) -> np.ndarray:
    """Scatter ascending-bit e-cube hops into per-flow rows; returns the
    corrected cube words, advancing ``counts`` in place."""
    cur = h.copy()
    for i in range(bits):
        rows = np.flatnonzero(((cur ^ h2) >> i) & 1)
        if not len(rows):
            continue
        cur[rows] ^= 1 << i
        hops[rows, counts[rows]] = pack(cur[rows], rest[rows])
        gen_mat[rows, counts[rows]] = gen_base + i
        counts[rows] += 1
    return cur


def _hyperdebruijn_routes(
    topology: Any, sources: np.ndarray, targets: np.ndarray
) -> RouteBlock | None:
    """E-cube + shift-in oblivious routes for ``HD(m, n)``, vectorized.

    Replays :class:`repro.simulation.protocols.HDObliviousProtocol`
    exactly: ascending-bit e-cube on the cube part, then the de Bruijn
    left-shift walk after skipping the longest suffix/prefix overlap.
    The protocol recomputes the overlap at every hop, but one shift-in
    raises the overlap by exactly one (a longer jump would contradict the
    previous overlap's maximality), so the walk equals the one-shot plan,
    never revisits a word, and never needs the self-loop/loop-erasure
    repairs of the scalar path — the whole leg vectorizes.
    """
    from repro.fastgraph.codecs import codec_for

    codec = codec_for(topology)
    if codec is None:
        return None
    m = topology.m
    n = topology.n
    src, dst = _validated(codec, sources, targets)
    nd = 1 << n
    word_mask = nd - 1
    h, d = np.divmod(src, nd)
    h2, d2 = np.divmod(dst, nd)
    # longest k with low k bits of d == high k bits of d2, vectorized
    best = np.zeros(len(src), dtype=np.int64)
    for k in range(n, 0, -1):
        match = (best == 0) & ((d & ((1 << k) - 1)) == (d2 >> (n - k)))
        best[match] = k
    best[d == d2] = n  # no de Bruijn leg at all
    cube_len = np.zeros(len(src), dtype=np.int64)
    delta_h = h ^ h2
    for i in range(m):
        cube_len += (delta_h >> i) & 1
    lengths = cube_len + (n - best)
    max_len = int(lengths.max()) if len(lengths) else 0
    hops = np.full((len(src), max_len), -1, dtype=np.int64)
    gen_mat = np.full((len(src), max_len), -1, dtype=np.int16)
    counts = np.zeros(len(src), dtype=np.int64)
    _ecube_leg(
        hops, gen_mat, counts, h, h2, m,
        lambda hw, dw: hw * nd + dw, d, gen_base=0,
    )
    cur = d.copy()
    for j in range(n):
        rows = np.flatnonzero(best + j < n)
        if not len(rows):
            break
        shift = n - best[rows] - 1 - j
        bit = (d2[rows] >> shift) & 1
        cur[rows] = ((cur[rows] << 1) & word_mask) | bit
        hops[rows, counts[rows]] = h2[rows] * nd + cur[rows]
        gen_mat[rows, counts[rows]] = m
        counts[rows] += 1
    return RouteBlock(
        codec=codec,
        sources=src,
        hops=hops,
        lengths=lengths,
        gen_idx=gen_mat,
        gen_names=tuple(f"h_{i}" for i in range(m)) + ("shift",),
    )


def _hypercube_routes(
    topology: Any, sources: np.ndarray, targets: np.ndarray
) -> RouteBlock | None:
    """Ascending-bit e-cube routes on ``H_m`` — pure bit scatter."""
    from repro.fastgraph.codecs import codec_for

    codec = codec_for(topology)
    if codec is None:
        return None
    m = topology.m
    src, dst = _validated(codec, sources, targets)
    delta = src ^ dst
    lengths = np.zeros(len(src), dtype=np.int64)
    for i in range(m):
        lengths += (delta >> i) & 1
    max_len = int(lengths.max()) if len(lengths) else 0
    hops = np.full((len(src), max_len), -1, dtype=np.int64)
    gen_mat = np.full((len(src), max_len), -1, dtype=np.int16)
    counts = np.zeros(len(src), dtype=np.int64)
    _ecube_leg(
        hops, gen_mat, counts, src, dst, m,
        lambda hw, _un: hw, np.zeros_like(src), gen_base=0,
    )
    return RouteBlock(
        codec=codec,
        sources=src,
        hops=hops,
        lengths=lengths,
        gen_idx=gen_mat,
        gen_names=tuple(f"h_{i}" for i in range(m)),
    )


def _generic_routes(
    topology: Any, sources: np.ndarray, targets: np.ndarray
) -> RouteBlock:
    """Per-unique-pair python BFS fallback — any topology, small scale."""
    from repro.fastgraph.codecs import EnumerationCodec, codec_for

    codec = codec_for(topology)
    if codec is None:
        codec = EnumerationCodec(topology.nodes())
    src, dst = _validated(codec, sources, targets)
    cache: dict[tuple[int, int], list[int] | None] = {}
    ranked_paths: list[list[int] | None] = []
    for s, t in zip(src.tolist(), dst.tolist(), strict=True):
        key = (s, t)
        if key not in cache:
            path = topology.bfs_shortest_path(codec.unrank(s), codec.unrank(t))
            cache[key] = (
                None if path is None else [codec.rank(v) for v in path[1:]]
            )
        ranked_paths.append(cache[key])
    lengths = np.asarray(
        [-1 if p is None else len(p) for p in ranked_paths], dtype=np.int64
    )
    max_len = int(lengths.max()) if len(lengths) else 0
    hops = np.full((len(src), max(max_len, 0)), -1, dtype=np.int64)
    for i, p in enumerate(ranked_paths):
        if p:
            hops[i, : len(p)] = p
    return RouteBlock(codec=codec, sources=src, hops=hops, lengths=lengths)


_ROUTE_BUILDERS: dict[str, Callable[..., RouteBlock | None]] = {}


def register_route_builder(
    type_name: str | type, builder: Callable[..., RouteBlock | None]
) -> None:
    """Register ``builder(topology, sources, targets)`` for a class (name).

    Mirrors the codec registry: keyed by class name, no topology imports,
    external families can opt in.  A builder may return ``None`` to defer
    to the structural Cayley path / generic fallback.
    """
    name = type_name if isinstance(type_name, str) else type_name.__name__
    _ROUTE_BUILDERS[name] = builder


register_route_builder("HyperDeBruijn", _hyperdebruijn_routes)
register_route_builder("Hypercube", _hypercube_routes)


def routes_block(
    topology: Any, sources: np.ndarray, targets: np.ndarray
) -> RouteBlock:
    """Bulk oblivious routes for ``(sources[i], targets[i])`` rank pairs.

    Dispatch: registered per-family builder, then the structural Cayley
    oracle path, then the generic python fallback.
    """
    for klass in type(topology).__mro__:
        builder = _ROUTE_BUILDERS.get(klass.__name__)
        if builder is not None:
            block = builder(topology, sources, targets)
            if block is not None:
                return block
    block = _cayley_routes(topology, sources, targets)
    if block is not None:
        return block
    return _generic_routes(topology, sources, targets)


# The engine ----------------------------------------------------------------


@dataclass(eq=False)
class FlowResult:
    """Per-flow outcome arrays of one engine run."""

    inject_at: np.ndarray
    delivered_at: np.ndarray  # int64; -1 = not delivered
    drop_code: np.ndarray  # int8 into DROP_REASONS; 0 = not dropped
    drop_at: np.ndarray  # int64; -1 = not dropped
    hops: np.ndarray  # int64 edges attempted (== Packet.hops)

    @property
    def num_flows(self) -> int:
        return len(self.inject_at)

    def stats(self) -> LatencyStats:
        return LatencyStats.from_arrays(
            self.inject_at,
            self.delivered_at,
            self.hops,
            dropped=int((self.drop_code > 0).sum()),
        )

    def drop_counts(self) -> dict[str, int]:
        """Drop totals by reason string, zero-count reasons omitted."""
        counts = np.bincount(self.drop_code, minlength=len(DROP_REASONS))
        return {
            DROP_REASONS[c]: int(counts[c])
            for c in range(1, len(DROP_REASONS))
            if counts[c]
        }

    def delivered_curve(self) -> np.ndarray:
        """Deliveries per tick (throughput timeline) via ``np.bincount``."""
        done = self.delivered_at[self.delivered_at >= 0]
        if not len(done):
            return np.zeros(0, dtype=np.int64)
        return np.bincount(done)


def _in_sorted(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``values`` in a sorted int array."""
    if table.size == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.minimum(np.searchsorted(table, values), table.size - 1)
    return table[pos] == values


class FlowEngine:
    """Tick-synchronous vectorized replay of store-and-forward delivery.

    Same construction surface as :class:`NetworkSimulator` (static
    ``faults``/``link_faults``, a dynamic :class:`FaultSchedule`, ``ttl``)
    plus a :class:`LinkConfig`; traffic and routes arrive as bulk arrays.
    Per-flow outcomes land in :meth:`result`; :meth:`stats` aggregates
    them into the same :class:`LatencyStats` the event simulator emits.
    """

    def __init__(
        self,
        topology: Any,
        traffic: TrafficMatrix,
        routes: RouteBlock | None = None,
        *,
        link_config: LinkConfig | None = None,
        faults: Any = (),
        link_faults: Any = (),
        schedule: FaultSchedule | None = None,
        ttl: int | None = None,
    ) -> None:
        self.topology = topology
        self.traffic = traffic
        self.routes = (
            routes
            if routes is not None
            else routes_block(topology, traffic.sources, traffic.targets)
        )
        codec = self.routes.codec
        self.codec = codec
        self.ttl = ttl
        self._num_nodes = codec.num_nodes
        flows = traffic.num_flows
        if self.routes.num_flows != flows:
            raise InvalidParameterError(
                f"route block has {self.routes.num_flows} flows, "
                f"traffic has {flows}"
            )
        if codec.num_nodes != topology.num_nodes:
            raise InvalidParameterError(
                f"route block ranks {codec.num_nodes} nodes, "
                f"{topology.name} has {topology.num_nodes}"
            )
        if not np.array_equal(self.routes.sources, traffic.sources):
            raise InvalidParameterError(
                "route block sources differ from the traffic sources"
            )
        _validated(codec, traffic.sources, traffic.targets)
        if flows and int(traffic.inject_at.min()) < 0:
            raise InvalidParameterError("injection ticks must be >= 0")
        config = link_config if link_config is not None else LinkConfig()
        self._lat_by_gen, self._cap_by_gen = config.resolve(self.routes.gen_names)
        # per-flow state: position (== attempted hops), current node and
        # the node the last hop left from
        self._pos = np.zeros(flows, dtype=np.int64)
        self._cur = traffic.sources.astype(np.int64, copy=True)
        self._came_from = np.full(flows, -1, dtype=np.int64)
        self.delivered_at = np.full(flows, -1, dtype=np.int64)
        self.drop_code = np.zeros(flows, dtype=np.int8)
        self.drop_at = np.full(flows, -1, dtype=np.int64)
        # fault state: depth-counted FaultState epochs, vectorized
        self._node_depth = np.zeros(self._num_nodes, dtype=np.int32)
        self._link_depth: dict[int, int] = {}
        self._faulty_links = np.zeros(0, dtype=np.int64)
        self._links_dirty = False
        static_nodes = dict.fromkeys(faults)  # ordered de-duplication
        for v in static_nodes:
            topology.validate_node(v)
            self._node_depth[codec.rank(v)] += 1
        for u, v in link_faults:
            if not topology.has_edge(u, v):
                raise SimulationError(f"({u!r}, {v!r}) is not an edge")
            self._bump_link(codec.rank(u), codec.rank(v), +1)
        self._events: list[tuple[float, str, str, int]] = []
        self._event_ptr = 0
        if schedule is not None:
            if schedule.topology.name != topology.name:
                raise SimulationError(
                    f"fault schedule belongs to {schedule.topology.name}, "
                    f"not {topology.name}"
                )
            for event in schedule:
                if event.kind == "node":
                    packed = codec.rank(event.target)
                else:
                    ru = codec.rank(event.target[0])
                    rv = codec.rank(event.target[1])
                    packed = min(ru, rv) * self._num_nodes + max(ru, rv)
                self._events.append(
                    (event.time, event.action, event.kind, packed)
                )
        # decided from the inputs, not by scanning the per-node depths
        self._node_faults_possible = bool(static_nodes) or any(
            kind == "node" for _, _, kind, _ in self._events
        )
        # per-directed-link busy-until ticks, kept as sorted parallel arrays
        self._busy_ids = np.zeros(0, dtype=np.int64)
        self._busy_free = np.zeros(0, dtype=np.int64)
        # arrival buckets: tick -> list of flow-id arrays, plus a tick heap
        self._buckets: dict[int, list[np.ndarray]] = {}
        self._heap: list[int] = []
        if flows:
            order = np.argsort(traffic.inject_at, kind="stable")
            ticks = traffic.inject_at[order]
            cuts = np.flatnonzero(np.diff(ticks)) + 1
            starts = np.concatenate((np.zeros(1, dtype=np.int64), cuts))
            for chunk, tick in zip(
                np.split(order, cuts), ticks[starts], strict=True
            ):
                self._push(int(tick), chunk)
        self.ticks_processed = 0

    # -- fault replay ------------------------------------------------------

    def _bump_link(self, ru: int, rv: int, delta: int) -> None:
        key = min(ru, rv) * self._num_nodes + max(ru, rv)
        depth = self._link_depth.get(key, 0) + delta
        if depth <= 0:
            # repair of a healthy link is a no-op (FaultState semantics)
            if key in self._link_depth:
                del self._link_depth[key]
                self._links_dirty = True
            return
        self._link_depth[key] = depth
        self._links_dirty = True

    def _apply_faults_until(self, tick: int) -> None:
        while self._event_ptr < len(self._events):
            time, action, kind, packed = self._events[self._event_ptr]
            if time > tick:
                break
            self._event_ptr += 1
            delta = 1 if action == "fail" else -1
            if kind == "node":
                depth = int(self._node_depth[packed]) + delta
                self._node_depth[packed] = max(depth, 0)
            elif delta > 0:
                self._link_depth[packed] = self._link_depth.get(packed, 0) + 1
                self._links_dirty = True
            else:
                depth = self._link_depth.get(packed, 0) - 1
                if depth > 0:
                    self._link_depth[packed] = depth
                elif packed in self._link_depth:
                    del self._link_depth[packed]
                self._links_dirty = True

    def _faulty_link_ids(self) -> np.ndarray:
        if self._links_dirty:
            self._faulty_links = np.asarray(
                sorted(self._link_depth), dtype=np.int64
            )
            self._links_dirty = False
        return self._faulty_links

    # -- scheduling --------------------------------------------------------

    def _push(self, tick: int, flow_ids: np.ndarray) -> None:
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = [flow_ids]
            heapq.heappush(self._heap, tick)
        else:
            bucket.append(flow_ids)

    # -- the tick step -----------------------------------------------------

    def _drop(self, flow_ids: np.ndarray, code: int, tick: int) -> None:
        self.drop_code[flow_ids] = code
        self.drop_at[flow_ids] = tick

    def _step(self, ids: np.ndarray, tick: int) -> None:
        n = self._num_nodes
        pos = self._pos[ids]
        cur = self._cur[ids]
        alive = np.ones(len(ids), dtype=bool)
        # 1. link fault at hop completion (the event sim checks at finish)
        if self._link_depth:
            prev = self._came_from[ids]
            lid = np.minimum(prev, cur) * n + np.maximum(prev, cur)
            bad = (pos > 0) & _in_sorted(self._faulty_link_ids(), lid)
            if bad.any():
                self._drop(ids[bad], _DROP_LINK, tick)
                alive &= ~bad
        # 2. node fault at the arrival node
        if self._node_faults_possible:
            bad = alive & (self._node_depth[cur] > 0)
            if bad.any():
                self._drop(ids[bad], _DROP_NODE, tick)
                alive &= ~bad
        # 3. delivery
        done = alive & (cur == self.traffic.targets[ids])
        if done.any():
            self.delivered_at[ids[done]] = tick
            alive &= ~done
        # 4. ttl
        if self.ttl is not None:
            bad = alive & (pos >= self.ttl)
            if bad.any():
                self._drop(ids[bad], _DROP_TTL, tick)
                alive &= ~bad
        # 5. route exhausted without reaching the target: unreachable
        bad = alive & (pos >= self.routes.lengths[ids])
        if bad.any():
            self._drop(ids[bad], _DROP_NOROUTE, tick)
            alive &= ~bad
        # forwarders stay in processing order — the event queue's order
        forwarders = ids[alive]
        k = len(forwarders)
        if not k:
            return
        fpos = pos[alive]
        here = cur[alive]
        nxt = self.routes.hops[forwarders, fpos]
        if self.routes.gen_idx is not None:
            gi = self.routes.gen_idx[forwarders, fpos]
        else:
            gi = np.full(k, -1, dtype=np.int64)
        lat = self._lat_by_gen[gi]
        cap = self._cap_by_gen[gi]
        # group by directed link: an unstable sort, group flags from
        # adjacent differences, then forwarder order restored inside each
        # link by sorting the unique key grp * k + index (< k**2)
        link = here * n + nxt
        order = np.argsort(link)
        link_s = link[order]
        flags = np.empty(k + 1, dtype=bool)
        flags[0] = flags[k] = True
        np.not_equal(link_s[1:], link_s[:-1], out=flags[1:k])
        bounds = np.flatnonzero(flags)
        first = bounds[:-1]
        counts = bounds[1:] - first
        grp = np.cumsum(flags[:k]) - 1
        if len(first) < k:  # some link carries several sends
            order = np.sort(grp * k + order) % k
        uniq = link_s[first]
        lat_s = lat[order]
        lat_u = lat_s[first]
        cap_u = cap[order[first]]
        base = np.full(len(uniq), tick, dtype=np.int64)
        busy = self._busy_ids
        if busy.size:
            at = np.minimum(np.searchsorted(busy, uniq), busy.size - 1)
            hit = busy[at] == uniq
            hit_at = at[hit]
            base[hit] = np.maximum(self._busy_free[hit_at], tick)
        offsets = np.arange(k, dtype=np.int64) - first[grp]
        finish = base[grp] + (offsets // cap_u[grp] + 1) * lat_s
        new_free = base + ((counts + cap_u - 1) // cap_u) * lat_u
        # merge the busy set: entries for links used this tick are replaced,
        # entries already free at or before this tick can never matter again
        if busy.size:
            keep = self._busy_free > tick
            keep[hit_at] = False
            merged_ids = np.concatenate((busy[keep], uniq))
            merged_free = np.concatenate((self._busy_free[keep], new_free))
            merge_order = np.argsort(merged_ids)  # ids are unique
            self._busy_ids = merged_ids[merge_order]
            self._busy_free = merged_free[merge_order]
        else:
            self._busy_ids = uniq
            self._busy_free = new_free
        # advance flow state and schedule the arrivals, one chunk per finish
        # tick, each in forwarder order
        self._came_from[forwarders] = here
        self._cur[forwarders] = nxt
        self._pos[forwarders] = fpos + 1
        fin = np.empty(k, dtype=np.int64)
        fin[order] = finish
        lo, hi = int(fin.min()), int(fin.max())
        if lo == hi:
            self._push(lo, forwarders)
            return
        delay = fin - lo
        if hi - lo <= np.iinfo(np.int16).max:
            delay = delay.astype(np.int16)  # stable sort is a radix sort
        fin_order = np.argsort(delay, kind="stable")
        delay_s = delay[fin_order]
        moved = forwarders[fin_order]
        cuts = np.flatnonzero(delay_s[1:] != delay_s[:-1]) + 1
        edges = [0, *cuts.tolist(), k]
        for a, b in zip(edges, edges[1:]):
            self._push(lo + int(delay_s[a]), moved[a:b])

    # -- driving -----------------------------------------------------------

    def run(
        self, *, until: int | None = None, max_ticks: int | None = None
    ) -> "FlowEngine":
        """Process arrival ticks in order until the network drains."""
        while self._heap:
            tick = self._heap[0]
            if until is not None and tick > until:
                break
            heapq.heappop(self._heap)
            chunks = self._buckets.pop(tick)
            # chunks are in event order already (see the module docstring)
            ids = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            self._apply_faults_until(tick)
            self._step(ids, tick)
            self.ticks_processed += 1
            if max_ticks is not None and self.ticks_processed >= max_ticks:
                break
        return self

    def result(self) -> FlowResult:
        return FlowResult(
            inject_at=self.traffic.inject_at,
            delivered_at=self.delivered_at,
            drop_code=self.drop_code,
            drop_at=self.drop_at,
            hops=self._pos,
        )

    def stats(self) -> LatencyStats:
        return self.result().stats()
