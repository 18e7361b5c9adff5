"""Vectorized flow-level traffic engine: whole traffic matrices per tick.

The discrete-event simulator (:mod:`repro.simulation.network`) processes
one packet-hop event at a time — exact, but hopeless past ~10^5 packets.
This module advances **all in-flight flows of a tick at once** with numpy
array arithmetic, at cost ``O(flows arriving this tick)`` per tick:

* **Routes** are precomputed in bulk (:func:`routes_block`) as packed-rank
  hop arrays — a ``(flows, max_hops)`` int64 matrix of successive node
  ranks — via the :class:`repro.cayley.graph.DistanceOracle` factor-split
  fast path for Cayley families (the quotient ``source⁻¹·target``, from
  the codec's vectorized group arithmetic, picks each flow's word from
  the per-factor word tables; one ``NodeCodec.step_block`` per word column
  then moves every flow a hop — two flat gathers from the per-factor
  move tables on a product codec), a dedicated e-cube + shift-in builder
  for the hyper-de Bruijn baseline, a bit-scatter e-cube builder for the
  hypercube, and a per-pair BFS fallback for everything else.
* **Dynamics** (:class:`FlowEngine`) replay the event simulator's
  fire-and-forget store-and-forward model tick-synchronously.  A tick's
  send count picks one of three paths, all with the same slot arithmetic
  and the same arrival order.  On a wide tick (``_WIDE_TICK`` sends or
  more) a multiplicative hash of each packed directed link id into a
  reusable slot table finds the sends alone on their link, and the sends
  that collided are rehashed into a second table; each lone send leaves
  when its link frees, plus the link latency, with no sort.  The other
  sends — true shared links plus collisions in both tables — and every
  send of a tick of ``_SMALL_TICK`` up to ``_WIDE_TICK`` sends are
  grouped by link id with one unstable sort, forwarder order is restored
  inside each link by one sort of the packed key ``group * sends +
  forwarder index`` (canonical however the sort breaks ties), and
  transmission slots are handed out capacity-limited per link.  A tick
  of fewer than ``_SMALL_TICK`` sends skips the numpy calls, which cost
  more than so few sends: one Python pass visits its sends in forwarder
  order, queues them per link in that order, hands out the same slots,
  edits the busy arrays in place and groups the arrivals by finish tick.
  The busy set keeps only the links still busy after the next tick, the
  only ones that can delay a send.  Fault fail/repair events replay the
  depth-counted :class:`repro.faults.dynamic.FaultState` epochs as
  vectorized masks.
  Without fault inputs (no static node or link faults, no
  :class:`~repro.faults.dynamic.FaultSchedule`) nothing can stop a flow
  sent onto its target, so its delivery is recorded at send time, at the
  hop's finish tick, and it gets no arrival tick of its own.

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
is processing order.  The numpy paths get that order from a stable sort
of the finish ticks; the scalar pass visits the sends in forwarder order,
appends each to its finish tick's group and pushes the groups in
ascending finish tick, so every path pushes the same chunks in the same
order.  A fault-free engine resolves final-hop arrivals at
send time: in the event simulator's drop chain delivery comes first when
no fault can strike (the ttl check follows it), so such an arrival only
ever delivers, at its finish tick, and the send still takes its link
slot.  Leaving these flows out of their buckets (and zero-length flows
out of the injection chunks) keeps every other flow's bucket order
unchanged.  A stopped run reports outcomes only up to its horizon (see
:meth:`FlowEngine.run`), so partial runs report what the event queue had
processed by then.
Capacity/latency link classes beyond the unit model generalize the event
simulator rather than mirror it (it has no capacity notion).
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable

import numpy as np

from repro.errors import InvalidParameterError, SimulationError
from repro.simulation.linkconfig import LinkConfig
from repro.simulation.stats import LatencyStats
from repro.simulation.workloads import TrafficMatrix

if TYPE_CHECKING:
    from repro.fastgraph.codecs import NodeCodec
    from repro.faults.dynamic import FaultSchedule

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
    classes via ``gen_names``.  The Cayley builder returns both matrices
    column-major: it fills them one hop column at a time.
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
    codec: NodeCodec, sources: np.ndarray, gen_mat: np.ndarray
) -> np.ndarray:
    """Turn per-flow generator words into per-flow node-rank hop arrays.

    One :meth:`~repro.fastgraph.codecs.NodeCodec.step_block` per word
    column moves every flow at once; padding (``-1``) holds a flow in
    place and becomes ``-1`` in the hop matrix.  Both matrices are
    column-major, so each column is one contiguous slice.
    """
    hops = np.empty(gen_mat.shape, dtype=np.int64, order="F")
    cur = sources
    for k in range(gen_mat.shape[1]):
        cur = codec.step_block(cur, gen_mat[:, k])
        hops[:, k] = cur
    hops[gen_mat < 0] = -1
    return hops


#: route codec per topology instance: a product codec's move tables are
#: built on the first route and reused by every later batch
_ROUTE_CODECS: weakref.WeakKeyDictionary[Any, NodeCodec] = weakref.WeakKeyDictionary()


def _cayley_routes(
    topology: Any, sources: np.ndarray, targets: np.ndarray
) -> RouteBlock | None:
    """Oracle-backed bulk routes for Cayley topologies (HB, B_n).

    The quotient ``delta = source⁻¹·target`` of every flow is computed in
    rank space with the codec's vectorized group arithmetic, and the
    oracle's word tables yield each flow's generator word.  On the product
    fast path that word is the left factor's word followed by the right
    factor's (Remark 8's cube-then-butterfly order), gathered row-wise from
    the factor oracles' lifted word tables.  The walk then advances every
    flow one hop per word column with the codec's ``step_block`` — for the
    hyper-butterfly two flat gathers from the per-factor move tables, since
    each hop moves exactly one factor.  Matches
    ``DistanceOracle.shortest_path`` row for row.
    """
    from repro.fastgraph.codecs import codec_for

    group = getattr(topology, "group", None)
    gens = getattr(topology, "gens", None)
    if group is None or gens is None:
        return None
    codec = _ROUTE_CODECS.get(topology)
    if codec is None:
        codec = codec_for(topology)
        if codec is None:
            return None
        _ROUTE_CODECS[topology] = codec
    if codec.generators is None or not codec.supports_group_ops():
        return None
    # word entries index the oracle's generators; the walk steps by the
    # codec's, so translate once when the two orders differ
    to_codec = None
    if tuple(codec.generators) != tuple(gens.generators):
        position = {g: i for i, g in enumerate(codec.generators)}
        if any(g not in position for g in gens.generators):
            return None
        to_codec = np.asarray(
            [position[g] for g in gens.generators] + [-1], dtype=np.int16
        )
    src, dst = _validated(codec, sources, targets)
    cayley = getattr(topology, "cayley", None)
    oracle = cayley.oracle if cayley is not None else None
    if oracle is None:
        from repro.cayley.graph import DistanceOracle

        oracle = DistanceOracle(group, gens)
    delta = codec.multiply_block(codec.inverse_block(src), dst)
    if oracle.factor_split() is not None:
        # a product codec: the one-off builds of its move tables and of the
        # lifted word tables run before the wide per-flow arrays exist,
        # which keeps them out of the walk's memory peak
        codec.move_tables()
        lw, ld, rw, rd = oracle.lifted_word_tables()
        dl, dr = np.divmod(delta, codec.right.num_nodes)
        len_l = ld[dl]
        lengths = len_l + rd[dr]
        width_l = lw.shape[1]
        gen_mat = np.full(
            (len(src), width_l + rw.shape[1]), -1, dtype=np.int16, order="F"
        )
        gen_mat[:, :width_l] = np.take(lw, dl, axis=0)
        # the right word starts where the left one ends: one row-gather
        # block per distinct left length
        for j in range(width_l + 1):
            rows = np.flatnonzero(len_l == j)
            if len(rows):
                gen_mat[rows, j : j + rw.shape[1]] = np.take(rw, dr[rows], axis=0)
    else:
        words, dist = oracle.word_table()
        gen_mat = np.asfortranarray(np.take(words, delta, axis=0))
        lengths = dist[delta]
    max_len = int(lengths.max()) if len(lengths) else 0
    gen_mat = gen_mat[:, :max_len]
    steps = gen_mat if to_codec is None else to_codec[gen_mat]
    hops = _expand_gen_matrix(codec, src, steps)
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
    """One BFS per unique pair — any topology, small scale."""
    from repro.fastgraph.backend import get_fastgraph

    codec = get_fastgraph(topology).codec
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
    oracle path, then the generic per-pair BFS fallback.
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


#: sends per tick below which one Python pass slots, settles and schedules
#: them: fewer calls than the numpy paths make for so few sends
_SMALL_TICK = 64
#: sends per tick from which lone sends skip the link sort; narrower ticks
#: of at least ``_SMALL_TICK`` sends sort every send, where the slot-table
#: pass costs more calls than it saves
_WIDE_TICK = 256
#: the largest tick the int64 state arrays hold
_INT64_MAX = int(np.iinfo(np.int64).max)
#: most entries (int32) of the wide-tick link hash table: 16 MiB
_SLOT_TABLE_CAP = 1 << 22
#: multiplicative hashing constants: Fibonacci (2**64 / golden ratio) for
#: every send, a second odd constant to rehash the sends that collided
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_REHASH_MUL = np.uint64(0xD6E8FEB86659FD93)


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
    :attr:`ticks_processed` counts the ticks that processed at least one
    event; an engine without fault inputs delivers at send time, so its
    deliveries add no tick.
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
        # a tick lifts the latest scheduled tick by at most its sends times
        # the largest latency, so this bounds every finish tick; the numpy
        # tick paths would wrap past int64 silently
        if flows:
            sends = int(np.maximum(self.routes.lengths, 0).sum())
            last = int(traffic.inject_at.max()) + sends * int(self._lat_by_gen.max())
            if last > _INT64_MAX:
                raise SimulationError(
                    f"finish ticks may reach {last}, past int64: "
                    "lower the link latencies"
                )
        # per-flow state: position (== attempted hops), current node and
        # the node the last hop left from
        self._pos = np.zeros(flows, dtype=np.int64)
        self._cur = traffic.sources.astype(np.int64, copy=True)
        self._came_from = np.full(flows, -1, dtype=np.int64)
        self.delivered_at = np.full(flows, -1, dtype=np.int64)
        self.drop_code = np.zeros(flows, dtype=np.int8)
        self.drop_at = np.full(flows, -1, dtype=np.int64)
        # fault state: depth-counted FaultState epochs, vectorized
        self._link_depth: dict[int, int] = {}
        self._faulty_links = np.zeros(0, dtype=np.int64)
        self._links_dirty = False
        static_nodes = dict.fromkeys(faults)  # ordered de-duplication
        for v in static_nodes:
            topology.validate_node(v)
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
        # decided from the inputs; the per-node depths exist only then
        self._node_faults_possible = bool(static_nodes) or any(
            kind == "node" for _, _, kind, _ in self._events
        )
        self._node_depth = np.zeros(
            self._num_nodes if self._node_faults_possible else 0, dtype=np.int32
        )
        for v in static_nodes:
            self._node_depth[codec.rank(v)] += 1
        # with no fault inputs nothing can stop a flow sent onto its target
        # (delivery precedes the ttl check), so its delivery is recorded
        # when that last hop is scheduled, and it gets no arrival tick
        self._eager = not static_nodes and not self._link_depth and schedule is None
        # the route matrices raveled in their storage order, so a send's
        # next hop and generator are one flat gather each
        hops = self.routes.hops
        self._hops_by_column = bool(
            hops.flags.f_contiguous and not hops.flags.c_contiguous
        )
        layout = "F" if self._hops_by_column else "C"
        self._hop_stride = flows if self._hops_by_column else hops.shape[1]
        self._hop_flat = hops.ravel(layout)
        gen_idx = self.routes.gen_idx
        self._gen_flat = None if gen_idx is None else gen_idx.ravel(layout)
        # busy-until ticks of the directed links that can still delay a
        # send, kept as sorted parallel arrays
        self._busy_ids = np.zeros(0, dtype=np.int64)
        self._busy_free = np.zeros(0, dtype=np.int64)
        # the two link hash tables of wide ticks and the sends of the tick
        # rehashed into the second; contents never outlive a tick
        self._slots = [np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)]
        self._rehashed = np.zeros(0, dtype=np.int64)
        # arrival buckets: tick -> list of flow-id arrays, plus a tick heap
        self._buckets: dict[int, list[np.ndarray]] = {}
        self._heap: list[int] = []
        order = np.argsort(traffic.inject_at, kind="stable")
        if self._eager:
            # zero-length flows deliver at injection, before any tick
            home = traffic.sources == traffic.targets
            self.delivered_at[home] = traffic.inject_at[home]
            order = order[~home[order]]
        if len(order):
            ticks = traffic.inject_at[order]
            cuts = np.flatnonzero(np.diff(ticks)) + 1
            starts = np.concatenate((np.zeros(1, dtype=np.int64), cuts))
            for chunk, tick in zip(
                np.split(order, cuts), ticks[starts], strict=True
            ):
                self._push(int(tick), chunk)
        #: ticks that processed at least one event (see the class docs)
        self.ticks_processed = 0
        # the last tick whose outcomes are reported (None once drained);
        # later eager deliveries stay hidden until a run reaches them
        self._horizon: int | None = -1

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

    def _link_queues(
        self,
        link: np.ndarray,
        lat: np.ndarray,
        cap: np.ndarray,
        tick: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Hand out capacity-limited transmission slots per directed link.

        Sends arrive in forwarder order.  Returns ``order`` (sends grouped
        by link, forwarder order inside each link), the finish tick of each
        send in that order, the sorted unique links, their new free ticks
        and the busy-set positions they hit (``None`` when the busy set is
        empty).
        """
        k = len(link)
        # group by directed link: an unstable sort, group flags from
        # adjacent differences, then forwarder order restored inside each
        # link by sorting the unique key grp * k + index (< k**2)
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
        hit_at = None
        busy = self._busy_ids
        if busy.size:
            at = np.minimum(np.searchsorted(busy, uniq), busy.size - 1)
            hit = busy[at] == uniq
            hit_at = at[hit]
            base[hit] = np.maximum(self._busy_free[hit_at], tick)
        offsets = np.arange(k, dtype=np.int64) - first[grp]
        finish = base[grp] + (offsets // cap_u[grp] + 1) * lat_s
        new_free = base + ((counts + cap_u - 1) // cap_u) * lat_u
        return order, finish, uniq, new_free, hit_at

    def _slot_of(self, keys: np.ndarray, table: int) -> np.ndarray:
        """Index of each int64 link key in slot table ``table`` (0 or 1)."""
        slot = keys.view(np.uint64) * (_REHASH_MUL if table else _HASH_MUL)
        slot >>= np.uint64(65 - self._slots[table].size.bit_length())
        return slot.view(np.int64)

    def _lone_in_table(
        self, link: np.ndarray, table: int, size: int
    ) -> np.ndarray:
        """Mask of the sends no other send of ``link`` shares a slot with.

        The table grows to ``size`` entries, a power of two.  Every send
        writes its index to its slot; a send that reads back another index
        shares the slot and marks it ``-1``; the sends that then read their
        own index back are alone in their slot.  That holds whichever of
        several writers a repeated store keeps.
        """
        if self._slots[table].size < size:
            self._slots[table] = np.empty(size, dtype=np.int32)
        slots = self._slots[table]
        slot = self._slot_of(link, table)
        mine = np.arange(len(link), dtype=np.int32)
        slots[slot] = mine
        slots[slot[slots[slot] != mine]] = -1
        return slots[slot] == mine

    def _alone_on_link(self, link: np.ndarray) -> np.ndarray:
        """Mask of the sends no other send of the tick shares a link with.

        Both slot tables have at least 8 entries per send of the widest
        tick so far (a power of two, capped at ``_SLOT_TABLE_CAP``).  Every
        send is hashed into table 0; the sends that share a slot there (at
        load 1/8 mostly distinct links) are rehashed with another
        multiplier into table 1, at a far lower load, so table 0 keeps
        what :meth:`_delay_lone_sends` probes.  Two sends on one link share
        a slot in both tables, so a send alone in either is alone on its
        link; a collision in both only sends a lone send down the exact
        link sort, so the result is exact for any table size.
        """
        size = min(max(1 << (8 * len(link) - 1).bit_length(), 2), _SLOT_TABLE_CAP)
        alone = self._lone_in_table(link, 0, size)
        self._rehashed = np.flatnonzero(~alone)
        if self._rehashed.size:
            alone[self._rehashed] = self._lone_in_table(
                link[self._rehashed], 1, size
            )
        return alone

    def _lone_senders(
        self, link: np.ndarray, table: int, senders: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Busy positions whose link a lone send of ``link`` uses, and those
        sends: table ``table`` indexes ``senders`` (all sends when
        ``None``).  A slot holding an index belongs to a lone send, or is
        stale from an earlier use: then no send of this tick on that link
        hashed there, and the link comparison rejects the index."""
        busy = self._busy_ids
        sender = self._slots[table][self._slot_of(busy, table)]
        count = len(link) if senders is None else len(senders)
        hit_at = np.flatnonzero((sender >= 0) & (sender < count))
        sender = sender[hit_at]
        if senders is not None:
            sender = senders[sender]
        match = link[sender] == busy[hit_at]
        return hit_at[match], sender[match]

    def _delay_lone_sends(
        self, link: np.ndarray, lat: np.ndarray, fin: np.ndarray, tick: int
    ) -> np.ndarray | None:
        """Start each lone send on a busy link when the link frees.

        Probes both slot tables left by :meth:`_alone_on_link` with the
        busy links, at a cost of the busy set's size, not the tick's.
        Returns the busy positions hit (``None`` when the busy set is
        empty).
        """
        if not self._busy_ids.size:
            return None
        hit_at, sender = self._lone_senders(link, 0, None)
        if self._rehashed.size:
            again_at, again = self._lone_senders(link, 1, self._rehashed)
            hit_at = np.concatenate((hit_at, again_at))
            sender = np.concatenate((sender, again))
        fin[sender] = np.maximum(self._busy_free[hit_at], tick) + lat[sender]
        return hit_at

    def _merge_busy(
        self,
        ids: np.ndarray,
        free: np.ndarray,
        hit_at: np.ndarray | None,
        tick: int,
        *,
        presorted: bool,
    ) -> None:
        """Replace the hit busy entries by this tick's links ``ids``.

        Only links free after ``tick + 1`` are kept: latency is at least
        one tick, so the next processed tick ``t`` is at least ``tick + 1``
        and a link free by then gives ``max(free, t) == t``, exactly as if
        it had no entry.  ``presorted`` says ``ids`` ascend already.
        """
        if self._busy_ids.size:
            ids = np.concatenate((self._busy_ids, ids))
            free = np.concatenate((self._busy_free, free))
            presorted = False
        keep = free > tick + 1
        if hit_at is not None:
            keep[hit_at] = False  # the old entries come first
        ids = ids[keep]
        free = free[keep]
        if not presorted and len(ids) > 1:
            # ids are unique, so any sort gives this order
            merge_order = np.argsort(ids, kind="stable")
            ids = ids[merge_order]
            free = free[merge_order]
        self._busy_ids = ids
        self._busy_free = free

    def _scalar_tick(
        self,
        forwarders: np.ndarray,
        nxt: np.ndarray,
        link: np.ndarray,
        lat: np.ndarray,
        cap: np.ndarray,
        tick: int,
    ) -> None:
        """Slot, settle and schedule a tick of fewer than ``_SMALL_TICK``
        sends in one pass over Python ints.

        The arithmetic of :meth:`_link_queues`, one link at a time: the
        ``i``-th send of a link, in forwarder order, finishes at ``base +
        (i // cap + 1) * lat`` with its own ``lat``, past ``base =
        max(busy free, tick)``, and the link frees at ``base + ceil(count
        / cap) * lat``, where ``cap`` and this ``lat`` are the link's first
        send's.  The busy arrays are edited, not rebuilt by a sort: hit
        entries are rewritten in place, new ones spliced in at their
        ``searchsorted`` positions, then the expired ones dropped.
        Arrivals are grouped by finish tick in forwarder order and pushed
        in ascending finish order, the numpy bucket sort's order.
        """
        link_l = link.tolist()
        lat_l = lat.tolist()
        cap_l = cap.tolist()
        queues: dict[int, list[int]] = {}
        for i, key in enumerate(link_l):
            queue = queues.get(key)
            if queue is None:
                queues[key] = [i]
            else:
                queue.append(i)
        busy_ids = self._busy_ids
        busy_free = self._busy_free
        size = busy_ids.size
        at = busy_ids.searchsorted(link).tolist() if size else [0] * len(link_l)
        fin = [0] * len(link_l)
        hits: list[tuple[int, int]] = []  # (busy position, new free tick)
        added: list[tuple[int, int, int]] = []  # (link, free, position)
        for key, queue in queues.items():
            first = queue[0]
            p = at[first]
            hit = p < size and busy_ids.item(p) == key
            base = busy_free.item(p) if hit else tick
            if base < tick:
                base = tick
            if len(queue) == 1:
                free = fin[first] = base + lat_l[first]
            else:
                per = cap_l[first]
                for slot, i in enumerate(queue):
                    fin[i] = base + (slot // per + 1) * lat_l[i]
                free = base + -(-len(queue) // per) * lat_l[first]
            if hit:
                hits.append((p, free))
            elif free > tick + 1:
                added.append((key, free, p))
        for p, free in hits:
            busy_free[p] = free
        if added:
            added.sort()  # by link id, so the positions ascend too
            id_parts: list[Any] = []
            free_parts: list[Any] = []
            prev = 0
            for key, free, p in added:
                id_parts += (busy_ids[prev:p], (key,))
                free_parts += (busy_free[prev:p], (free,))
                prev = p
            id_parts.append(busy_ids[prev:])
            free_parts.append(busy_free[prev:])
            busy_ids = np.concatenate(id_parts)
            busy_free = np.concatenate(free_parts)
        if busy_free.size:
            keep = busy_free > tick + 1
            if np.count_nonzero(keep) < keep.size:
                busy_ids = busy_ids[keep]
                busy_free = busy_free[keep]
        self._busy_ids = busy_ids
        self._busy_free = busy_free
        # arrivals by finish tick, each group in forwarder order; an eager
        # engine records a send onto the target as delivered instead
        last = (
            (nxt == self.traffic.targets[forwarders]).tolist()
            if self._eager
            else None
        )
        groups: dict[int, list[int]] = {}
        delivered_at = self.delivered_at
        done = 0
        for i, t in enumerate(fin):
            if last is not None and last[i]:
                delivered_at[forwarders.item(i)] = t
                done += 1
            else:
                group = groups.get(t)
                if group is None:
                    groups[t] = [i]
                else:
                    group.append(i)
        if not groups:
            return
        if len(groups) == 1 and not done:
            self._push(fin[0], forwarders)
            return
        ticks = sorted(groups)
        moved = forwarders[[i for t in ticks for i in groups[t]]]
        a = 0
        for t in ticks:
            b = a + len(groups[t])
            self._push(t, moved[a:b])
            a = b

    def _retire(
        self,
        ids: np.ndarray,
        pos: np.ndarray,
        cur: np.ndarray,
        gone: np.ndarray,
        code: int,
        tick: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Settle the flows flagged ``gone`` at ``tick`` — dropped with
        ``code``, delivered when it is 0 — and return the others' ids,
        positions and nodes, still in processing order."""
        if not gone.any():
            return ids, pos, cur
        if code:
            self._drop(ids[gone], code, tick)
        else:
            self.delivered_at[ids[gone]] = tick
        keep = ~gone
        return ids[keep], pos[keep], cur[keep]

    def _step(self, ids: np.ndarray, tick: int) -> None:
        n = self._num_nodes
        pos = self._pos[ids]
        cur = self._cur[ids]
        # 1. link fault at hop completion (the event sim checks at finish)
        if self._link_depth:
            prev = self._came_from[ids]
            lid = np.minimum(prev, cur) * n + np.maximum(prev, cur)
            bad = (pos > 0) & _in_sorted(self._faulty_link_ids(), lid)
            ids, pos, cur = self._retire(ids, pos, cur, bad, _DROP_LINK, tick)
        # 2. node fault at the arrival node
        if self._node_faults_possible:
            bad = self._node_depth[cur] > 0
            ids, pos, cur = self._retire(ids, pos, cur, bad, _DROP_NODE, tick)
        # 3. delivery (an eager engine delivered at send time instead)
        if not self._eager:
            done = cur == self.traffic.targets[ids]
            ids, pos, cur = self._retire(ids, pos, cur, done, 0, tick)
        # 4. ttl
        if self.ttl is not None:
            bad = pos >= self.ttl
            ids, pos, cur = self._retire(ids, pos, cur, bad, _DROP_TTL, tick)
        # 5. route exhausted without reaching the target: unreachable
        bad = pos >= self.routes.lengths[ids]
        forwarders, fpos, here = self._retire(
            ids, pos, cur, bad, _DROP_NOROUTE, tick
        )
        # forwarders stay in processing order — the event queue's order
        k = len(forwarders)
        if not k:
            return
        if self._hops_by_column:
            at = fpos * self._hop_stride
            at += forwarders
        else:
            at = forwarders * self._hop_stride
            at += fpos
        nxt = self._hop_flat[at]
        if self._gen_flat is not None:
            gi = self._gen_flat[at]
        else:
            gi = np.full(k, -1, dtype=np.int64)
        lat = self._lat_by_gen[gi]
        cap = self._cap_by_gen[gi]
        link = here * n + nxt
        self._cur[forwarders] = nxt
        self._pos[forwarders] = fpos + 1
        if not self._eager:
            self._came_from[forwarders] = here
        if k < _SMALL_TICK and k < _WIDE_TICK:  # a wide tick is always hashed
            self._scalar_tick(forwarders, nxt, link, lat, cap, tick)
            return
        fin = np.empty(k, dtype=np.int64)
        if k < _WIDE_TICK:
            order, finish, new_ids, new_free, hit_at = self._link_queues(
                link, lat, cap, tick
            )
            fin[order] = finish
            self._merge_busy(new_ids, new_free, hit_at, tick, presorted=True)
        else:
            # a send alone on its link leaves at base + lat; only the sends
            # sharing a hash slot with another send go through the link sort
            alone = self._alone_on_link(link)
            np.add(lat, tick, out=fin)
            hit_at = self._delay_lone_sends(link, lat, fin, tick)
            late = fin > tick + 1
            late &= alone
            new_ids = link[late]
            new_free = fin[late]
            shared = np.flatnonzero(~alone)
            if shared.size:
                order, finish, uniq, free, shared_hits = self._link_queues(
                    link[shared], lat[shared], cap[shared], tick
                )
                fin[shared[order]] = finish
                new_ids = np.concatenate((new_ids, uniq))
                new_free = np.concatenate((new_free, free))
                if shared_hits is not None:
                    hit_at = np.concatenate((hit_at, shared_hits))
            self._merge_busy(new_ids, new_free, hit_at, tick, presorted=False)
        # schedule the arrivals, one chunk per finish tick, each in
        # forwarder order
        if self._eager:
            # a send onto the target delivers when it finishes; it keeps
            # its link slot above but needs no arrival tick
            last = nxt == self.traffic.targets[forwarders]
            if last.any():
                self.delivered_at[forwarders[last]] = fin[last]
                more = ~last
                forwarders = forwarders[more]
                fin = fin[more]
                k = len(forwarders)
                if not k:
                    return
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
        """Process event ticks in order until the network drains.

        ``until`` stops before the first tick past it, ``max_ticks`` once
        :attr:`ticks_processed` reaches it.  A stopped run reports outcomes
        up to its horizon — ``until``, or the last tick processed when
        ``max_ticks`` stopped it — and hides the eager deliveries beyond
        it, exactly as if their ticks were still queued.
        """
        stopped_at = None
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
                stopped_at = tick
                break
        if stopped_at is not None:
            self._horizon = stopped_at
        elif until is None:
            self._horizon = None  # drained
        elif self._horizon is not None:
            self._horizon = max(self._horizon, until)
        return self

    def result(self) -> FlowResult:
        delivered_at = self.delivered_at
        if self._horizon is not None:
            delivered_at = np.where(
                delivered_at > self._horizon, -1, delivered_at
            )
        return FlowResult(
            inject_at=self.traffic.inject_at,
            delivered_at=delivered_at,
            drop_code=self.drop_code,
            drop_at=self.drop_at,
            hops=self._pos,
        )

    def stats(self) -> LatencyStats:
        return self.result().stats()
