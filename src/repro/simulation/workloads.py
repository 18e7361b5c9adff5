"""Rank-based synthetic workload zoo for the flow-level traffic engine.

Every generator here works on **packed integer ranks** (the
:mod:`repro.fastgraph` codec space), so a workload over the 1.4M-node
``HB(6, 11)`` is a couple of int64 arrays — no Hashable node list is ever
materialized.  The legacy label-level generators in
:mod:`repro.simulation.traffic` are thin wrappers that unrank these cores,
and the random cores draw *positions* with :class:`random.Random` exactly
the way the legacy list-based code did, so seeds keep their meaning.

Two structured-permutation helpers need to know how a rank decomposes
into a permutable binary *address* plus fixed auxiliary state (the
butterfly level): that is :class:`AddressView`, derived structurally from
the topology's codec — ``HB(m, n)`` exposes the ``m + n``-bit
``cube ∥ CI`` address with the level preserved, hyper-de Bruijn and the
hypercube expose their full label, the wrapped butterfly its word.

The zoo (:data:`WORKLOAD_FAMILIES` / :func:`build_workload`): ``uniform``,
``permutation`` (seeded swap-fixup derangement), ``bit_reversal``,
``transpose``, ``tornado``, ``hotspot``, ``incast``, and ``bursty``
(on/off modulated arrivals).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator

import numpy as np

from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.fastgraph.codecs import NodeCodec

__all__ = [
    "TrafficMatrix",
    "AddressView",
    "address_view",
    "uniform_pairs",
    "derangement_pairs",
    "hotspot_pairs",
    "incast_pairs",
    "bit_reversal_pairs",
    "transpose_pairs",
    "tornado_pairs",
    "translation_pairs",
    "paced_arrivals",
    "bursty_arrivals",
    "WORKLOAD_FAMILIES",
    "build_workload",
]


@dataclass(frozen=True, eq=False)
class TrafficMatrix:
    """A batch of flows as parallel int64 rank arrays.

    ``inject_at`` holds integer injection ticks (all zero for a batch
    workload); flow order is the injection order, which the engine and the
    event simulator both use to break same-tick ties, so two simulators fed
    the same matrix agree event for event.
    """

    sources: np.ndarray
    targets: np.ndarray
    inject_at: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.sources) == len(self.targets) == len(self.inject_at)):
            raise InvalidParameterError("traffic arrays must share one length")

    @property
    def num_flows(self) -> int:
        return len(self.sources)

    @classmethod
    def from_ranks(
        cls,
        sources: np.ndarray,
        targets: np.ndarray,
        inject_at: np.ndarray | None = None,
    ) -> "TrafficMatrix":
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        if inject_at is None:
            at = np.zeros(len(src), dtype=np.int64)
        else:
            at = np.asarray(inject_at, dtype=np.int64)
        return cls(sources=src, targets=dst, inject_at=at)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterator[tuple[Hashable, Hashable]] | list[tuple[Hashable, Hashable]],
        codec: NodeCodec,
    ) -> "TrafficMatrix":
        """Rank a legacy ``[(source, target), ...]`` pair list."""
        listed = list(pairs)
        src = np.fromiter(
            (codec.rank(s) for s, _ in listed), dtype=np.int64, count=len(listed)
        )
        dst = np.fromiter(
            (codec.rank(t) for _, t in listed), dtype=np.int64, count=len(listed)
        )
        return cls.from_ranks(src, dst)

    def with_arrivals(self, inject_at: np.ndarray) -> "TrafficMatrix":
        return TrafficMatrix.from_ranks(self.sources, self.targets, inject_at)

    def pairs(self, codec: NodeCodec) -> list[tuple[Hashable, Hashable]]:
        """Unrank to a legacy pair list (event-simulator interop)."""
        return [
            (codec.unrank(int(s)), codec.unrank(int(t)))
            for s, t in zip(self.sources, self.targets, strict=True)
        ]


# Address views -------------------------------------------------------------


@dataclass(frozen=True)
class AddressView:
    """Vectorized view of ranks as ``bits``-wide addresses plus fixed aux.

    ``split`` maps a rank array to ``(address, aux)`` and ``join`` inverts
    it; structured permutations (bit reversal, transpose) permute the
    address while the aux part — e.g. the butterfly level ``PI`` — rides
    along untouched, exactly as the paper's bit-reversal workload keeps
    levels.  ``aux`` is ``None`` when the whole rank is address.
    """

    bits: int
    split: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]
    join: Callable[[np.ndarray, np.ndarray | None], np.ndarray]


def _int_range_view(codec: Any) -> AddressView | None:
    n = codec.num_nodes
    if codec.offset != 0 or n <= 0 or n & (n - 1):
        return None
    return AddressView(
        bits=n.bit_length() - 1,
        split=lambda idx: (idx, None),
        join=lambda addr, aux: addr,
    )


def _butterfly_view(codec: Any) -> AddressView:
    n = codec.n
    word_mask = (1 << n) - 1
    return AddressView(
        bits=n,
        split=lambda idx: (idx & word_mask, idx >> n),
        join=lambda addr, aux: (aux << n) | addr,
    )


def _wrapped_butterfly_view(codec: Any) -> AddressView:
    n = codec.n

    def split(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        word, level = np.divmod(idx, n)
        return word, level

    return AddressView(
        bits=n, split=split, join=lambda addr, aux: addr * n + aux
    )


def _product_view(codec: Any) -> AddressView | None:
    left = _codec_view(codec.left)
    right = _codec_view(codec.right)
    if left is None or right is None:
        return None
    # composition needs the full left rank to be address (its aux would be
    # lost) and the right address to occupy a clean bit field
    if codec.left.num_nodes != 1 << left.bits:
        return None
    if left.split(np.zeros(1, dtype=np.int64))[1] is not None:
        return None
    rbits = right.bits
    nr = codec.right.num_nodes

    def split(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        a, b = np.divmod(idx, nr)
        raddr, raux = right.split(b)
        return (left.split(a)[0] << rbits) | raddr, raux

    def join(addr: np.ndarray, aux: np.ndarray | None) -> np.ndarray:
        rmask = (1 << rbits) - 1
        a = left.join(addr >> rbits, None)
        b = right.join(addr & rmask, aux)
        return a * nr + b

    return AddressView(bits=left.bits + rbits, split=split, join=join)


def _codec_view(codec: Any) -> AddressView | None:
    from repro.fastgraph.codecs import (
        ButterflyElementCodec,
        IntRangeCodec,
        ProductCodec,
        WrappedButterflyCodec,
    )

    if isinstance(codec, ButterflyElementCodec):
        return _butterfly_view(codec)
    if isinstance(codec, WrappedButterflyCodec):
        return _wrapped_butterfly_view(codec)
    if isinstance(codec, ProductCodec):
        return _product_view(codec)
    if isinstance(codec, IntRangeCodec):
        return _int_range_view(codec)
    return None


def address_view(topology: Any) -> AddressView | None:
    """The binary-address view of ``topology``'s rank space, or ``None``."""
    from repro.fastgraph.codecs import codec_for

    codec = codec_for(topology)
    if codec is None:
        return None
    return _codec_view(codec)


# Random pair cores ---------------------------------------------------------


def uniform_pairs(
    num_nodes: int, count: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent ``source != target`` rank pairs.

    Draws positions with :meth:`random.Random.sample` over ``range(n)`` —
    position-for-position the same draws the legacy list-based generator
    made, so ranked output unranks to the legacy output for every seed.
    """
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    if num_nodes < 2:
        raise InvalidParameterError("need at least two nodes")
    rng = random.Random(seed)
    population = range(num_nodes)
    sources = np.empty(count, dtype=np.int64)
    targets = np.empty(count, dtype=np.int64)
    for i in range(count):
        s, t = rng.sample(population, 2)
        sources[i] = s
        targets[i] = t
    return sources, targets


def derangement_pairs(
    num_nodes: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A seeded fixed-point-free permutation in O(n) worst case.

    One Fisher–Yates shuffle, then a deterministic fixup: the fixed points
    are cyclically rotated among themselves (two or more), or swapped with
    the successor position (exactly one — bijectivity guarantees the swap
    partner's value differs from the lone fixed point, so both positions
    end up displaced).  Unlike resampling until fixed-point-free, this
    terminates after one pass; the price is a slight distribution skew
    away from uniform-over-derangements, irrelevant for load benchmarks.
    """
    if num_nodes < 2:
        raise InvalidParameterError("need at least two nodes")
    rng = random.Random(seed)
    perm = list(range(num_nodes))
    rng.shuffle(perm)
    fixed = [i for i in range(num_nodes) if perm[i] == i]
    if len(fixed) >= 2:
        for k, i in enumerate(fixed):
            perm[i] = fixed[(k + 1) % len(fixed)]
    elif len(fixed) == 1:
        i = fixed[0]
        j = (i + 1) % num_nodes
        perm[i], perm[j] = perm[j], perm[i]
    sources = np.arange(num_nodes, dtype=np.int64)
    return sources, np.asarray(perm, dtype=np.int64)


def hotspot_pairs(
    num_nodes: int,
    count: int,
    *,
    hotspot: int = 0,
    hot_fraction: float = 0.5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform traffic with a fraction redirected at one hot rank.

    Mirrors the legacy generator draw for draw (``choice`` picks positions,
    then one ``random()`` gate per flow), so ranked output unranks to the
    legacy output for every seed.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise InvalidParameterError("hot_fraction must be in [0, 1]")
    if not 0 <= hotspot < num_nodes:
        raise InvalidParameterError("hotspot rank out of range")
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    if num_nodes < 2:
        raise InvalidParameterError("need at least two nodes")
    rng = random.Random(seed)
    population = range(num_nodes)
    sources = np.empty(count, dtype=np.int64)
    targets = np.empty(count, dtype=np.int64)
    for i in range(count):
        source = rng.choice(population)
        if rng.random() < hot_fraction and source != hotspot:
            target = hotspot
        else:
            target = rng.choice(population)
            while target == source:
                target = rng.choice(population)
        sources[i] = source
        targets[i] = target
    return sources, targets


def incast_pairs(
    num_nodes: int,
    count: int,
    *,
    sinks: int = 1,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Many-to-few: sources uniform, targets cycle over ``sinks`` hot ranks.

    The classic fan-in stressor (all-to-one when ``sinks == 1``): sink
    ranks are a seeded sample, and flow ``i`` targets sink ``i mod sinks``
    from a uniformly drawn non-sink source.
    """
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    if not 1 <= sinks < num_nodes:
        raise InvalidParameterError("need 1 <= sinks < num_nodes")
    rng = random.Random(seed)
    sink_ranks = rng.sample(range(num_nodes), sinks)
    sources = np.empty(count, dtype=np.int64)
    targets = np.empty(count, dtype=np.int64)
    for i in range(count):
        sink = sink_ranks[i % sinks]
        source = rng.randrange(num_nodes)
        while source == sink:
            source = rng.randrange(num_nodes)
        sources[i] = source
        targets[i] = sink
    return sources, targets


# Structured permutations ---------------------------------------------------


def _require_view(topology: Any) -> AddressView:
    view = address_view(topology)
    if view is None:
        raise InvalidParameterError(
            f"{type(topology).__name__} has no binary address view; "
            "structured permutations need a codec-backed power-of-two family"
        )
    return view


def bit_reversal_pairs(topology: Any) -> tuple[np.ndarray, np.ndarray]:
    """Bit-reversal permutation on the address bits (fixed points dropped).

    For ``HB(m, n)`` this reverses the ``m + n``-bit ``cube ∥ CI`` address
    with levels preserved — the canonical worst case for level-structured
    networks, identical pair set to the legacy label-level generator.
    """
    view = _require_view(topology)
    from repro.fastgraph.codecs import codec_for

    codec = codec_for(topology)
    ranks = np.arange(codec.num_nodes, dtype=np.int64)
    addr, aux = view.split(ranks)
    flipped = np.zeros_like(addr)
    for i in range(view.bits):
        flipped |= ((addr >> i) & 1) << (view.bits - 1 - i)
    targets = view.join(flipped, aux)
    moved = targets != ranks
    return ranks[moved], targets[moved]


def transpose_pairs(topology: Any) -> tuple[np.ndarray, np.ndarray]:
    """Transpose permutation: swap address halves (fixed points dropped).

    Implemented as a rotation by ``bits // 2``, which coincides with the
    classic matrix-transpose permutation for even address widths and
    generalizes it for odd ones.
    """
    view = _require_view(topology)
    from repro.fastgraph.codecs import codec_for

    codec = codec_for(topology)
    half = view.bits // 2
    if half == 0:
        raise InvalidParameterError("transpose needs an address of >= 2 bits")
    ranks = np.arange(codec.num_nodes, dtype=np.int64)
    addr, aux = view.split(ranks)
    full_mask = (1 << view.bits) - 1
    rotated = ((addr >> half) | (addr << (view.bits - half))) & full_mask
    targets = view.join(rotated, aux)
    moved = targets != ranks
    return ranks[moved], targets[moved]


def tornado_pairs(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tornado traffic: rank ``r`` sends to ``(r + N/2) mod N``.

    The rank-arithmetic generalization of ring tornado traffic — defined
    identically on every family, which keeps cross-network load curves
    comparable.
    """
    if num_nodes < 2:
        raise InvalidParameterError("need at least two nodes")
    ranks = np.arange(num_nodes, dtype=np.int64)
    return ranks, (ranks + num_nodes // 2) % num_nodes


def translation_pairs(
    topology: Any, delta_rank: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Cayley translation: every rank sends to its right-translate ``v·δ``.

    Needs a codec with vectorized group arithmetic.  ``δ`` defaults to the
    legacy "half-way" element (antipodal cube word, half butterfly
    rotation) on hyper-butterflies; elsewhere it must be given explicitly.
    """
    from repro.fastgraph.codecs import codec_for

    codec = codec_for(topology)
    if codec is None or not codec.supports_group_ops():
        raise InvalidParameterError(
            f"{type(topology).__name__} has no vectorized group arithmetic"
        )
    if delta_rank is None:
        m = getattr(topology, "m", None)
        n = getattr(topology, "n", None)
        if m is None or n is None:
            raise InvalidParameterError(
                "delta_rank is required outside hyper-butterflies"
            )
        delta_rank = codec.rank(((1 << m) - 1, (n // 2, 0)))
    if not 0 <= delta_rank < codec.num_nodes:
        raise InvalidParameterError("delta_rank out of range")
    if delta_rank == 0:
        # identity ranks to 0 in every packed Cayley codec
        raise InvalidParameterError("translation by the identity is a no-op")
    ranks = np.arange(codec.num_nodes, dtype=np.int64)
    deltas = np.full(codec.num_nodes, delta_rank, dtype=np.int64)
    return ranks, codec.multiply_block(ranks, deltas)


# Arrival processes ---------------------------------------------------------


def paced_arrivals(count: int, *, per_tick: int) -> np.ndarray:
    """Deterministic constant-rate arrivals: ``per_tick`` flows per tick."""
    if per_tick < 1:
        raise InvalidParameterError("per_tick must be >= 1")
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    return np.arange(count, dtype=np.int64) // per_tick


def bursty_arrivals(
    count: int,
    *,
    per_tick: int,
    on_mean: float = 8.0,
    off_mean: float = 8.0,
    seed: int = 0,
) -> np.ndarray:
    """On/off modulated arrivals: geometric burst and gap lengths.

    During a burst, ``per_tick`` flows arrive per tick; bursts and gaps
    end each tick with probability ``1/on_mean`` and ``1/off_mean``
    (geometric sojourns — the discrete two-state Markov-modulated process
    standard in interconnect studies).  Seeded and deterministic.
    """
    if per_tick < 1:
        raise InvalidParameterError("per_tick must be >= 1")
    if on_mean < 1.0 or off_mean < 1.0:
        raise InvalidParameterError("on_mean and off_mean must be >= 1")
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    rng = random.Random(seed)
    out = np.empty(count, dtype=np.int64)
    emitted = 0
    tick = 0
    burning = True  # start inside a burst so tick 0 carries traffic
    while emitted < count:
        if burning:
            batch = min(per_tick, count - emitted)
            out[emitted : emitted + batch] = tick
            emitted += batch
            if rng.random() < 1.0 / on_mean:
                burning = False
        elif rng.random() < 1.0 / off_mean:
            burning = True
            continue  # the first on-tick emits immediately
        tick += 1
    return out


# The zoo -------------------------------------------------------------------


def _tile_pairs(
    src: np.ndarray, dst: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Repeat a fixed pattern in whole waves until ``count`` flows."""
    if len(src) == 0:
        raise InvalidParameterError("pattern has no flows to tile")
    waves = -(-count // len(src))
    return (
        np.tile(src, waves)[:count],
        np.tile(dst, waves)[:count],
    )


def _family_uniform(topology: Any, num_nodes: int, count: int, seed: int) -> tuple:
    return uniform_pairs(num_nodes, count, seed=seed)


def _family_permutation(topology: Any, num_nodes: int, count: int, seed: int) -> tuple:
    waves = -(-count // num_nodes)
    srcs = []
    dsts = []
    for w in range(waves):
        s, t = derangement_pairs(num_nodes, seed=seed + w)
        srcs.append(s)
        dsts.append(t)
    return np.concatenate(srcs)[:count], np.concatenate(dsts)[:count]


def _family_bit_reversal(topology: Any, num_nodes: int, count: int, seed: int) -> tuple:
    return _tile_pairs(*bit_reversal_pairs(topology), count)


def _family_transpose(topology: Any, num_nodes: int, count: int, seed: int) -> tuple:
    return _tile_pairs(*transpose_pairs(topology), count)


def _family_tornado(topology: Any, num_nodes: int, count: int, seed: int) -> tuple:
    return _tile_pairs(*tornado_pairs(num_nodes), count)


def _family_hotspot(topology: Any, num_nodes: int, count: int, seed: int) -> tuple:
    return hotspot_pairs(num_nodes, count, seed=seed)


def _family_incast(topology: Any, num_nodes: int, count: int, seed: int) -> tuple:
    sinks = max(1, min(num_nodes - 1, num_nodes // 64))
    return incast_pairs(num_nodes, count, sinks=sinks, seed=seed)


def _family_bursty(topology: Any, num_nodes: int, count: int, seed: int) -> tuple:
    return uniform_pairs(num_nodes, count, seed=seed)


#: family name -> pair builder ``(topology, num_nodes, count, seed) -> (src, dst)``
WORKLOAD_FAMILIES: dict[str, Callable[[Any, int, int, int], tuple]] = {
    "uniform": _family_uniform,
    "permutation": _family_permutation,
    "bit_reversal": _family_bit_reversal,
    "transpose": _family_transpose,
    "tornado": _family_tornado,
    "hotspot": _family_hotspot,
    "incast": _family_incast,
    "bursty": _family_bursty,
}


def build_workload(
    topology: Any,
    family: str,
    *,
    count: int,
    seed: int = 0,
    per_tick: int | None = None,
) -> TrafficMatrix:
    """Build ``count`` flows of a named family as a :class:`TrafficMatrix`.

    With ``per_tick`` set, arrivals are paced at that many flows per tick
    (the ``bursty`` family modulates the same rate with its on/off
    process); without it, everything is injected at tick 0.
    """
    from repro.fastgraph.codecs import codec_for

    builder = WORKLOAD_FAMILIES.get(family)
    if builder is None:
        known = ", ".join(sorted(WORKLOAD_FAMILIES))
        raise InvalidParameterError(f"unknown family {family!r} (known: {known})")
    codec = codec_for(topology)
    if codec is None:
        raise InvalidParameterError(
            f"{type(topology).__name__} has no codec; rank workloads need one"
        )
    src, dst = builder(topology, codec.num_nodes, count, seed)
    matrix = TrafficMatrix.from_ranks(src, dst)
    if per_tick is not None:
        if family == "bursty":
            arrivals = bursty_arrivals(
                matrix.num_flows, per_tick=per_tick, seed=seed
            )
        else:
            arrivals = paced_arrivals(matrix.num_flows, per_tick=per_tick)
        matrix = matrix.with_arrivals(arrivals)
    return matrix
