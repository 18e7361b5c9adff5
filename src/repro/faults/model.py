"""Node- and link-fault sets and random fault injection.

The paper measures fault tolerance by vertex connectivity: a network with
connectivity ``κ`` stays connected under any set of fewer than ``κ`` node
faults.  :class:`FaultSet` is a small immutable wrapper that validates
fault labels against a topology and supports the common set algebra;
:class:`LinkFaultSet` is its edge-fault sibling (links stored undirected,
queried in either orientation).  Both are hashable so fault configurations
can key caches and deduplicate campaign trials.

Random placements (:func:`sample_nodes`, :func:`random_node_faults`,
:func:`random_link_faults`) keep what Algorithm R keeps when it streams
the eligible nodes (links) in ``nodes()`` (``edges()``) order with one
``rng.randrange(seen)`` per item past the reservoir.
:func:`reservoir_indices` computes that reservoir with whole-array numpy
code over ``rng``'s own Mersenne Twister words, drawn in bulk
(:mod:`repro._mersenne`), instead of a per-item loop, and leaves ``rng``
where the loop would.  The codec then turns the kept indices into ranks,
and only the picks are unranked.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Iterator, TypeVar

import numpy as np

from repro._mersenne import check_replayable, mt_words
from repro.errors import InvalidParameterError
from repro.fastgraph.codecs import codec_for
from repro.topologies.base import Topology

__all__ = [
    "FaultSet",
    "LinkFaultSet",
    "canonical_link",
    "reservoir_indices",
    "sample_nodes",
    "random_node_faults",
    "random_link_faults",
]


def canonical_link(u: Hashable, v: Hashable) -> tuple[Hashable, Hashable]:
    """The orientation-free form of an undirected link ``{u, v}``.

    Node labels inside one topology are mutually comparable tuples/ints;
    the ``repr`` fallback keeps the canonicalisation total for exotic
    label types without ordering.
    """
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class FaultSet:
    """An immutable set of faulty nodes of a given topology."""

    def __init__(self, topology: Topology, nodes: Iterable[Hashable] = ()) -> None:
        self.topology = topology
        frozen = frozenset(nodes)
        for v in frozen:
            topology.validate_node(v)
        self._nodes = frozen

    @property
    def nodes(self) -> frozenset:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._nodes)

    def __contains__(self, v: Hashable) -> bool:
        return v in self._nodes

    def __or__(self, other: "FaultSet | Iterable[Hashable]") -> "FaultSet":
        extra = other.nodes if isinstance(other, FaultSet) else other
        return FaultSet(self.topology, self._nodes | frozenset(extra))

    def without(self, nodes: Iterable[Hashable]) -> "FaultSet":
        """A copy with ``nodes`` healed."""
        return FaultSet(self.topology, self._nodes - frozenset(nodes))

    def healthy_neighbors(self, v: Hashable) -> list[Hashable]:
        """Non-faulty neighbors of ``v`` (``v`` itself may be faulty)."""
        return [w for w in self.topology.neighbors(v) if w not in self._nodes]

    def __eq__(self, other: object) -> bool:
        """Equal iff the topologies agree by name and the nodes coincide.

        Name-based topology identity (rather than object identity) lets two
        independently constructed ``HB(2, 3)`` instances produce equal fault
        sets — the useful notion for dict keys and campaign dedup.
        """
        if not isinstance(other, FaultSet):
            return NotImplemented
        return (
            self.topology.name == other.topology.name
            and self._nodes == other._nodes
        )

    def __hash__(self) -> int:
        return hash((self.topology.name, self._nodes))

    def __repr__(self) -> str:
        return f"FaultSet({self.topology.name}, {len(self._nodes)} faults)"


class LinkFaultSet:
    """An immutable set of faulty undirected links of a given topology.

    Links are canonicalised on entry, so membership tests accept either
    orientation: ``(u, v) in lfs`` iff ``(v, u) in lfs``.
    """

    def __init__(
        self,
        topology: Topology,
        links: Iterable[tuple[Hashable, Hashable]] = (),
    ) -> None:
        self.topology = topology
        frozen = frozenset(canonical_link(u, v) for u, v in links)
        for u, v in frozen:
            if not topology.has_edge(u, v):
                raise InvalidParameterError(
                    f"({u!r}, {v!r}) is not an edge of {topology.name}"
                )
        self._links = frozen

    @property
    def links(self) -> frozenset:
        return self._links

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[tuple[Hashable, Hashable]]:
        return iter(self._links)

    def __contains__(self, link: tuple[Hashable, Hashable]) -> bool:
        u, v = link
        return canonical_link(u, v) in self._links

    def blocks(self, u: Hashable, v: Hashable) -> bool:
        """Whether traversing ``u -> v`` (either direction) is faulted."""
        return canonical_link(u, v) in self._links

    def __or__(
        self, other: "LinkFaultSet | Iterable[tuple[Hashable, Hashable]]"
    ) -> "LinkFaultSet":
        extra = other.links if isinstance(other, LinkFaultSet) else other
        return LinkFaultSet(self.topology, self._links | frozenset(
            canonical_link(u, v) for u, v in extra
        ))

    def without(
        self, links: Iterable[tuple[Hashable, Hashable]]
    ) -> "LinkFaultSet":
        """A copy with ``links`` healed."""
        healed = frozenset(canonical_link(u, v) for u, v in links)
        return LinkFaultSet(self.topology, self._links - healed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkFaultSet):
            return NotImplemented
        return (
            self.topology.name == other.topology.name
            and self._links == other._links
        )

    def __hash__(self) -> int:
        return hash((self.topology.name, self._links))

    def __repr__(self) -> str:
        return f"LinkFaultSet({self.topology.name}, {len(self._links)} faults)"


#: raw words drawn per block, so a draw over millions of items never holds
#: more than this many transient words (2**14 timed fastest over 2**12 ..
#: 2**16 on HB(4,10) and HB(6,11) and keeps the transient arrays < 1 MiB)
_BLOCK_WORDS = 1 << 14

_T = TypeVar("_T")


def _resolve(offset: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Which undecided words of one bit width are accepted draws.

    Word ``i`` is accepted when ``offset[i] < before[i] + c``, where
    ``before[i]`` counts the accepted words outside this set in front of
    it and ``c`` the accepted words of this set in front of it.  Every
    pass bounds ``c`` by taking the still-undecided earlier words as all
    rejected (lower) or all accepted (upper), and settles the words on
    either side of their bound; the first undecided word always settles,
    and in practice a handful of passes settle them all.
    """
    accepted = np.zeros(len(offset), dtype=bool)
    live = np.arange(len(offset))
    base = before
    while len(live):
        value = offset[live]
        yes = value < base
        no = value >= base + np.arange(len(live))
        accepted[live[yes]] = True
        keep = ~(yes | no)
        base = (base + np.cumsum(yes) - yes)[keep]
        live = live[keep]
    return accepted


def _width_block(
    words: np.ndarray, seen: int, draws: int, width: int, count: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Replay ``randrange(seen)``, ``randrange(seen + 1)``, ... over ``words``.

    All ``draws`` ranges have bit length ``width``, so a draw is one word
    ``>> (32 - width)``, redrawn while it is not below its range; the
    ``t``-th accepted word of the block is draw ``randrange(seen + t)``.
    Its threshold rises by one per accepted word, so the words fall in
    three bands: below ``seen`` surely accepted, at or above ``seen``
    plus the draws the block can hold surely rejected, and the narrow
    band between settled by :func:`_resolve`.

    Returns the reservoir writes — the draw values ``j < count`` and the
    draw numbers ``t`` that write them, in order — then the draws
    completed (at most ``draws``) and the words they use (all of
    ``words`` unless the width ends inside the block).
    """
    shift = np.uint64(32 - width)
    low = seen << (32 - width)
    high = (seen + min(draws, len(words))) << (32 - width)
    over = np.flatnonzero(words >= low)
    in_band = np.flatnonzero(words[over] < high)
    band = over[in_band]
    offset = (words[band] >> shift).astype(np.int64) - seen
    # the k-th word at or above `low` has over[k] - k sure words in front
    taken = band[_resolve(offset, band - in_band)]
    done = len(words) - len(over) + len(taken)
    used = len(words)
    if done >= draws:
        accepted = words < low
        accepted[taken] = True
        used = int(np.flatnonzero(accepted)[draws - 1]) + 1
        done = draws
    # a value below count < seen is below every threshold: a sure word
    hit = np.flatnonzero(words[:used] < count << (32 - width))
    number = hit - np.searchsorted(over, hit) + np.searchsorted(taken, hit)
    return (words[hit] >> shift).astype(np.int64), number, done, used


def reservoir_indices(rng: random.Random, count: int, eligible: int) -> np.ndarray:
    """The item indices Algorithm R keeps, in reservoir order.

    Exactly the reservoir of the loop that streams items ``0 ..
    eligible - 1``, keeps the first ``count``, and for item ``i >=
    count`` draws ``j = rng.randrange(i + 1)`` and stores ``i`` in slot
    ``j`` when ``j < count``; ``rng`` is left in the state that loop
    leaves it in, also for ``count == 0``, where every item draws once.

    No loop runs per item.  ``randrange(seen)`` is one 32-bit word
    ``>> (32 - seen.bit_length())``, redrawn while ``>= seen``.  The words
    come from ``rng`` itself (:func:`repro._mersenne.mt_words`) in blocks
    of at most ``_BLOCK_WORDS`` and never more than the draws still to
    make, so every word drawn is used and ``rng`` stops where the loop
    would.  Each block is settled width by width (:func:`_width_block`),
    and the writes land in draw order through numpy's last-write-wins
    store.  ``rng`` must draw by :class:`random.Random`'s own rules
    (:func:`repro._mersenne.check_replayable`), and ``eligible`` must
    stay below ``2**32``, where a draw would span two words.
    """
    check_replayable(rng)
    if not 0 <= count <= eligible:
        raise InvalidParameterError(f"cannot keep {count} of {eligible} items")
    if eligible >= 1 << 32:
        raise InvalidParameterError("need fewer than 2**32 eligible items")
    kept = np.arange(count, dtype=np.int64)
    seen = count + 1
    words = np.zeros(0, dtype=np.uint64)
    while seen <= eligible:
        if not len(words):
            words = mt_words(rng, min(_BLOCK_WORDS, eligible + 1 - seen))
        width = seen.bit_length()
        draws = min(eligible + 1, 1 << width) - seen
        # a width takes ~1.4 words per draw, never more than 2 on average:
        # a window that short spares the early, narrow widths the block
        window = words[: 2 * draws + 64]
        values, number, done, used = _width_block(window, seen, draws, width, count)
        kept[values] = number + (seen - 1)
        seen += done
        words = words[used:]
    return kept


def _pick(items: Iterable[_T], indices: np.ndarray) -> list[_T]:
    """``items[i]`` for each ``i`` of ``indices``, in one pass that stops
    at the last one needed."""
    order = np.argsort(indices)
    wanted = indices[order].tolist()
    slots = order.tolist()
    picked: list = [None] * len(wanted)
    k = 0
    for i, item in enumerate(items):
        if k == len(wanted):
            break
        if i == wanted[k]:
            picked[slots[k]] = item
            k += 1
    return picked


def sample_nodes(
    topology: Topology,
    count: int,
    *,
    rng: random.Random,
    exclude: Iterable[Hashable] = (),
) -> list[Hashable]:
    """``count`` distinct nodes reservoir-sampled over the node iterator.

    The nodes Algorithm R keeps when it streams ``topology.nodes()``,
    skipping ``exclude``, with one ``rng.randrange(seen)`` per node past
    the reservoir (:func:`reservoir_indices`); the reservoir order is the
    selection order, not sorted.  The draws depend only on the node order
    and the ``rng`` state — never on ``PYTHONHASHSEED`` — so callers on
    different BFS backends pick identical nodes.  The codec ranks in
    ``nodes()`` order, so a kept index maps to a rank past the excluded
    ranks and only the picks are unranked; a topology without a codec
    resolves them in one pass over ``nodes()``.  Excluded labels that are
    not nodes are ignored.
    """
    excluded = set(exclude)
    blocked = [v for v in excluded if topology.has_node(v)]
    available = topology.num_nodes - len(blocked)
    if count < 0 or count > available:
        raise InvalidParameterError(
            f"cannot sample {count} nodes among {available} eligible nodes"
        )
    picks = reservoir_indices(rng, count, available)
    codec = codec_for(topology)
    if codec is None:
        return _pick((v for v in topology.nodes() if v not in excluded), picks)
    skipped = np.sort(np.array([codec.rank(v) for v in blocked], dtype=np.int64))
    # eligible index e is rank e plus the skipped ranks at or below it
    ranks = picks + np.searchsorted(
        skipped - np.arange(len(skipped)), picks, side="right"
    )
    return [codec.unrank(r) for r in ranks.tolist()]


def random_node_faults(
    topology: Topology,
    count: int,
    *,
    rng: random.Random | None = None,
    exclude: Iterable[Hashable] = (),
) -> FaultSet:
    """``count`` distinct random faulty nodes, never touching ``exclude``.

    Sampling delegates to :func:`sample_nodes`.  Without an explicit
    ``rng`` a fixed-seed ``Random(0)`` is used so the default is
    reproducible.
    """
    rng = rng or random.Random(0)
    return FaultSet(topology, sample_nodes(topology, count, rng=rng, exclude=exclude))


def random_link_faults(
    topology: Topology,
    count: int,
    *,
    rng: random.Random | None = None,
    exclude: Iterable[tuple[Hashable, Hashable]] = (),
) -> LinkFaultSet:
    """``count`` distinct random faulty links, never touching ``exclude``.

    The links Algorithm R keeps when it streams ``topology.edges()``,
    skipping ``exclude``, drawn like :func:`sample_nodes` by
    :func:`reservoir_indices` and resolved in one pass over the edges
    (edge streams can be much larger than the node set, so they are never
    materialised; the seeded default ``Random(0)`` keeps the no-``rng``
    path reproducible).
    """
    rng = rng or random.Random(0)
    excluded = {canonical_link(u, v) for u, v in exclude}
    if count < 0:
        raise InvalidParameterError(f"cannot place {count} link faults")
    available = topology.num_edges - sum(
        1 for u, v in excluded if topology.has_node(u) and topology.has_edge(u, v)
    )
    if count > available:
        raise InvalidParameterError(
            f"cannot place {count} link faults among {available} eligible links"
        )
    picks = reservoir_indices(rng, count, available)
    links = (canonical_link(u, v) for u, v in topology.edges())
    return LinkFaultSet(
        topology, _pick((link for link in links if link not in excluded), picks)
    )
