"""Generic Cayley-graph construction and exact vertex-transitive routing.

A Cayley graph ``Cay(G, S)`` has the group elements as vertices and an edge
``{v, v·s}`` for every ``v ∈ G`` and generator ``s ∈ S``.  Because ``S`` is
closed under inverse (enforced by :class:`repro.cayley.group.GeneratorSet`)
the graph is undirected.

The key service this module provides beyond construction is **exact
routing**: in a Cayley graph, the map ``v ↦ u·v`` is an automorphism, so
``dist(u, w) = dist(identity, u^{-1}·w)`` and a single BFS from the identity
yields a complete distance oracle and shortest-path router for *all* vertex
pairs.  The paper leans on exactly this (Remark 7) to reduce routing in
``HB(m, n)`` to routing from the identity node.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterator

import networkx as nx
import numpy as np

from repro.cayley.group import DirectProductGroup, GeneratorSet, Group
from repro.errors import InvalidLabelError, InvalidParameterError

__all__ = ["CayleyGraph", "DistanceOracle", "build_cayley_graph"]

#: a DirectProductGroup generator set split by acting factor:
#: (left gens, their parent indices, right gens, their parent indices)
_ProductSplit = tuple[
    GeneratorSet, tuple[int, ...], GeneratorSet, tuple[int, ...]
]


def _split_product_generators(
    group: Group, gens: GeneratorSet
) -> _ProductSplit | None:
    """Split a product group's generators by the factor they act on.

    The hyper-butterfly generator set (Definition 3) is exactly of this
    shape: ``h_i`` acts on the hypercube part only, ``g/f/g⁻¹/f⁻¹`` on
    the butterfly part only.  Returns ``None`` when the group is not a
    :class:`DirectProductGroup`, some generator moves both factors at
    once, or a non-trivial factor is left with no generators (the product
    graph would be disconnected) — callers then fall back to a whole-group
    BFS fill.
    """
    if not isinstance(group, DirectProductGroup):
        return None
    left_identity = group.left.identity()
    right_identity = group.right.identity()
    left_gens: list[Hashable] = []
    left_names: list[str] = []
    left_index: list[int] = []
    right_gens: list[Hashable] = []
    right_names: list[str] = []
    right_index: list[int] = []
    for i, s in enumerate(gens.generators):
        if not (isinstance(s, tuple) and len(s) == 2):
            return None
        if s[1] == right_identity:
            left_gens.append(s[0])
            left_names.append(gens.names[i])
            left_index.append(i)
        elif s[0] == left_identity:
            right_gens.append(s[1])
            right_names.append(gens.names[i])
            right_index.append(i)
        else:
            return None  # a mixed generator: not a Cartesian product edge set
    if not left_gens and group.left.order() > 1:
        return None
    if not right_gens and group.right.order() > 1:
        return None
    return (
        GeneratorSet(
            group=group.left,
            generators=tuple(left_gens),
            names=tuple(left_names),
        ),
        tuple(left_index),
        GeneratorSet(
            group=group.right,
            generators=tuple(right_gens),
            names=tuple(right_names),
        ),
        tuple(right_index),
    )


class DistanceOracle:
    """BFS tree from the identity, reusable for all pairs via transitivity.

    Stores, for every group element, its distance from the identity and the
    index of the generator whose edge was used to *reach* it in the BFS.
    Shortest paths are reconstructed backwards by applying inverse
    generators.

    Three fills, picked automatically (``backend="auto"``):

    * **product** — when the group is a :class:`DirectProductGroup` whose
      generators each act on a single factor (the hyper-butterfly's shape,
      Definition 3), the oracle holds one *factor* oracle per side and
      answers every query by combination: distances are sums (Remark 8 —
      for ``HB`` literally ``hamming + butterfly_table`` O(1) lookups),
      words are concatenations, the distribution is a convolution.  Build
      cost collapses from ``O(n·2^{m+n})`` to ``O(2^m + n·2^n)``.
    * **implicit** — for codec-backed groups the whole oracle lives in
      three numpy arrays indexed by the :mod:`repro.fastgraph` dense-integer
      codec, filled by one CSR-free implicit BFS
      (:mod:`repro.fastgraph.implicit`): frontiers expand directly from
      packed ranks, so no ``order × degree`` neighbor table is ever
      materialized.  ``backend="implicit"`` forces this path for the
      whole group (used to cross-check the product path) and raises
      :class:`~repro.errors.InvalidParameterError` when the group has no
      codec.
    * **dict** — groups :func:`~repro.fastgraph.codecs.codec_for_group`
      cannot encode (a user-defined :class:`~repro.cayley.group.Group`)
      are filled by a queue BFS over group elements into dicts.
    """

    def __init__(
        self, group: Group, gens: GeneratorSet, *, backend: str = "auto"
    ) -> None:
        if backend not in ("auto", "implicit"):
            raise InvalidParameterError(
                f"unknown oracle backend {backend!r} (expected 'auto' or 'implicit')"
            )
        self.group = group
        self.gens = gens
        self._dist: dict[Hashable, int] = {}
        self._via: dict[Hashable, int] = {}
        self._codec = None
        self._dist_arr = None  # int32[order]  distance from identity, by rank
        self._via_arr = None  # int64[order]  reaching generator index, by rank
        self._parent_arr = None  # int64[order] BFS-tree parent rank, by rank
        self._left: DistanceOracle | None = None  # product path factor oracles
        self._right: DistanceOracle | None = None
        self._left_index: tuple[int, ...] = ()
        self._right_index: tuple[int, ...] = ()
        self._word_table: tuple[np.ndarray, np.ndarray] | None = None
        self._lifted_words: (
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None
        if backend == "auto":
            split = _split_product_generators(group, gens)
            if split is not None:
                left_gens, self._left_index, right_gens, self._right_index = split
                self._left = DistanceOracle(group.left, left_gens)
                self._right = DistanceOracle(group.right, right_gens)
                return
        # deferred: cayley sits below fastgraph in the layer DAG (HB401)
        from repro.fastgraph.codecs import codec_for_group

        self._codec = codec_for_group(group)
        if self._codec is not None:
            # oracle adjacency is *this* generator set, in *this* order (via
            # indices point into it) — never the codec's family default
            self._codec.generators = tuple(gens.generators)
            self._run_bfs_implicit()
        elif backend == "implicit":
            raise InvalidParameterError(
                f"{type(group).__name__}: backend='implicit' needs a group codec"
            )
        else:
            self._run_bfs()

    def _run_bfs(self) -> None:
        identity = self.group.identity()
        self._dist[identity] = 0
        queue: deque[Hashable] = deque([identity])
        while queue:
            v = queue.popleft()
            dv = self._dist[v]
            for i in range(len(self.gens)):
                w = self.gens.apply(v, i)
                if w not in self._dist:
                    self._dist[w] = dv + 1
                    self._via[w] = i
                    queue.append(w)

    def _run_bfs_implicit(self) -> None:
        """CSR-free oracle fill — no ``order × degree`` table, ever.

        Frontiers expand straight from packed ranks
        (:func:`repro.fastgraph.implicit.implicit_bfs_levels`), so peak
        memory is the three output arrays plus a visited bitset; ``via``
        is the neighbor-block column that first reached each element,
        i.e. the index of its reaching generator.
        """
        from repro.fastgraph.implicit import implicit_bfs_levels

        codec = self._codec
        root = codec.rank(self.group.identity())
        dist, parents, via = implicit_bfs_levels(
            codec, root, want_parents=True, want_via=True
        )
        self._dist_arr = dist
        self._via_arr = via
        self._parent_arr = parents

    def _rank_checked(self, delta: Hashable) -> int:
        if not self.group.contains(delta):
            raise InvalidLabelError(f"{delta!r} is not a group element")
        return self._codec.rank(delta)

    def distance_from_identity(self, delta: Hashable) -> int:
        if self._left is not None and self._right is not None:
            if not self.group.contains(delta):
                raise InvalidLabelError(f"{delta!r} is not a group element")
            return self._left.distance_from_identity(
                delta[0]
            ) + self._right.distance_from_identity(delta[1])
        if self._dist_arr is not None:
            d = int(self._dist_arr[self._rank_checked(delta)])
            if d < 0:  # non-generating set: mirror the dict path's failure
                raise InvalidLabelError(f"{delta!r} is not a group element")
            return d
        try:
            return self._dist[delta]
        except KeyError:
            raise InvalidLabelError(f"{delta!r} is not a group element") from None

    def generator_word(self, delta: Hashable) -> list[int]:
        """Generator indices multiplying the identity out to ``delta``.

        The word has length ``dist(identity, delta)`` — it is a shortest
        path, and applying the word to any vertex ``u`` traces the shortest
        path from ``u`` to ``u·delta``.
        """
        if self._left is not None and self._right is not None:
            if not self.group.contains(delta):
                raise InvalidLabelError(f"{delta!r} is not a group element")
            # factor words, lifted to parent generator indices; left factor
            # first (the paper's cube-then-butterfly concatenation — both
            # orders are optimal because part distances are independent)
            return [
                self._left_index[i]
                for i in self._left.generator_word(delta[0])
            ] + [
                self._right_index[i]
                for i in self._right.generator_word(delta[1])
            ]
        if self._dist_arr is not None:
            word_rev: list[int] = []
            v = self._rank_checked(delta)
            root = self._codec.rank(self.group.identity())
            while v != root:
                word_rev.append(int(self._via_arr[v]))
                v = int(self._parent_arr[v])
            word_rev.reverse()
            return word_rev
        word_rev = []
        v = delta
        identity = self.group.identity()
        while v != identity:
            i = self._via[v] if v in self._via else None
            if i is None:
                raise InvalidLabelError(f"{delta!r} is not a group element")
            word_rev.append(i)
            # step back along the tree edge: v = parent · s_i
            v = self.group.multiply(v, self.group.inverse(self.gens.generators[i]))
        word_rev.reverse()
        return word_rev

    def factor_split(
        self,
    ) -> tuple["DistanceOracle", tuple[int, ...], "DistanceOracle", tuple[int, ...]] | None:
        """The product backend's factor oracles, or ``None``.

        Returns ``(left, left_index, right, right_index)`` where the index
        tuples lift each factor's local generator indices to positions in
        the parent generator set — the layout :meth:`generator_word` uses.
        Bulk consumers (the flow-level route builder) read the factors'
        word tables through these lifts via :meth:`lifted_word_tables`.
        """
        if self._left is None or self._right is None:
            return None
        return (self._left, self._left_index, self._right, self._right_index)

    def lifted_word_tables(
        self,
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        """Both factors' :meth:`word_table`, lifted to parent generator indices.

        Returns ``(left_words, left_dist, right_words, right_dist)``: the
        product element with factor ranks ``(a, b)`` has the word
        ``left_words[a, :left_dist[a]]`` followed by
        ``right_words[b, :right_dist[b]]`` — what :meth:`generator_word`
        returns.  Built on first use and cached read-only; non-product
        oracles raise.
        """
        if self._left is None or self._right is None:
            raise InvalidParameterError(
                "only a product oracle has factor word tables; use word_table()"
            )
        if self._lifted_words is None:

            def lift(
                factor: DistanceOracle, index: tuple[int, ...]
            ) -> tuple[np.ndarray, np.ndarray]:
                # a factor table cached already is reused; otherwise it is
                # built without caching, so only the lifted copy is kept
                words, dist = factor._word_table or factor._fill_word_table()
                # the trailing -1 maps padding (-1) to itself
                lifted = np.asarray((*index, -1), dtype=np.int16)[words]
                lifted.flags.writeable = False
                return lifted, dist

            self._lifted_words = (
                *lift(self._left, self._left_index),
                *lift(self._right, self._right_index),
            )
        return self._lifted_words

    def word_table(self) -> tuple["np.ndarray", "np.ndarray"]:
        """All generator words at once: ``(words, dist)`` arrays by rank.

        ``words`` is ``(order, eccentricity)`` int16 — row ``r`` holds the
        generator-index word of the element of codec rank ``r``, padded
        with ``-1`` beyond ``dist[r]`` — and equals
        :meth:`generator_word` row for row (same BFS tree, filled level by
        level instead of per-element backtracking).  Product oracles raise:
        callers use :meth:`lifted_word_tables` and concatenate factor words
        themselves.

        Built once per oracle and cached; both arrays are read-only so
        no caller can corrupt the cache.
        """
        if self._left is not None and self._right is not None:
            raise InvalidParameterError(
                "product oracle has no single word table; use lifted_word_tables()"
            )
        if self._word_table is None:
            self._word_table = self._fill_word_table()
        return self._word_table

    def _fill_word_table(self) -> tuple["np.ndarray", "np.ndarray"]:
        """:meth:`word_table`'s read-only arrays, built afresh (not cached)."""
        if self._dist_arr is None:
            raise InvalidParameterError(
                f"no codec for group {type(self.group).__name__}; "
                "word_table needs rank-addressable elements"
            )
        dist = np.asarray(self._dist_arr, dtype=np.int64)
        via = np.asarray(self._via_arr, dtype=np.int64)
        parent = np.asarray(self._parent_arr, dtype=np.int64)
        ecc = int(dist.max()) if dist.size else 0
        words = np.full((dist.size, max(ecc, 0)), -1, dtype=np.int16)
        # level-by-level prefix copy: parents at distance d-1 are complete
        # before any element at distance d copies from them
        for d in range(1, ecc + 1):
            sel = np.flatnonzero(dist == d)
            if d > 1:
                words[sel, : d - 1] = words[parent[sel], : d - 1]
            # generator indices are tiny; the int16 narrowing is lossless
            words[sel, d - 1] = via[sel].astype(np.int16)
        words.flags.writeable = False
        dist.flags.writeable = False
        return words, dist

    def distance(self, u: Hashable, v: Hashable) -> int:
        """Exact distance between arbitrary vertices ``u`` and ``v``."""
        return self.distance_from_identity(self.group.quotient(u, v))

    def shortest_path(self, u: Hashable, v: Hashable) -> list[Hashable]:
        """An exact shortest path from ``u`` to ``v`` (inclusive of both)."""
        word = self.generator_word(self.group.quotient(u, v))
        path = [u]
        for i in word:
            path.append(self.gens.apply(path[-1], i))
        return path

    def eccentricity_of_identity(self) -> int:
        """Max distance from the identity — equals the graph diameter.

        (Vertex transitivity makes every vertex's eccentricity equal.)
        """
        if self._left is not None and self._right is not None:
            # max over pairs of sums = sum of factor maxima (Remark 6)
            return (
                self._left.eccentricity_of_identity()
                + self._right.eccentricity_of_identity()
            )
        if self._dist_arr is not None:
            return int(self._dist_arr.max())
        return max(self._dist.values())

    def distance_distribution(self) -> dict[int, int]:
        """Histogram ``{distance: count}`` over all vertices."""
        if self._left is not None and self._right is not None:
            # distances add and element counts multiply: a convolution
            hist: dict[int, int] = {}
            for d1, c1 in self._left.distance_distribution().items():
                for d2, c2 in self._right.distance_distribution().items():
                    hist[d1 + d2] = hist.get(d1 + d2, 0) + c1 * c2
            return dict(sorted(hist.items()))
        if self._dist_arr is not None:
            counts = np.bincount(self._dist_arr[self._dist_arr >= 0])
            return {d: int(c) for d, c in enumerate(counts) if c}
        hist = {}
        for d in self._dist.values():
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))

    def average_distance(self) -> float:
        """Mean distance from the identity over all vertices (incl. itself)."""
        if self._left is not None and self._right is not None:
            hist = self.distance_distribution()
            return sum(d * c for d, c in hist.items()) / sum(hist.values())
        if self._dist_arr is not None:
            reached = self._dist_arr[self._dist_arr >= 0]
            return float(reached.mean())
        n = len(self._dist)
        return sum(self._dist.values()) / n


class CayleyGraph:
    """A Cayley graph ``Cay(G, S)`` with lazy exact-routing support."""

    def __init__(self, group: Group, gens: GeneratorSet) -> None:
        if gens.group != group:
            raise InvalidLabelError("generator set belongs to a different group")
        self.group = group
        self.gens = gens
        self._gen_set = frozenset(gens.generators)
        self._oracle: DistanceOracle | None = None

    # Basic graph interface ----------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.group.order()

    @property
    def degree(self) -> int:
        return len(self.gens)

    @property
    def num_edges(self) -> int:
        # regular of degree |S| whenever the generator action is fixed-point
        # free and injective (Remark 3); true for every graph in this repo.
        return self.num_nodes * self.degree // 2

    def nodes(self) -> Iterator[Hashable]:
        return self.group.elements()

    def neighbors(self, v: Hashable) -> list[Hashable]:
        return self.gens.neighbors(v)

    def has_node(self, v: Hashable) -> bool:
        return self.group.contains(v)

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        # {u, v} is an edge iff u^{-1}·v is a generator: one O(1) set probe
        # instead of materialising and scanning the neighbor list.
        return self.group.quotient(u, v) in self._gen_set

    def to_networkx(self) -> nx.Graph:
        """Materialise as an undirected :class:`networkx.Graph`."""
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        for v in self.nodes():
            for i, w in enumerate(self.gens.neighbors(v)):
                graph.add_edge(v, w, generator=self.gens.name_of(i))
        return graph

    # Exact routing --------------------------------------------------------

    @property
    def oracle(self) -> DistanceOracle:
        """The identity-rooted BFS distance oracle (built on first use)."""
        if self._oracle is None:
            self._oracle = DistanceOracle(self.group, self.gens)
        return self._oracle

    def distance(self, u: Hashable, v: Hashable) -> int:
        return self.oracle.distance(u, v)

    def shortest_path(self, u: Hashable, v: Hashable) -> list[Hashable]:
        return self.oracle.shortest_path(u, v)

    def diameter(self) -> int:
        return self.oracle.eccentricity_of_identity()


def build_cayley_graph(group: Group, gens: GeneratorSet) -> nx.Graph:
    """One-shot helper: materialise ``Cay(group, gens)`` as a networkx graph."""
    return CayleyGraph(group, gens).to_networkx()
