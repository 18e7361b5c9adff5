"""Bijective node ↔ dense-integer codecs for the fast graph backend.

A :class:`NodeCodec` maps every vertex label of a topology family onto the
dense integer range ``0 .. num_nodes - 1`` (``rank``) and back (``unrank``).
Once labels are dense integers, adjacency becomes a CSR array pair
(:mod:`repro.fastgraph.csr`) and BFS becomes numpy array arithmetic
(:mod:`repro.fastgraph.kernels`) instead of dict-of-tuples walking.

Packings (all mixed-radix / bit-packed, so rank and unrank are O(1)):

* hypercube ``H_m`` — labels already are dense ints: identity.
* butterfly group element ``(PI, CI)`` — ``idx = PI << n | CI`` (dense
  because ``PI < n`` and ``CI < 2^n``).
* hyper-butterfly ``(h, (PI, CI))`` — product packing
  ``idx = h * (n·2^n) + (PI << n | CI)``, the ``(h << n | CI) * n + PI``
  family of packings with the butterfly part kept contiguous so the
  butterfly generators act on aligned bit fields.
* generic products — ``idx = rank_left * num_right + rank_right``.

Cayley-backed codecs additionally implement :meth:`NodeCodec.apply_generator`
— the **vectorized** right-multiplication of a whole array of ranked nodes
by one group generator — from which a complete neighbor table (and hence a
CSR) is built in a handful of numpy operations, with no per-node Python.

The registry (:func:`register_codec` / :func:`codec_for`) is keyed by
topology class name and reads only public attributes, so registering a
codec never imports topology modules (no import cycles) and any external
:class:`~repro.topologies.base.Topology` subclass can opt in.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

import numpy as np

from repro.errors import InvalidLabelError

__all__ = [
    "NodeCodec",
    "IntRangeCodec",
    "HypercubeCodec",
    "ButterflyElementCodec",
    "ProductCodec",
    "PairRadixCodec",
    "WrappedButterflyCodec",
    "DeBruijnCodec",
    "CycleCodec",
    "TorusCodec",
    "EnumerationCodec",
    "register_codec",
    "registered_codec_families",
    "codec_for",
    "codec_for_group",
]


class NodeCodec:
    """Bijection between a family's vertex labels and ``0 .. num_nodes-1``."""

    #: number of vertices — ranks are exactly ``range(num_nodes)``
    num_nodes: int = 0

    #: stable identity string for disk-level CSR caching, or ``None`` when
    #: the codec is instance-bound (e.g. enumeration codecs)
    cache_key: str | None = None

    #: whether :meth:`neighbors_block` rows can hold ``-1`` padding; codecs
    #: whose rows never pad say ``False`` so BFS levels skip the check
    pads_rows: bool = True

    def rank(self, label: Hashable) -> int:
        raise NotImplementedError

    def unrank(self, idx: int) -> Hashable:
        raise NotImplementedError

    # Optional vectorized services ----------------------------------------

    #: generator labels (Cayley families) used to build the neighbor table
    generators: tuple[Any, ...] | None = None

    def apply_generator(self, idx: np.ndarray, gen: Any) -> np.ndarray:
        """Vectorized right-multiplication of ranked nodes by ``gen``.

        ``idx`` is a numpy integer array; returns the ranked images.  Only
        Cayley-element codecs implement this.
        """
        raise NotImplementedError

    def step_block(self, idx: np.ndarray, gen_index: np.ndarray) -> np.ndarray:
        """One generator step per entry: rank of ``idx[i]·generators[gen_index[i]]``.

        ``gen_index[i] == -1`` (word padding) keeps ``idx[i]``.  Returns a
        new int64 array.  This default applies each generator to the
        entries that use it; :class:`ProductCodec` gathers from its move
        tables instead.
        """
        if self.generators is None:
            raise NotImplementedError
        out = np.array(idx, dtype=np.int64)
        for gi, gen in enumerate(self.generators):
            sub = np.flatnonzero(gen_index == gi)
            if len(sub):
                out[sub] = self.apply_generator(out[sub], gen)
        return out

    def neighbor_table(self) -> np.ndarray | None:
        """``(num_nodes, degree)`` int array of ranked neighbors, or ``None``.

        Column ``i`` of a Cayley codec's table is generator ``i`` applied to
        every vertex — the column order matches ``self.generators`` so BFS
        parent columns double as generator indices for the oracle.  It is
        :meth:`neighbors_block` over every rank, so a product codec builds
        it from its cached factor move tables.
        """
        if self.generators is None:
            return None
        return self.neighbors_block(np.arange(self.num_nodes, dtype=np.int64))

    # Vectorized group arithmetic ------------------------------------------

    def supports_group_ops(self) -> bool:
        """Whether :meth:`inverse_block` / :meth:`multiply_block` work.

        True for Cayley-element codecs whose ranks *are* group elements
        under a packed encoding, so whole arrays of elements can be
        inverted and composed without unranking.  The flow-level traffic
        engine uses this to turn ``(source, target)`` rank arrays into
        quotient elements ``source⁻¹·target`` for bulk route synthesis.
        """
        return False

    def inverse_block(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized group inverse of ranked elements."""
        raise NotImplementedError

    def multiply_block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized group product ``a · b`` of ranked element arrays."""
        raise NotImplementedError

    # Implicit adjacency ---------------------------------------------------

    def supports_implicit(self) -> bool:
        """Whether :meth:`neighbors_block` works on arbitrary rank arrays.

        True for Cayley-element codecs (the default implementation applies
        every generator) and for codecs that override
        :meth:`neighbors_block` with direct bit arithmetic.  Codecs that can
        only enumerate (:class:`EnumerationCodec`, boundary meshes) return
        ``False`` and stay CSR-only.
        """
        return self.generators is not None

    def neighbors_block(self, idx: np.ndarray) -> np.ndarray:
        """``(len(idx), width)`` int64 array of ranked neighbors of ``idx``.

        The implicit-adjacency contract behind :mod:`repro.fastgraph.implicit`:
        adjacency is computed on the fly from the packed integer ranks, so a
        BFS frontier costs ``O(frontier · degree)`` memory instead of the
        ``O(edges)`` a CSR build needs.  Entries ``< 0`` are padding (used by
        irregular families such as de Bruijn); the valid entries of each row
        appear in exactly the order the CSR adjacency row lists them, so BFS
        parent tie-breaking is bit-identical across backends.
        """
        if self.generators is None:
            raise NotImplementedError
        if not self.generators:
            return np.zeros((len(idx), 0), dtype=np.int64)
        return np.column_stack([self.apply_generator(idx, s) for s in self.generators])


class IntRangeCodec(NodeCodec):
    """Identity codec for families whose labels already are dense ints."""

    def __init__(
        self, num_nodes: int, *, offset: int = 0, cache_key: str | None = None
    ) -> None:
        self.num_nodes = num_nodes
        self.offset = offset
        self.cache_key = cache_key

    def rank(self, label: int) -> int:
        return label - self.offset

    def unrank(self, idx: int) -> int:
        return idx + self.offset


class HypercubeCodec(IntRangeCodec):
    """``H_m`` / ``(Z_2)^m`` — int labels, generators act by XOR."""

    pads_rows = False

    def __init__(self, m: int, generators: Iterable[int] | None = None) -> None:
        super().__init__(1 << m, cache_key=f"hypercube:{m}")
        self.m = m
        self.generators = (
            tuple(generators) if generators is not None else tuple(1 << i for i in range(m))
        )

    def apply_generator(self, idx: np.ndarray, gen: int) -> np.ndarray:
        return idx ^ gen

    def supports_group_ops(self) -> bool:
        return True

    def inverse_block(self, idx: np.ndarray) -> np.ndarray:
        # every element of (Z_2)^m is an involution
        return idx

    def multiply_block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a ^ b


class ButterflyElementCodec(NodeCodec):
    """Butterfly group ``Z_n ⋉ (Z_2)^n`` elements ``(x, c)`` → ``x << n | c``."""

    pads_rows = False

    def __init__(
        self, n: int, generators: Iterable[tuple[int, int]] | None = None
    ) -> None:
        self.n = n
        self.num_nodes = n << n
        self.cache_key = f"butterfly:{n}"
        if generators is None:
            # the paper's g, f, g^-1, f^-1 in ButterflyGroup's order
            generators = [(1, 0), (1, 1), (n - 1, 0), (n - 1, 1 << (n - 1))]
        self.generators = tuple(generators)

    def rank(self, label: tuple[int, int]) -> int:
        x, c = label
        return (x << self.n) | c

    def unrank(self, idx: int) -> tuple[int, int]:
        return (idx >> self.n, idx & ((1 << self.n) - 1))

    def apply_generator(self, idx: np.ndarray, gen: tuple[int, int]) -> np.ndarray:
        # (x, c) · (dx, dc) = ((x + dx) mod n, c ^ rot_left(dc, x))
        n = self.n
        word_mask = (1 << n) - 1
        dx, dc = gen
        if dx == 0 and dc == 0:
            # the identity — a hyper-butterfly cube generator's fly part
            return idx
        x = idx >> n
        c = idx & word_mask
        x2 = (x + dx) % n
        rotated = ((dc << x) | (dc >> (n - x))) & word_mask
        return (x2 << n) | (c ^ rotated)

    def supports_group_ops(self) -> bool:
        return True

    def inverse_block(self, idx: np.ndarray) -> np.ndarray:
        # (x, c)^-1 = (-x mod n, rot_right(c, x)) — mirrors
        # ButterflyGroup.inverse with the rotation done on packed words
        # (x = 0 degenerates to the identity rotation, as in
        # apply_generator, because c >> 0 | c << n masks back to c).
        n = self.n
        word_mask = (1 << n) - 1
        x = idx >> n
        c = idx & word_mask
        rot = ((c >> x) | (c << (n - x))) & word_mask
        return (((n - x) % n) << n) | rot

    def multiply_block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # (x, c)·(dx, dc) = ((x + dx) mod n, c ^ rot_left(dc, x)) with the
        # per-element rotation amount taken from the left operand.
        n = self.n
        word_mask = (1 << n) - 1
        x = a >> n
        c = a & word_mask
        dx = b >> n
        dc = b & word_mask
        rot = ((dc << x) | (dc >> (n - x))) & word_mask
        return (((x + dx) % n) << n) | (c ^ rot)


class ProductCodec(NodeCodec):
    """Pair labels ``(a, b)`` → ``rank_left(a) * num_right + rank_right(b)``.

    Used for direct-product groups (hyper-butterfly: hypercube × butterfly,
    with per-factor generator application) and for Cartesian-product
    topologies (neighbor table = left moves ⊕ right moves when both factor
    tables exist).

    A generator product expands :meth:`neighbors_block` from two cached
    per-factor move tables (:meth:`move_tables`), so a block costs one
    ``divmod`` and two gathers instead of one ``apply_generator`` per
    column.
    """

    def __init__(
        self,
        left: NodeCodec,
        right: NodeCodec,
        *,
        generators: Iterable[tuple] | None = None,
    ) -> None:
        self.left = left
        self.right = right
        self.num_nodes = left.num_nodes * right.num_nodes
        self.pads_rows = left.pads_rows or right.pads_rows
        if left.cache_key and right.cache_key:
            self.cache_key = f"product:({left.cache_key})x({right.cache_key})"
        self.generators = tuple(generators) if generators is not None else None
        self._moves: tuple[tuple, np.ndarray, np.ndarray] | None = None

    def rank(self, label: tuple) -> int:
        a, b = label
        return self.left.rank(a) * self.right.num_nodes + self.right.rank(b)

    def unrank(self, idx: int) -> tuple:
        a, b = divmod(idx, self.right.num_nodes)
        return (self.left.unrank(a), self.right.unrank(b))

    def apply_generator(self, idx: np.ndarray, gen: tuple) -> np.ndarray:
        ga, gb = gen
        nr = self.right.num_nodes
        a = idx // nr
        b = idx % nr
        return self.left.apply_generator(a, ga) * nr + self.right.apply_generator(b, gb)

    def supports_group_ops(self) -> bool:
        # componentwise = the direct-product group law, valid whenever both
        # factor codecs rank group elements (hyper-butterfly: cube × fly)
        return self.left.supports_group_ops() and self.right.supports_group_ops()

    def inverse_block(self, idx: np.ndarray) -> np.ndarray:
        nr = self.right.num_nodes
        a, b = np.divmod(idx, nr)
        return self.left.inverse_block(a) * nr + self.right.inverse_block(b)

    def multiply_block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        nr = self.right.num_nodes
        al, ar = np.divmod(a, nr)
        bl, br = np.divmod(b, nr)
        return self.left.multiply_block(al, bl) * nr + self.right.multiply_block(ar, br)

    def neighbor_table(self) -> np.ndarray | None:
        if self.generators is not None:
            return super().neighbor_table()
        # Cartesian product: (u, x) ~ (u', x) for u~u' plus (u, x') for x~x'
        lt = self.left.neighbor_table()
        rt = self.right.neighbor_table()
        if lt is None or rt is None:
            return None
        nl, nr = self.left.num_nodes, self.right.num_nodes
        a = np.repeat(np.arange(nl, dtype=np.int64), nr)
        b = np.tile(np.arange(nr, dtype=np.int64), nl)
        left_moves = lt[a] * nr + b[:, None]
        right_moves = a[:, None] * nr + rt[b]
        return np.concatenate([left_moves, right_moves], axis=1)

    def supports_implicit(self) -> bool:
        if self.generators is not None:
            return True
        return self.left.supports_implicit() and self.right.supports_implicit()

    def move_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(left, right)`` move tables of a generator product.

        Column ``k`` of the ``(left.num_nodes, degree)`` int64 ``left``
        table is generator ``k``'s left part applied to every left rank,
        premultiplied by ``right.num_nodes``; column ``k`` of the
        ``(right.num_nodes, degree)`` int32 ``right`` table is its right
        part applied to every right rank (the identity column for a
        generator that moves only the left factor).  Rank ``a·nr + b``'s
        neighbor through generator ``k`` is ``left[a, k] + right[b, k]``.

        Built on first use and rebuilt whenever :attr:`generators` changes
        — :class:`~repro.cayley.graph.DistanceOracle` reassigns it to the
        oracle's own generator order.
        """
        gens = self.generators
        if self._moves is None or self._moves[0] != gens:
            nl, nr = self.left.num_nodes, self.right.num_nodes
            a = np.arange(nl, dtype=np.int64)
            b = np.arange(nr, dtype=np.int64)
            right_dtype = np.int32 if nr <= np.iinfo(np.int32).max else np.int64
            left_moves = np.empty((nl, len(gens)), dtype=np.int64)
            right_moves = np.empty((nr, len(gens)), dtype=right_dtype)
            for k, (ga, gb) in enumerate(gens):
                left_moves[:, k] = self.left.apply_generator(a, ga) * nr
                right_moves[:, k] = self.right.apply_generator(b, gb)
            self._moves = (gens, left_moves, right_moves)
        return self._moves[1], self._moves[2]

    def step_block(self, idx: np.ndarray, gen_index: np.ndarray) -> np.ndarray:
        if not self.generators:
            return super().step_block(idx, gen_index)
        left_moves, right_moves = self.move_tables()
        degree = len(self.generators)
        a, b = np.divmod(idx, self.right.num_nodes)
        # flat offsets into the row-major tables: two 1-D gathers; a padding
        # entry (-1) reads some in-range cell and is restored below
        a *= degree
        a += gen_index
        b *= degree
        b += gen_index
        out = np.take(left_moves, a)
        out += np.take(right_moves, b)
        np.copyto(out, idx, where=gen_index < 0)
        return out

    def neighbors_block(self, idx: np.ndarray) -> np.ndarray:
        if self.generators:
            left_moves, right_moves = self.move_tables()
            a, b = np.divmod(idx, self.right.num_nodes)
            # np.take copies whole rows; fancy indexing is ~2x slower here
            block = np.take(left_moves, a, axis=0)
            block += np.take(right_moves, b, axis=0)
            return block
        if self.generators is not None:
            return super().neighbors_block(idx)
        # Cartesian combination — left-factor moves first, then right-factor
        # moves, matching both CartesianProduct.neighbors and neighbor_table.
        nr = self.right.num_nodes
        a, b = np.divmod(idx, nr)
        lb = self.left.neighbors_block(a)
        rb = self.right.neighbors_block(b)
        left_moves = np.where(lb >= 0, lb * nr + b[:, None], np.int64(-1))
        right_moves = np.where(rb >= 0, a[:, None] * nr + rb, np.int64(-1))
        return np.concatenate([left_moves, right_moves], axis=1)


class PairRadixCodec(NodeCodec):
    """Plain mixed-radix pair labels ``(a, b)`` with ``0 <= b < radix``."""

    def __init__(
        self, num_left: int, radix: int, *, cache_key: str | None = None
    ) -> None:
        self.radix = radix
        self.num_nodes = num_left * radix
        self.cache_key = cache_key

    def rank(self, label: tuple[int, int]) -> int:
        a, b = label
        return a * self.radix + b

    def unrank(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.radix)


class WrappedButterflyCodec(PairRadixCodec):
    """Classic ``⟨word, level⟩`` butterfly ``B_n`` — ``idx = word * n + level``."""

    pads_rows = False

    def __init__(self, n: int) -> None:
        super().__init__(1 << n, n, cache_key=f"wrapped-butterfly:{n}")
        self.n = n

    def neighbor_table(self) -> np.ndarray:
        return self.neighbors_block(np.arange(self.num_nodes, dtype=np.int64))

    def supports_implicit(self) -> bool:
        return True

    def neighbors_block(self, idx: np.ndarray) -> np.ndarray:
        n = self.n
        w, level = np.divmod(idx, n)
        up = (level + 1) % n
        down = (level - 1) % n
        return np.column_stack(
            [
                w * n + up,
                (w ^ (1 << level)) * n + up,
                w * n + down,
                (w ^ (1 << down)) * n + down,
            ]
        )


class DeBruijnCodec(IntRangeCodec):
    """Undirected simple binary de Bruijn ``D_n`` — int labels, padded rows.

    The simple undirected de Bruijn graph is *irregular* (self-loops and
    shift-pair merges drop edges at ``0…0``/``1…1`` and alternating words),
    so implicit rows are padded with ``-1`` where a candidate duplicates
    the vertex itself or an earlier candidate — reproducing exactly the
    ``seen``-set dedup order of :meth:`repro.topologies.debruijn.DeBruijn.neighbors`.
    """

    pads_rows = True

    def __init__(self, n: int) -> None:
        super().__init__(1 << n, cache_key=f"debruijn:{n}")
        self.n = n

    def supports_implicit(self) -> bool:
        return True

    def neighbors_block(self, idx: np.ndarray) -> np.ndarray:
        word_mask = (1 << self.n) - 1
        # candidate order mirrors DeBruijn.neighbors: shift-left b=0,1 then
        # shift-right b=0,1, each kept only if new w.r.t. v and predecessors
        c0 = (idx << 1) & word_mask
        c1 = c0 | 1
        c2 = idx >> 1
        c3 = c2 | (1 << (self.n - 1))
        pad = np.int64(-1)
        return np.column_stack(
            [
                np.where(c0 != idx, c0, pad),
                np.where(c1 != idx, c1, pad),
                np.where((c2 != idx) & (c2 != c0) & (c2 != c1), c2, pad),
                np.where(
                    (c3 != idx) & (c3 != c0) & (c3 != c1) & (c3 != c2), c3, pad
                ),
            ]
        )


class CycleCodec(IntRangeCodec):
    """Cycle ``C_k`` — int labels, successor/predecessor adjacency."""

    pads_rows = False

    def __init__(self, k: int) -> None:
        super().__init__(k, cache_key=f"cycle:{k}")
        self.k = k

    def neighbor_table(self) -> np.ndarray:
        return self.neighbors_block(np.arange(self.k, dtype=np.int64))

    def supports_implicit(self) -> bool:
        return True

    def neighbors_block(self, idx: np.ndarray) -> np.ndarray:
        return np.column_stack([(idx + 1) % self.k, (idx - 1) % self.k])


class TorusCodec(PairRadixCodec):
    """2-D torus ``(n1, n2)`` — pair labels, four wrap-around moves."""

    pads_rows = False

    def __init__(self, n1: int, n2: int) -> None:
        super().__init__(n1, n2, cache_key=f"torus:{n1},{n2}")
        self.n1 = n1
        self.n2 = n2

    def neighbor_table(self) -> np.ndarray:
        return self.neighbors_block(np.arange(self.num_nodes, dtype=np.int64))

    def supports_implicit(self) -> bool:
        return True

    def neighbors_block(self, idx: np.ndarray) -> np.ndarray:
        i, j = np.divmod(idx, self.n2)
        return np.column_stack(
            [
                ((i + 1) % self.n1) * self.n2 + j,
                ((i - 1) % self.n1) * self.n2 + j,
                i * self.n2 + (j + 1) % self.n2,
                i * self.n2 + (j - 1) % self.n2,
            ]
        )


class EnumerationCodec(NodeCodec):
    """Universal fallback: rank by enumeration order of ``topology.nodes()``.

    O(V) memory and no vectorized adjacency (CSR only) —
    :func:`~repro.fastgraph.backend.get_fastgraph` builds one per instance
    of a family with no registered codec.
    """

    pads_rows = True

    def __init__(self, labels: Iterable[Hashable]) -> None:
        self._labels = list(labels)
        self._index = {v: i for i, v in enumerate(self._labels)}
        self.num_nodes = len(self._labels)
        self.cache_key = None

    def rank(self, label: Hashable) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidLabelError(f"{label!r} is not a known node") from None

    def unrank(self, idx: int) -> Hashable:
        return self._labels[idx]


# Registry ----------------------------------------------------------------

_REGISTRY: dict[str, Callable[[Any], NodeCodec | None]] = {}


def register_codec(type_name: str | type, factory: Callable[[Any], NodeCodec | None]) -> None:
    """Register ``factory(topology) -> NodeCodec | None`` for a class (name).

    Keyed by class *name* so registration requires no imports of topology
    modules; external subclasses opt in with
    ``register_codec(MyTopology, my_factory)``.
    """
    name = type_name if isinstance(type_name, str) else type_name.__name__
    _REGISTRY[name] = factory


def registered_codec_families() -> tuple[str, ...]:
    """The registered topology class names, sorted — ``hyperbutterfly
    prove`` joins this against the invariant-spec registry of
    :mod:`repro.topologies.invariants` and fails any family without a spec."""
    return tuple(sorted(_REGISTRY))


def codec_for(topology: Any) -> NodeCodec | None:
    """The registered codec for ``topology``, or ``None`` (the family is
    then ranked by an :class:`EnumerationCodec`)."""
    for klass in type(topology).__mro__:
        factory = _REGISTRY.get(klass.__name__)
        if factory is not None:
            return factory(topology)
    return None


def codec_for_group(group: Any) -> NodeCodec | None:
    """A codec over *group elements* for the standard groups, else ``None``."""
    name = type(group).__name__
    if name == "HypercubeGroup":
        return HypercubeCodec(group.m)
    if name == "ButterflyGroup":
        return ButterflyElementCodec(group.n)
    if name == "DirectProductGroup":
        left = codec_for_group(group.left)
        right = codec_for_group(group.right)
        if left is None or right is None:
            return None
        return ProductCodec(left, right)
    return None


# Built-in families --------------------------------------------------------


def _hypercube_factory(t: Any) -> NodeCodec:
    return HypercubeCodec(t.m)


def _cayley_butterfly_factory(t: Any) -> NodeCodec:
    return ButterflyElementCodec(t.n, generators=t.gens.generators)


def _wrapped_butterfly_factory(t: Any) -> NodeCodec:
    return WrappedButterflyCodec(t.n)


def _hyper_butterfly_factory(t: Any) -> NodeCodec:
    codec = ProductCodec(
        HypercubeCodec(t.m),
        ButterflyElementCodec(t.n),
        generators=t.gens.generators,
    )
    codec.cache_key = f"hyperbutterfly:{t.m},{t.n}"
    return codec


def _debruijn_factory(t: Any) -> NodeCodec:
    return DeBruijnCodec(t.n)


def _cycle_factory(t: Any) -> NodeCodec:
    return CycleCodec(t.k)


def _torus_factory(t: Any) -> NodeCodec:
    return TorusCodec(t.n1, t.n2)


def _mesh_factory(t: Any) -> NodeCodec:
    # open mesh: boundary irregularity → rank only, generic CSR build
    return PairRadixCodec(t.n1, t.n2, cache_key=f"mesh:{t.n1},{t.n2}")


def _tree_factory(t: Any) -> NodeCodec:
    return IntRangeCodec(t.num_nodes, offset=1, cache_key=f"tree:{t.k}")


def _product_factory(t: Any) -> NodeCodec | None:
    left = codec_for(t.left)
    right = codec_for(t.right)
    if left is None or right is None:
        return None
    return ProductCodec(left, right)


register_codec("Hypercube", _hypercube_factory)
register_codec("CayleyButterfly", _cayley_butterfly_factory)
register_codec("WrappedButterfly", _wrapped_butterfly_factory)
register_codec("HyperButterfly", _hyper_butterfly_factory)
register_codec("DeBruijn", _debruijn_factory)
register_codec("Cycle", _cycle_factory)
register_codec("Torus", _torus_factory)
register_codec("Mesh", _mesh_factory)
register_codec("CompleteBinaryTree", _tree_factory)
register_codec("CartesianProduct", _product_factory)
