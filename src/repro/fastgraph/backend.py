"""Topology-facing fast backend: codec + CSR/implicit kernels, memoized.

:func:`get_fastgraph` is the single integration point the rest of the
library uses, and the only code that resolves a ``backend=`` name: an
unknown name raises :class:`~repro.errors.InvalidParameterError`;
otherwise it returns the memoized :class:`FastGraph` of the instance.  Its
codec is the family's registered one, or an
:class:`~repro.fastgraph.codecs.EnumerationCodec` over ``nodes()`` for
families without one (``MeshOfTrees``).  Call sites pass ``backend`` on
to the :class:`FastGraph` method, whose :meth:`FastGraph.select_backend`
picks the substrate.

A :class:`FastGraph` carries **two** array substrates and picks per call:

* ``csr`` — materialized ``O(edges)`` adjacency; fastest per BFS once
  built.
* ``implicit`` — no adjacency at all; each frontier is expanded directly
  from the packed integer ranks via the codec's ``neighbors_block``
  (:mod:`repro.fastgraph.implicit`), so memory is ``O(frontier)`` and
  instances far past CSR's reach (HB(10,12), 49M nodes) stay exact.

``backend=None``/``"auto"`` prefers the CSR once one exists, otherwise
switches to implicit when the codec supports it and the instance exceeds
:func:`implicit_threshold` nodes (per-edge probes such as ``has_edge``
prefer implicit whenever no CSR is built — a probe should never trigger
an ``O(edges)`` build).  ``backend="csr"``/``"implicit"`` force a
substrate; forcing ``implicit`` on a codec without vectorized adjacency
(an enumeration codec, say) raises
:class:`~repro.errors.InvalidParameterError`.  All-sources sweeps go
through :meth:`FastGraph.sweep`, which picks the pool payload (codec or
CSR) the same way.
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

import numpy as np

from repro.errors import DisconnectedError, InvalidLabelError, InvalidParameterError

if TYPE_CHECKING:  # runtime imports stay lazy (cycle-free)
    from repro.fastgraph.codecs import NodeCodec
    from repro.fastgraph.csr import CSRAdjacency
    from repro.fastgraph.implicit import RepairKernel
    from repro.fastgraph.parallel import SweepResult
    from repro.topologies.base import Topology

__all__ = ["FastGraph", "get_fastgraph", "implicit_threshold"]

_ATTR = "_fastgraph_backend"

#: below this many nodes, "auto" builds the CSR (batched kernels, faster
#: repeat BFS); at or above it, implicit expansion avoids the O(edges) build
_THRESHOLD_ENV = "REPRO_IMPLICIT_THRESHOLD"
_DEFAULT_THRESHOLD = 1 << 22


def implicit_threshold() -> int:
    """Node count at which ``"auto"`` prefers implicit over building a CSR
    (``REPRO_IMPLICIT_THRESHOLD`` overrides, default 2^22; a value that is
    not an integer raises :class:`InvalidParameterError`)."""
    raw = os.environ.get(_THRESHOLD_ENV)
    if raw is None:
        return _DEFAULT_THRESHOLD
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"{_THRESHOLD_ENV}={raw!r} is not an integer node count"
        ) from None


class FastGraph:
    """Dense-integer view of one topology instance.

    The CSR adjacency is built lazily on first use and memoized on this
    object (which is itself memoized on the topology instance); the
    implicit substrate has nothing to build.
    """

    def __init__(self, topology: Topology, codec: NodeCodec) -> None:
        self.topology = topology
        self.codec = codec
        self._csr: CSRAdjacency | None = None
        # the last blocked set masked_source_stats ranked, with its ranks
        self._masked: tuple[frozenset, np.ndarray | None] = (frozenset(), None)

    @property
    def csr(self) -> CSRAdjacency:
        if self._csr is None:
            from repro.fastgraph.csr import build_csr

            self._csr = build_csr(self.topology, self.codec)
        return self._csr

    # -- backend selection -------------------------------------------------

    def supports_implicit(self) -> bool:
        """Whether the codec can expand frontiers without a CSR."""
        return self.codec.supports_implicit()

    def select_backend(
        self, backend: str | None = None, *, probe: bool = False
    ) -> str:
        """Resolve ``backend`` to ``"csr"`` or ``"implicit"``.

        ``None``/``"auto"``: reuse a built CSR; otherwise go implicit past
        :func:`implicit_threshold` nodes (or, with ``probe=True`` — per-edge
        work, not a BFS — whenever the codec supports it, since a probe
        never amortizes an ``O(edges)`` build).
        """
        if backend in (None, "auto"):
            if self._csr is not None or not self.codec.supports_implicit():
                return "csr"
            if probe or self.codec.num_nodes >= implicit_threshold():
                return "implicit"
            return "csr"
        if backend == "csr":
            return "csr"
        if backend == "implicit":
            if not self.codec.supports_implicit():
                raise InvalidParameterError(
                    f"{self.topology.name}: codec {type(self.codec).__name__} "
                    "has no vectorized implicit adjacency; use backend='csr'"
                )
            return "implicit"
        raise InvalidParameterError(
            f"unknown fastgraph backend {backend!r} "
            "(expected 'auto', 'csr' or 'implicit')"
        )

    @cached_property
    def repair_kernel(self) -> RepairKernel | None:
        """The masked-statistics kernel of a product Cayley graph, or ``None``.

        Set when the topology is a Cayley graph on a product codec whose
        distance oracle splits by factor (``HB(m, n)``): the oracle's
        factor distances then index the codec's factor ranks.
        """
        from repro.fastgraph.codecs import ProductCodec
        from repro.fastgraph.implicit import RepairKernel

        cayley = getattr(self.topology, "cayley", None)
        # the codec test first: it spares other Cayley graphs an oracle fill
        if (
            isinstance(self.codec, ProductCodec)
            and cayley is not None
            and cayley.oracle.factor_split() is not None
        ):
            _, left, _, right = cayley.oracle.lifted_word_tables()
            return RepairKernel(self.codec, left, right)
        return None

    # -- label plumbing ----------------------------------------------------

    def rank(self, label: Hashable) -> int:
        return self.codec.rank(label)

    def unrank(self, idx: int) -> Hashable:
        return self.codec.unrank(idx)

    def _forbidden_mask(
        self, blocked: Iterable[Hashable] | None
    ) -> np.ndarray | None:
        if not blocked:
            return None
        mask = np.zeros(self.codec.num_nodes, dtype=bool)
        has_node = self.topology.has_node
        for label in blocked:
            if has_node(label):
                mask[self.codec.rank(label)] = True
        return mask

    def _blocked_ranks(
        self, blocked: Iterable[Hashable] | None
    ) -> np.ndarray | None:
        """Blocked labels as a rank array — ``O(len(blocked))``, never
        ``O(num_nodes)`` (the implicit substrate's memory contract)."""
        if not blocked:
            return None
        has_node = self.topology.has_node
        ranks = [self.codec.rank(v) for v in blocked if has_node(v)]
        return np.array(sorted(ranks), dtype=np.int64) if ranks else None

    def _masked_ranks(self, blocked: frozenset) -> np.ndarray | None:
        """:meth:`_blocked_ranks`, reused while the same frozenset comes
        back: a sweep of many sources over one placement
        (:func:`~repro.faults.structures.structure_fault_diameter`) ranks
        its blocked set once.  The cached array is read-only."""
        last, ranks = self._masked
        if blocked is not last:
            ranks = self._blocked_ranks(blocked)
            if ranks is not None:
                ranks.flags.writeable = False
            self._masked = (blocked, ranks)
        return ranks

    # -- BFS services ------------------------------------------------------

    def distances_array(
        self,
        source: Hashable,
        *,
        blocked: Iterable[Hashable] | None = None,
        backend: str | None = None,
    ) -> np.ndarray:
        """``int32`` distance array indexed by rank (-1 = unreached)."""
        if self.select_backend(backend) == "implicit":
            from repro.fastgraph.implicit import implicit_bfs_levels

            dist, _, _ = implicit_bfs_levels(
                self.codec, self.rank(source), forbidden=self._blocked_ranks(blocked)
            )
            return dist
        from repro.fastgraph.kernels import bfs_levels

        dist, _ = bfs_levels(
            self.csr, self.rank(source), forbidden=self._forbidden_mask(blocked)
        )
        return dist

    def bfs_distances(
        self,
        source: Hashable,
        blocked: Iterable[Hashable] | None = None,
        *,
        backend: str | None = None,
    ) -> dict[Hashable, int]:
        """Distance dict keyed by label (-1 entries left out)."""
        dist = self.distances_array(source, blocked=blocked, backend=backend)
        unrank = self.codec.unrank
        reached = np.nonzero(dist >= 0)[0]
        return {unrank(int(i)): int(dist[i]) for i in reached}

    def eccentricity(
        self, source: Hashable, *, backend: str | None = None
    ) -> int:
        """Max BFS distance without materialising a label dict.

        On the implicit substrate this runs in ``O(num_nodes)`` bytes (a
        packed visited bitset plus a one-byte-per-node mark scratch), never
        ``O(edges)`` — the per-source exact question that motivates the
        backend."""
        if self.select_backend(backend) == "implicit":
            from repro.fastgraph.implicit import implicit_source_stats

            ecc, _, reached = implicit_source_stats(self.codec, self.rank(source))
            if reached != self.codec.num_nodes:
                raise DisconnectedError(
                    f"{self.topology.name} is not connected from {source!r}"
                )
            return ecc
        dist = self.distances_array(source, backend="csr")
        if int((dist < 0).sum()):
            raise DisconnectedError(
                f"{self.topology.name} is not connected from {source!r}"
            )
        return int(dist.max())

    def masked_source_stats(
        self,
        source: Hashable,
        *,
        blocked: Iterable[Hashable] | None = None,
        backend: str | None = None,
    ) -> tuple[int, int]:
        """``(eccentricity, reached)`` of one fault-masked BFS.

        The workhorse of structure-fault diameter sweeps: the max distance
        among *reached survivors* and how many survivors were reached
        (source included), without materialising a label dict.  Blocked
        nodes are never counted (labels that are not nodes are ignored): a
        blocked ``source`` raises :class:`~repro.errors.InvalidLabelError`,
        as :meth:`~repro.topologies.base.Topology.bfs_distances` does.

        On a product Cayley graph (``HB``: :attr:`repair_kernel` is set)
        every backend but ``"csr"`` runs no BFS at all:
        :class:`~repro.fastgraph.implicit.RepairKernel` translates
        the identity's fault-free distances to the source and repairs only
        the nodes the faults move.  The result is exact, because a node
        keeps its fault-free distance precisely when one of its neighbours
        one level closer survives with its own.  Other topologies run a
        masked BFS; on the implicit substrate in ``O(num_nodes)`` bytes,
        keeping ``HB(9,11)``-class masked eccentricities in reach.
        """
        blocked = frozenset(blocked or ())
        if source in blocked:
            raise InvalidLabelError("source node is blocked")
        chosen = self.select_backend(backend)  # an unknown name raises here
        repair = self.repair_kernel if backend != "csr" else None
        if repair is not None:
            return repair.source_stats(self.rank(source), self._masked_ranks(blocked))
        if chosen == "implicit":
            from repro.fastgraph.implicit import implicit_source_stats

            ecc, _, reached = implicit_source_stats(
                self.codec,
                self.rank(source),
                forbidden=self._masked_ranks(blocked),
            )
            return ecc, reached
        dist = self.distances_array(source, blocked=blocked, backend="csr")
        return int(dist.max()), int((dist >= 0).sum())

    def reachable_count(
        self,
        source: Hashable,
        *,
        blocked: Iterable[Hashable] | None = None,
        backend: str | None = None,
    ) -> int:
        """How many non-blocked nodes one masked BFS reaches (source
        included) — the survivability primitive behind
        :func:`~repro.faults.connectivity.connected_under_faults`."""
        return self.masked_source_stats(source, blocked=blocked, backend=backend)[1]

    def source_histogram(
        self, source: Hashable, *, backend: str | None = None
    ) -> dict[int, int]:
        """``{distance: node count}`` from one source (0 included)."""
        if self.select_backend(backend) == "implicit":
            from repro.fastgraph.implicit import implicit_source_stats

            _, depth_counts, _ = implicit_source_stats(self.codec, self.rank(source))
            return {0: 1, **depth_counts}
        dist = self.distances_array(source, backend="csr")
        return {
            d: int(c) for d, c in enumerate(np.bincount(dist[dist >= 0])) if c
        }

    def shortest_path(
        self,
        source: Hashable,
        target: Hashable,
        *,
        blocked: Iterable[Hashable] | None = None,
        backend: str | None = None,
    ) -> list[Hashable] | None:
        """A shortest label path, or ``None`` when unreachable."""
        from repro.fastgraph.kernels import path_from_parents

        src, dst = self.rank(source), self.rank(target)
        if self.select_backend(backend) == "implicit":
            from repro.fastgraph.implicit import implicit_bfs_levels

            dist, parents, _ = implicit_bfs_levels(
                self.codec,
                src,
                forbidden=self._blocked_ranks(blocked),
                want_parents=True,
                target=dst,
            )
        else:
            from repro.fastgraph.kernels import bfs_levels

            dist, parents = bfs_levels(
                self.csr,
                src,
                forbidden=self._forbidden_mask(blocked),
                want_parents=True,
                target=dst,
            )
        if dist[dst] < 0:
            return None
        assert parents is not None
        return [self.unrank(i) for i in path_from_parents(parents, src, dst)]

    def sweep(
        self,
        backend: str | None = None,
        *,
        jobs: int = 1,
        check_connected: bool = True,
    ) -> SweepResult:
        """All-sources eccentricities + distance histogram.

        ``backend`` picks the payload (implicit codec or CSR) as in
        :meth:`select_backend`; :func:`~repro.fastgraph.parallel.parallel_sweep`
        runs it in-process for ``jobs=1`` and on a process pool otherwise,
        bit-identical either way.
        """
        from repro.fastgraph.parallel import parallel_sweep

        payload: NodeCodec | CSRAdjacency = (
            self.codec if self.select_backend(backend) == "implicit" else self.csr
        )
        return parallel_sweep(
            payload,
            jobs=jobs,
            check_connected=check_connected,
            name=self.topology.name,
        )

    # -- adjacency services ------------------------------------------------

    def has_edge(
        self, u: Hashable, v: Hashable, *, backend: str | None = None
    ) -> bool:
        if not (self.topology.has_node(u) and self.topology.has_node(v)):
            return False
        if self.select_backend(backend, probe=True) == "implicit":
            row = self.codec.neighbors_block(
                np.array([self.rank(u)], dtype=np.int64)
            )[0]
            return bool((row == self.rank(v)).any())
        row = self.csr.neighbors_of(self.rank(u))
        return bool((row == self.rank(v)).any())

    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        """Each undirected edge once, without a ``seen`` set of all nodes."""
        csr = self.csr
        unrank = self.codec.unrank
        indptr, indices = csr.indptr, csr.indices
        for i in range(csr.num_nodes):
            u = unrank(i)
            for j in indices[indptr[i] : indptr[i + 1]]:
                if j > i:
                    yield (u, unrank(int(j)))


def get_fastgraph(topology: Topology, *, backend: str | None = None) -> FastGraph:
    """The memoized :class:`FastGraph` for ``topology``; an unknown
    ``backend`` name raises :class:`~repro.errors.InvalidParameterError`.

    Families without a registered codec get an
    :class:`~repro.fastgraph.codecs.EnumerationCodec` over ``nodes()``:
    ``O(V)`` setup, once per instance.
    """
    if backend not in (None, "auto", "csr", "implicit"):
        raise InvalidParameterError(
            f"unknown backend {backend!r} (expected 'auto', 'csr' or 'implicit')"
        )
    fast = topology.__dict__.get(_ATTR)
    if fast is None:
        from repro.fastgraph.codecs import EnumerationCodec, codec_for

        codec = codec_for(topology) or EnumerationCodec(topology.nodes())
        fast = FastGraph(topology, codec)
        try:
            setattr(topology, _ATTR, fast)
        except (AttributeError, TypeError):
            pass  # slots/frozen instances: recompute next call
    return fast
