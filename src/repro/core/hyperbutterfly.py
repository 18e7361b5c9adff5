"""The hyper-butterfly graph ``HB(m, n)`` (paper Definition 3, Theorems 1–2).

``HB(m, n)`` is the Cartesian product of the hypercube ``H_m`` and the
wrapped butterfly ``B_n``, realised directly as the Cayley graph of
``(Z_2)^m × (Z_n ⋉ (Z_2)^n)`` over the ``m + 4`` generators

``Σ = {h_0, …, h_{m-1}, g, f, g^{-1}, f^{-1}}``

(the set is closed under inverse; Remark 3).  A node is a two-part label
``(h, b)`` — ``h`` the hypercube-part, ``b = (PI, CI)`` the butterfly-part.

Facts implemented/surfaced here:

* Theorem 2: ``n·2^{m+n}`` vertices, ``(m+4)·n·2^{m+n-1}`` edges, regular of
  degree ``m + 4``.
* Definition 4 / Remark 4: the ``m`` *hypercube edges* change only the
  hypercube-part; the 4 *butterfly edges* change only the butterfly-part.
* Remark 5: decomposition into ``n·2^n`` disjoint hypercube copies
  ``(H_m, b)`` and ``2^m`` disjoint butterfly copies ``(h, B_n)``.
* Theorem 3: diameter ``m + ⌊3n/2⌋`` (exact value computable via the
  identity-rooted oracle; see the docstring of :meth:`diameter_formula`
  for the floor/ceil discussion).
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.cayley.graph import CayleyGraph, DistanceOracle
from repro.cayley.group import (
    ButterflyGroup,
    DirectProductGroup,
    GeneratorSet,
    HypercubeGroup,
)
from repro.core.labels import format_hb_node
from repro.errors import InvalidLabelError, InvalidParameterError
from repro.topologies.base import Topology
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.invariants import InvariantSpec, register_invariants

__all__ = ["HyperButterfly"]

HBNode = tuple[int, tuple[int, int]]


class HyperButterfly(Topology):
    """The hyper-butterfly ``HB(m, n)`` with labels ``(h, (PI, CI))``."""

    def __init__(self, m: int, n: int) -> None:
        if m < 0:
            raise InvalidParameterError(f"hypercube order must be >= 0, got {m}")
        if n < 3:
            raise InvalidParameterError(
                f"butterfly order must be >= 3 (Remark 3), got {n}"
            )
        self.m = m
        self.n = n
        self.name = f"HB({m},{n})"

        self.cube_group = HypercubeGroup(m)
        self.fly_group = ButterflyGroup(n)
        self.group = DirectProductGroup(self.cube_group, self.fly_group)
        self.gens = self._build_generators()
        self._fly_steps = frozenset(self.fly_group.butterfly_generators())
        self.cayley = CayleyGraph(self.group, self.gens)

        # factor topologies, exposed for copy-level algorithms
        self.hypercube = Hypercube(m)
        self.butterfly = CayleyButterfly(n)

    def _build_generators(self) -> GeneratorSet:
        """The ``m + 4`` generators of Definition 3 (order: h_i then g,f,g⁻¹,f⁻¹)."""
        fly_id = self.fly_group.identity()
        generators: list[HBNode] = [
            (1 << i, fly_id) for i in range(self.m)
        ]
        names = [f"h_{i}" for i in range(self.m)]
        for gen, gen_name in zip(
            self.fly_group.butterfly_generators(),
            ("g", "f", "g^-1", "f^-1"),
            strict=True,
        ):
            generators.append((0, gen))
            names.append(gen_name)
        return GeneratorSet(
            group=self.group, generators=tuple(generators), names=tuple(names)
        )

    # Topology interface ----------------------------------------------------

    @property
    def is_vertex_transitive(self) -> bool:
        """``True`` — a Cayley graph by construction (Theorem 1)."""
        return True

    def factors(self) -> tuple[Topology, Topology]:
        """The Cartesian factors ``(H_m, B_n)`` (Theorem 1 / Remark 6).

        A node ``(h, b)`` of ``HB(m, n)`` is exactly a pair of factor
        nodes, so the decomposition engine can treat ``HB`` structurally
        like any :class:`~repro.topologies.product.CartesianProduct`.
        """
        return (self.hypercube, self.butterfly)

    @property
    def num_nodes(self) -> int:
        # Theorem 2(2): n * 2^(m+n)
        return self.n << (self.m + self.n)

    @property
    def num_edges(self) -> int:
        # Theorem 2(3): (m+4) * n * 2^(m+n-1)
        return (self.m + 4) * self.n << (self.m + self.n - 1)

    @property
    def degree_formula(self) -> int:
        """``m + 4`` — Theorem 2(1)."""
        return self.m + 4

    def nodes(self) -> Iterator[HBNode]:
        return self.group.elements()

    def has_node(self, v: Hashable) -> bool:
        return self.group.contains(v)

    def neighbors(self, v: HBNode) -> list[HBNode]:
        self.validate_node(v)
        return self.gens.neighbors(v)

    def has_edge(self, u: HBNode, v: HBNode) -> bool:
        """Whether ``{u, v}`` is an edge, in O(1) without listing neighbours.

        A hypercube edge keeps ``b`` and flips one bit of ``h``; a butterfly
        edge keeps ``h`` and moves ``b`` by one of the 4 factor generators,
        i.e. ``b⁻¹·b'`` is one of them.  Raises :class:`InvalidLabelError`
        for a bad ``u`` and answers ``False`` for a non-node ``v``, as the
        neighbour scan does.
        """
        self.validate_node(u)
        return self.has_node(v) and self.adjacent(u, v)

    def adjacent(self, u: HBNode, v: HBNode) -> bool:
        """:meth:`has_edge` for two labels already known to be nodes."""
        (h, b), (h2, b2) = u, v
        if b == b2:
            return (h ^ h2).bit_count() == 1
        return h == h2 and self.fly_group.quotient(b, b2) in self._fly_steps

    # Definition 4: edge/neighbor classification ------------------------------

    def hypercube_neighbors(self, v: HBNode) -> list[HBNode]:
        """The ``m`` neighbors across hypercube edges (Definition 4 ii)."""
        self.validate_node(v)
        h, b = v
        return [(h ^ (1 << i), b) for i in range(self.m)]

    def butterfly_neighbors(self, v: HBNode) -> list[HBNode]:
        """The 4 neighbors across butterfly edges (Definition 4 ii)."""
        self.validate_node(v)
        h, b = v
        return [
            (h, self.fly_group.multiply(b, s))
            for s in self.fly_group.butterfly_generators()
        ]

    def edge_kind(self, u: HBNode, v: HBNode) -> str:
        """``"hypercube"`` or ``"butterfly"`` for an existing edge (Remark 4)."""
        self.validate_node(u)
        self.validate_node(v)
        if u[1] == v[1] and (u[0] ^ v[0]).bit_count() == 1:
            return "hypercube"
        if u[0] == v[0] and v[1] in self.butterfly.neighbors(u[1]):
            return "butterfly"
        raise InvalidLabelError(f"{u!r} and {v!r} are not adjacent in {self.name}")

    # Remark 5: copy decompositions -------------------------------------------

    def hypercube_copy(self, b: tuple[int, int]) -> Iterator[HBNode]:
        """The hypercube copy ``(H_m, b)``: nodes sharing butterfly-part ``b``."""
        self.butterfly.validate_node(b)
        for h in range(1 << self.m):
            yield (h, b)

    def butterfly_copy(self, h: int) -> Iterator[HBNode]:
        """The butterfly copy ``(h, B_n)``: nodes sharing hypercube-part ``h``."""
        self.hypercube.validate_node(h)
        for b in self.fly_group.elements():
            yield (h, b)

    # Label helpers -----------------------------------------------------------

    def identity_node(self) -> HBNode:
        """The identity node ``(0…0 ; t_0 t_1 … t_{n-1})`` (Remark 7)."""
        return self.group.identity()

    def format_node(self, v: HBNode) -> str:
        self.validate_node(v)
        return format_hb_node(v, self.m, self.n)

    # Closed-form properties ----------------------------------------------

    def diameter_formula(self) -> int:
        """Diameter ``m + ⌊3n/2⌋``.

        Theorem 3 writes ``m + ⌈3n/2⌉`` while Remark 1 gives the butterfly
        diameter as ``⌊3n/2⌋``; the two differ only for odd ``n``.  Exact BFS
        computation (see ``tests/core/test_hyperbutterfly.py`` and
        EXPERIMENTS.md) confirms the *floor* reading: the diameter of
        ``B_n`` is ``⌊3n/2⌋`` and distances in ``HB`` are sums of part
        distances (Remark 8), so ``D(HB) = m + ⌊3n/2⌋``.
        """
        return self.m + (3 * self.n) // 2

    def fault_tolerance_formula(self) -> int:
        """Vertex connectivity ``m + 4`` (Corollary 1) = degree: maximal."""
        return self.m + 4

    # Exact services via the Cayley oracle ---------------------------------

    @property
    def oracle(self) -> DistanceOracle:
        return self.cayley.oracle

    def diameter(self) -> int:
        """Exact diameter = eccentricity of the identity (vertex transitivity)."""
        return self.cayley.diameter()

    def distance(self, u: HBNode, v: HBNode) -> int:
        """Exact distance — equals hypercube-part + butterfly-part distance
        (Remark 8); the oracle is used only as a cross-check in tests."""
        self.validate_node(u)
        self.validate_node(v)
        cube_dist = (u[0] ^ v[0]).bit_count()
        return cube_dist + self.butterfly.distance(u[1], v[1])


register_invariants(
    InvariantSpec(
        family="HyperButterfly",
        params=("m", "n"),
        build=HyperButterfly,
        small=((0, 3), (1, 3), (2, 3), (2, 4), (3, 4)),
        large=((8, 10), (5, 16)),
        degree="m + 4",
        paper="Theorem 2(1)",
    )
)
