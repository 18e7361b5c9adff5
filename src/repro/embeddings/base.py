"""Embedding records and verification.

An :class:`Embedding` witnesses that a guest topology is a subgraph of a
host topology: an injective vertex map under which every guest edge is a
host edge (dilation 1 — the only kind Section 4 of the paper claims).
``verify`` is deliberately exhaustive; every constructive embedding in this
package is checked by it in the test suite, so the constructions cannot
silently drift from the theorems they implement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.errors import EmbeddingError
from repro.topologies.base import Topology

__all__ = ["Embedding", "verify_cycle_embedding"]


@dataclass
class Embedding:
    """A dilation-1 (subgraph) embedding ``guest → host``."""

    guest: Topology
    host: Topology
    mapping: Mapping[Hashable, Hashable]

    def image(self) -> set:
        return set(self.mapping.values())

    @property
    def dilation(self) -> int:
        """Always 1 for subgraph embeddings (kept for API symmetry)."""
        return 1

    @property
    def expansion(self) -> float:
        """Host size over guest size — the paper's scalability measure."""
        return self.host.num_nodes / self.guest.num_nodes

    def verify(self) -> None:
        """Raise :class:`EmbeddingError` unless this is a valid subgraph
        embedding: total, injective, edge-preserving."""
        mapped = {}
        for g in self.guest.nodes():
            if g not in self.mapping:
                raise EmbeddingError(f"guest node {g!r} is unmapped")
            h = self.mapping[g]
            self.host.validate_node(h)
            if h in mapped:
                raise EmbeddingError(
                    f"host node {h!r} is the image of both {mapped[h]!r} and {g!r}"
                )
            mapped[h] = g
        for a, b in self.guest.edges():
            ha, hb = self.mapping[a], self.mapping[b]
            if not self.host.has_edge(ha, hb):
                raise EmbeddingError(
                    f"guest edge {a!r}-{b!r} maps to non-edge {ha!r}-{hb!r}"
                )

    def __repr__(self) -> str:
        return f"<Embedding {self.guest.name} into {self.host.name}>"


def verify_cycle_embedding(
    host: Topology, cycle: Sequence[Hashable], *, expected_length: int | None = None
) -> None:
    """Raise :class:`EmbeddingError` unless ``cycle`` is a simple cycle in
    ``host`` (listed without repeating the closing vertex)."""
    k = len(cycle)
    if expected_length is not None and k != expected_length:
        raise EmbeddingError(f"cycle has length {k}, expected {expected_length}")
    if k < 3:
        raise EmbeddingError(f"a cycle needs at least 3 vertices, got {k}")
    if len(set(cycle)) != k:
        raise EmbeddingError("cycle repeats a vertex")
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]], strict=True):
        host.validate_node(a)
        if not host.has_edge(a, b):
            raise EmbeddingError(f"cycle step {a!r}-{b!r} is not a host edge")
