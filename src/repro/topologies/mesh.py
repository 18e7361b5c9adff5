"""2-D meshes and wrap-around meshes (tori) — guests of Lemmas 1 and 2.

The paper's ``M(n1, n2)`` is the *wrap-around* mesh ``C(n1) × C(n2)``
(a torus); we also provide the open mesh since the Figure 1 embedding row
("Mesh") refers to ordinary 2-D mesh embeddability.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.errors import InvalidParameterError
from repro.topologies.base import Topology
from repro.topologies.invariants import InvariantSpec, register_invariants

__all__ = ["Torus", "Mesh"]


class Torus(Topology):
    """Wrap-around mesh ``M(n1, n2) = C(n1) × C(n2)``; labels ``(i, j)``."""

    def __init__(self, n1: int, n2: int) -> None:
        if n1 < 3 or n2 < 3:
            raise InvalidParameterError(
                f"torus sides must be >= 3 for simple cycles, got ({n1}, {n2})"
            )
        self.n1 = n1
        self.n2 = n2
        self.name = f"M({n1},{n2})"

    @property
    def is_vertex_transitive(self) -> bool:
        """``True`` — the Cayley graph of ``Z_{n1} × Z_{n2}``."""
        return True

    @property
    def num_nodes(self) -> int:
        return self.n1 * self.n2

    @property
    def num_edges(self) -> int:
        return 2 * self.n1 * self.n2

    def nodes(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n1):
            for j in range(self.n2):
                yield (i, j)

    def has_node(self, v: Hashable) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and isinstance(v[0], int)
            and isinstance(v[1], int)
            and 0 <= v[0] < self.n1
            and 0 <= v[1] < self.n2
        )

    def neighbors(self, v: tuple[int, int]) -> list[tuple[int, int]]:
        self.validate_node(v)
        i, j = v
        return [
            ((i + 1) % self.n1, j),
            ((i - 1) % self.n1, j),
            (i, (j + 1) % self.n2),
            (i, (j - 1) % self.n2),
        ]


class Mesh(Topology):
    """Open (non-wrapping) ``n1 × n2`` mesh; labels ``(i, j)``."""

    def __init__(self, n1: int, n2: int) -> None:
        if n1 < 1 or n2 < 1:
            raise InvalidParameterError(f"mesh sides must be >= 1, got ({n1}, {n2})")
        self.n1 = n1
        self.n2 = n2
        self.name = f"Mesh({n1},{n2})"

    @property
    def num_nodes(self) -> int:
        return self.n1 * self.n2

    @property
    def num_edges(self) -> int:
        return self.n1 * (self.n2 - 1) + self.n2 * (self.n1 - 1)

    def nodes(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n1):
            for j in range(self.n2):
                yield (i, j)

    def has_node(self, v: Hashable) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and isinstance(v[0], int)
            and isinstance(v[1], int)
            and 0 <= v[0] < self.n1
            and 0 <= v[1] < self.n2
        )

    def neighbors(self, v: tuple[int, int]) -> list[tuple[int, int]]:
        self.validate_node(v)
        i, j = v
        out = []
        if i + 1 < self.n1:
            out.append((i + 1, j))
        if i - 1 >= 0:
            out.append((i - 1, j))
        if j + 1 < self.n2:
            out.append((i, j + 1))
        if j - 1 >= 0:
            out.append((i, j - 1))
        return out


register_invariants(
    InvariantSpec(
        family="Torus",
        params=("n1", "n2"),
        build=Torus,
        small=((3, 3), (3, 4), (4, 5)),
        large=((1024, 4096),),
        degree="4",
        paper="Lemma 2",
    )
)

register_invariants(
    InvariantSpec(
        family="Mesh",
        params=("n1", "n2"),
        build=Mesh,
        # no large grid: the open-mesh codec only ranks (no neighbors_block)
        small=((1, 1), (1, 4), (3, 3), (3, 4), (4, 5)),
        regular=False,
        degree_max="4",
        paper="Lemma 1",
    )
)
