"""Optimal point-to-point routing in ``HB(m, n)`` (paper Section 3).

The paper's algorithm is the concatenation

1. route ``(h, b) → (h', b)`` with the shortest hypercube scheme inside the
   copy ``(H_m, b)``;
2. route ``(h', b) → (h', b')`` with the shortest butterfly scheme inside
   the copy ``(h', B_n)``;

and Remark 8 states the resulting length — Hamming distance plus butterfly
distance — is the exact graph distance.  :class:`HBRouter` implements this
(with either factor-segment order), records the generator name of every
hop, and can assert optimality against the exact distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro._bits import set_bits
from repro.core.hyperbutterfly import HBNode, HyperButterfly
from repro.errors import RoutingError
from repro.routing.butterfly import butterfly_distance, butterfly_route_walk
from repro.routing.hypercube import hypercube_route

__all__ = ["RouteResult", "HBRouter"]


@dataclass(frozen=True)
class RouteResult:
    """A computed route: node sequence plus per-hop generator names."""

    path: list[HBNode]
    generators: list[str] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.path) - 1

    @property
    def source(self) -> HBNode:
        return self.path[0]

    @property
    def target(self) -> HBNode:
        return self.path[-1]


class HBRouter:
    """Shortest point-to-point router for a fixed ``HB(m, n)`` instance.

    The butterfly segment is the combinatorial covering-walk router: no
    precomputation, so it works at any scale.  The identity-rooted BFS
    oracle (``hb.butterfly.shortest_path``) is the table-driven
    alternative; DESIGN.md Section 5 times the two.
    """

    def __init__(self, hb: HyperButterfly) -> None:
        self.hb = hb

    # Distances ----------------------------------------------------------

    def distance(self, u: HBNode, v: HBNode) -> int:
        """Exact distance (Remark 8: sum of the two part distances)."""
        self.hb.validate_node(u)
        self.hb.validate_node(v)
        cube = (u[0] ^ v[0]).bit_count()
        return cube + butterfly_distance(self.hb.n, u[1], v[1])

    # Routing --------------------------------------------------------------

    def route(
        self, u: HBNode, v: HBNode, *, order: Literal["cube-first", "fly-first"] = "cube-first"
    ) -> RouteResult:
        """Shortest route ``u → v`` (paper Section 3 concatenation).

        ``order`` picks which part is corrected first; both are optimal
        because part distances are independent (Remark 8).
        """
        self.hb.validate_node(u)
        self.hb.validate_node(v)
        h1, b1 = u
        h2, b2 = v

        def cube_segment(b_fixed: tuple[int, int]) -> list[HBNode]:
            words = hypercube_route(self.hb.m, h1, h2)
            return [(w, b_fixed) for w in words]

        def fly_segment(h_fixed: int) -> list[HBNode]:
            fly_path = butterfly_route_walk(self.hb.n, b1, b2)
            return [(h_fixed, b) for b in fly_path]

        if order == "cube-first":
            first, second = cube_segment(b1), fly_segment(h2)
        elif order == "fly-first":
            first, second = fly_segment(h1), cube_segment(b2)
        else:
            raise RoutingError(f"unknown segment order {order!r}")

        path = first + second[1:]
        generators = self._generator_names(path)
        return RouteResult(path=path, generators=generators)

    def _generator_names(self, path: list[HBNode]) -> list[str]:
        """Name each hop after the generator it applies (Remark 3 set Σ)."""
        names = []
        for a, b in zip(path, path[1:], strict=False):
            if a[1] == b[1]:
                diff = set_bits(a[0] ^ b[0])
                if len(diff) != 1:
                    raise RoutingError(f"invalid hypercube hop {a!r} -> {b!r}")
                names.append(f"h_{diff[0]}")
            elif a[0] == b[0]:
                delta = self.hb.fly_group.quotient(a[1], b[1])
                for s, s_name in zip(
                    self.hb.fly_group.butterfly_generators(),
                    ("g", "f", "g^-1", "f^-1"),
                    strict=True,
                ):
                    if delta == s:
                        names.append(s_name)
                        break
                else:
                    raise RoutingError(f"invalid butterfly hop {a!r} -> {b!r}")
            else:
                raise RoutingError(
                    f"hop {a!r} -> {b!r} changes both parts (not an HB edge)"
                )
        return names
