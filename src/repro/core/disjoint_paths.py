"""The ``m + 4`` node-disjoint paths of Theorem 5 (and Corollary 1).

Between any two distinct nodes ``u = (h, b)`` and ``v = (h', b')`` of
``HB(m, n)`` there are ``m + 4`` internally disjoint paths.  The paper's
proof is constructive with three cases:

* **Case 1** (``h ≠ h'``, ``b = b'``): the ``m`` hypercube-disjoint paths
  inside the copy ``(H_m, b)``, plus 4 detours through the butterfly
  neighbors ``(h, b^{(j)})`` that cross their own hypercube copy.
* **Case 2** (``h = h'``, ``b ≠ b'``): the 4 butterfly-disjoint paths
  inside ``(h, B_n)``, plus ``m`` detours through the hypercube neighbors
  ``(h^{(i)}, b)`` that cross their own butterfly copy.
* **Case 3** (both differ): ``m`` cube-first paths
  ``u → (h^{(i)}, b) → [butterfly route] → (h^{(i)}, b') → [cube tail] → v``
  and 4 fly-first paths
  ``u → (h, b^{(j)}) → [cube route] → (h', b^{(j)}) → [fly tail] → v``.

Reproduction note (recorded in EXPERIMENTS.md): the paper asserts the
case 3 family is "easy to see" disjoint, but the construction as literally
stated can fail in two corner situations:

1. ``dist(h, h') = 1``: the cube-first path through ``h^{(i)} = h'`` ends
   with a butterfly hop into ``v``, so 5 paths would enter ``v`` through
   its 4 butterfly edges;
2. ``b'`` adjacent to ``b``: symmetrically, ``m + 1`` paths would enter
   ``v`` through its ``m`` hypercube edges.

Theorem 5 itself is still true (``HB`` is ``(m+4)``-connected — verified
exactly up to ``HB(3, 4)`` by Even's algorithm), so this module implements
the paper's construction for the generic case — with the butterfly family
and the node-to-set tails solved copy-locally on ``hb.butterfly`` and
``hb.hypercube`` by the Menger solver of :mod:`repro.routing.flows`,
exactly the black boxes the proof invokes — repairs each corner, and
falls back to an exact global Menger family on ``hb`` whenever the
constructive skeleton cannot be completed (``m = 1`` with ``dist(h, h') =
1``, and every pair that meets both corners at once).  Every returned
family is verified before being handed back.

Families are built as ranks.  ``HB``'s codec ranks ``(h, b)`` as
``h·|B_n| + rank(b)``, with ``rank(b)`` the butterfly codec's rank and a
cube word its own rank, so a factor path (cube words, or butterfly ranks
from the solvers) lifts into a copy by integer arithmetic.  The builders
hand rank lists to one rank-level check (:func:`_check_family`), and
:func:`disjoint_paths_with_info` makes the labels once, by one block
unrank of the whole family.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Callable, Hashable, Literal

import numpy as np

from repro._bits import set_bits
from repro.core.hyperbutterfly import HBNode, HyperButterfly
from repro.errors import InvalidParameterError, RoutingError
from repro.routing.butterfly import butterfly_route_walk
from repro.routing.flows import (
    distances_to,
    node_to_set_disjoint_paths,
    pruned_shortest_path,
    rank_labels,
    vertex_disjoint_ranks,
)
from repro.routing.hypercube import hypercube_disjoint_paths, hypercube_route

if TYPE_CHECKING:  # fastgraph sits above core: imported where it is used
    from repro.fastgraph.codecs import NodeCodec

__all__ = [
    "construction_case",
    "disjoint_paths",
    "disjoint_paths_with_info",
    "verify_disjoint_paths",
]

_METHODS = ("auto", "constructive", "flow")


def _fly_codec(hb: HyperButterfly) -> NodeCodec:
    """The codec that ranks ``hb.butterfly`` for the solvers."""
    from repro.fastgraph.backend import get_fastgraph  # fastgraph sits above core

    return get_fastgraph(hb.butterfly).codec


def construction_case(u: HBNode, v: HBNode) -> int:
    """Which Theorem 5 case the pair ``(u, v)`` falls into (1, 2 or 3)."""
    if u == v:
        raise RoutingError("disjoint paths require distinct endpoints")
    h_differs = u[0] != v[0]
    b_differs = u[1] != v[1]
    if h_differs and not b_differs:
        return 1
    if b_differs and not h_differs:
        return 2
    return 3


# --------------------------------------------------------------------------
# Case 1: same butterfly part
# --------------------------------------------------------------------------


def _case1(hb: HyperButterfly, u: HBNode, v: HBNode) -> list[list[int]]:
    (h, b), (h2, _) = u, v
    fly = _fly_codec(hb)
    size = fly.num_nodes
    y = fly.rank(b)
    paths = [[x * size + y for x in p] for p in hypercube_disjoint_paths(hb.m, h, h2)]
    cube_route = hypercube_route(hb.m, h, h2)
    s, t = h * size + y, h2 * size + y
    for g in hb.fly_group.butterfly_generators():
        yj = fly.rank(hb.fly_group.multiply(b, g))
        paths.append([s] + [x * size + yj for x in cube_route] + [t])
    return paths


# --------------------------------------------------------------------------
# Case 2: same hypercube part
# --------------------------------------------------------------------------


def _case2(hb: HyperButterfly, u: HBNode, v: HBNode) -> list[list[int]]:
    (h, b), (_, b2) = u, v
    fly = _fly_codec(hb)
    size = fly.num_nodes
    copy = h * size
    fly_paths = vertex_disjoint_ranks(hb.butterfly, fly.rank(b), fly.rank(b2), k=4)
    paths = [[copy + y for y in p] for p in fly_paths]
    fly_route = [fly.rank(y) for y in butterfly_route_walk(hb.n, b, b2)]
    s, t = copy + fly_route[0], copy + fly_route[-1]
    for i in range(hb.m):
        hi = (h ^ (1 << i)) * size
        paths.append([s] + [hi + y for y in fly_route] + [t])
    return paths


# --------------------------------------------------------------------------
# Case 3: both parts differ
# --------------------------------------------------------------------------


class _Case3Builder:
    """Builds the case-3 family, including corner-case repairs.

    The generic skeleton (see module docstring) fails in two corners; each
    alone admits a local *repair* that keeps the construction copy-local:

    * ``dist(h, h') = 1`` with differing dimension ``i*``: the cube-first
      path for ``i*`` is rerouted as ``u → (h', b) → (h'', b) →
      [fly route in copy h''] → (h'', b') → v`` where ``h'' = h' ⊕ e_k``
      (``k ≠ i*``) is a fresh cube word at distance 2 from ``h``.  The path
      then enters ``v`` through hypercube neighbor ``h''`` (reserved from
      the cube-tail flow), restoring the 4-butterfly/m-hypercube entry
      balance at ``v``.  Requires ``m ≥ 2``.

    * ``b'`` adjacent to ``b`` (``b_{j*} = b'``): the fly-first path for
      ``j*`` is rerouted as ``u → (h, b') → (h, b''') → [cube route in copy
      b'''] → (h', b''') → v`` where ``b''' ∈ N(b') \\ ({b} ∪ N(b))`` is a
      fresh butterfly word at distance 2 from ``b``; the path enters ``v``
      through butterfly neighbor ``b'''`` (blocked from the fly-tail flow).

    The two repairs do not compose.  In a *double* corner (both at once)
    the first repaired path holds ``(h', b)`` — a butterfly neighbour of
    ``v``, since ``b ~ b'`` — and the second enters ``v`` through
    ``(h', b''')``, so only 2 of ``v``'s 4 butterfly entries are left for
    the 3 remaining fly tails and the tail flow fails ("only 2 of 3
    node-to-set paths exist").  That failure, and a repair whose
    preconditions fail (``m = 1``, or no fresh ``b'''``), raise
    :class:`RoutingError`, and the caller falls back to the exact global
    Menger family.

    Butterfly words are held as ranks of ``hb.butterfly``'s codec (``y``,
    ``y2``, ``y_neighbors``, ``y_fresh`` for ``b``, ``b'``, ``N(b)`` in
    generator order and ``b'''``), cube words as themselves, and the
    family as ranks of ``hb``.
    """

    def __init__(self, hb: HyperButterfly, u: HBNode, v: HBNode) -> None:
        fly = _fly_codec(hb)
        self.hb = hb
        self.u, self.v = u, v
        self.h, self.b = u
        self.h2, self.b2 = v
        self.m, self.n = hb.m, hb.n
        self.size = fly.num_nodes
        self.y, self.y2 = fly.rank(self.b), fly.rank(self.b2)
        self.s = self.h * self.size + self.y
        self.t = self.h2 * self.size + self.y2
        self.y_neighbors = [
            fly.rank(hb.fly_group.multiply(self.b, g))
            for g in hb.fly_group.butterfly_generators()
        ]
        self.h_neighbors = [self.h ^ (1 << i) for i in range(self.m)]
        self.diff = set_bits(self.h ^ self.h2)
        self._fly_rank = fly.rank

        # corner detection
        self.i_star = (
            self.h_neighbors.index(self.h2) if self.h2 in self.h_neighbors else None
        )
        self.j_star = (
            self.y_neighbors.index(self.y2) if self.y2 in self.y_neighbors else None
        )

        # repair resources (chosen in _plan_repairs)
        self.h_fresh: int | None = None  # h'' for the dist-1 repair
        self.y_fresh: int | None = None  # b''' for the adjacency repair
        # cube-first fly segments, one search per distinct collision-block set
        self.segments_by_blocks: dict[frozenset, list | None] = {}

    # -- planning ---------------------------------------------------------

    def _plan_repairs(self) -> None:
        if self.i_star is not None:
            if self.m < 2:
                raise RoutingError(
                    "case-3 dist-1 corner with m = 1 has no copy-local repair"
                )
            k = next(i for i in range(self.m) if i != self.i_star)
            self.h_fresh = self.h2 ^ (1 << k)
        if self.j_star is not None:
            candidates = [
                y
                for y in map(self._fly_rank, self.hb.butterfly.neighbors(self.b2))
                if y != self.y and y not in self.y_neighbors
            ]
            if not candidates:
                raise RoutingError(
                    "case-3 adjacency corner: no fresh butterfly word near b'"
                )
            self.y_fresh = candidates[0]

    # -- fly-first paths ---------------------------------------------------

    def _cube_segment_order(self, j: int) -> list[int]:
        d = len(self.diff)
        return self.diff[j % d :] + self.diff[: j % d]

    def _build_fly_first(self) -> list[list[int]]:
        size = self.size
        # cube segments, each in its own copy; record (copy rank, segment)
        self.cube_segments: list[tuple[int, list[int]]] = []
        for j, yj in enumerate(self.y_neighbors):
            copy = self.y_fresh if j == self.j_star else yj
            self.cube_segments.append(
                (copy, hypercube_route(self.m, self.h, self.h2, order=self._cube_segment_order(j)))
            )

        # fly tails inside (h', B_n); the repaired j* supplies its own entry
        tail_sources = [
            yj for j, yj in enumerate(self.y_neighbors) if j != self.j_star
        ]
        blocked: set = set()
        if self.i_star is not None:
            blocked.add(self.y)  # (h', b) is owned by the repaired cube-first path
        if self.y_fresh is not None:
            blocked.add(self.y_fresh)  # (h', b''') is the repaired path's entry
        fly_tails = node_to_set_disjoint_paths(
            self.hb.butterfly, tail_sources, self.y2, blocked=blocked, to_target=self._to_b2
        )
        tail_by_source = dict(zip(tail_sources, fly_tails, strict=True))

        copy2 = self.h2 * size
        paths: list[list[int]] = []
        for j, yj in enumerate(self.y_neighbors):
            copy, segment = self.cube_segments[j]
            lifted = [x * size + copy for x in segment]
            if j == self.j_star:
                # u → (h, b') → (h, b''') → cube route in copy b''' → (h', b''') → v
                path = [self.s, self.h * size + self.y2] + lifted + [self.t]
            else:
                path = [self.s] + lifted + [copy2 + y for y in tail_by_source[yj][1:]]
            paths.append(path)
        return paths

    # -- cube-first paths ---------------------------------------------------

    def _fly_collision_blocks(self, hi: int) -> frozenset:
        """Butterfly ranks owned by a fly-first cube segment passing ``hi``."""
        return frozenset(
            copy for copy, segment in self.cube_segments if hi in segment
        )

    @cached_property
    def _to_b2(self) -> list[int]:
        """Fault-free butterfly distance from every rank to ``b'``, shared
        by the cube-first segments and the fly tails, which all end there."""
        return distances_to(self.hb.butterfly, self.b2)

    def _fly_segment(self, blocks: frozenset) -> list[int] | None:
        """Shortest ``b → b'`` butterfly route avoiding ``blocks``, as
        ranks, one search per distinct block set (most cube-first paths
        share the empty one).

        The search is :func:`~repro.routing.flows.pruned_shortest_path`:
        levels over rank-sorted rows, dropping every node whose level plus
        fault-free distance to ``b'`` exceeds a bound that starts at
        ``dist(b, b')``.  Its frontiers are in ascending rank order and no
        node of a shortest masked path is dropped, so each node's parent is
        its lowest-rank neighbour one level up and the route is exactly the
        numpy kernels' ``bfs_shortest_path``, without their per-level numpy
        overhead.
        """
        if blocks not in self.segments_by_blocks:
            self.segments_by_blocks[blocks] = pruned_shortest_path(
                self.hb.butterfly, self.y, self.y2, blocked=blocks, to_target=self._to_b2
            )
        return self.segments_by_blocks[blocks]

    def _build_cube_first(self) -> list[list[int]]:
        size = self.size
        fly_segments: dict[int, list[int]] = {}
        for i, hi in enumerate(self.h_neighbors):
            if i == self.i_star:
                continue
            seg = self._fly_segment(self._fly_collision_blocks(hi))
            if seg is None:
                raise RoutingError(
                    "butterfly copy disconnected under collision avoidance"
                )
            fly_segments[i] = seg

        tail_sources = [
            hi for i, hi in enumerate(self.h_neighbors) if i != self.i_star
        ]
        blocked: set = set()
        if self.h_fresh is not None:
            blocked.add(self.h_fresh)  # reserved entry of the repaired path
        if self.j_star is not None:
            blocked.add(self.h)  # (h, b') is owned by the repaired fly-first path
        cube_tails = node_to_set_disjoint_paths(
            self.hb.hypercube, tail_sources, self.h2, blocked=blocked
        )
        tail_by_source = dict(zip(tail_sources, cube_tails, strict=True))

        paths: list[list[int]] = []
        for i, hi in enumerate(self.h_neighbors):
            if i == self.i_star:
                # u → (h', b) → (h'', b) → fly route in copy h'' → (h'', b') → v
                seg = self._fly_segment(self._fly_collision_blocks(self.h_fresh))
                if seg is None:
                    raise RoutingError(
                        "repair copy disconnected under collision avoidance"
                    )
                copy = self.h_fresh * size
                path = [self.s, self.h2 * size + self.y] + [copy + y for y in seg] + [self.t]
            else:
                copy = hi * size
                path = (
                    [self.s]
                    + [copy + y for y in fly_segments[i]]
                    + [x * size + self.y2 for x in tail_by_source[hi][1:]]
                )
            paths.append(path)
        return paths

    def build(self) -> list[list[int]]:
        self._plan_repairs()
        return self._build_fly_first() + self._build_cube_first()


def _case3(hb: HyperButterfly, u: HBNode, v: HBNode) -> list[list[int]]:
    """Theorem 5 case 3 (both parts differ), with corner repairs."""
    return _Case3Builder(hb, u, v).build()


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------


def _check_family(
    hb: HyperButterfly,
    codec: NodeCodec,
    s: int,
    t: int,
    paths: list[list[int]],
    label: Callable[[int], Hashable],
) -> None:
    """Raise unless the rank lists ``paths`` are a valid Theorem 5 family
    from rank ``s`` to rank ``t``: ``m + 4`` simple paths, internally
    disjoint.  ``label`` names a rank in a message.

    The checks are :func:`~repro.routing.base.validate_path`'s, run in
    this order: the count; each path's emptiness, codec range (a rank
    outside it raises what ``hb.validate_node`` raises for its label) and
    endpoints; every hop, tested against one ``neighbors_block`` gather
    over the path ranks; every revisit; the disjointness.  A family that
    passes costs a few whole-family operations; a per-path scan runs only
    to find which check a bad family fails first.
    """
    expected = hb.m + 4
    if len(paths) != expected:
        raise RoutingError(f"expected {expected} paths, got {len(paths)}")
    n = codec.num_nodes
    flat = list(chain.from_iterable(paths))
    if not all(p and p[0] == s and p[-1] == t for p in paths) or not (
        0 <= min(flat) and max(flat) < n
    ):
        for p in paths:
            if not p:
                raise RoutingError("empty path")
            for r in p:
                if not 0 <= r < n:
                    hb.validate_node(label(r))
                    raise RoutingError(f"rank {r} is not a node of {hb.name}")
            if p[0] != s:
                raise RoutingError(f"path starts at {label(p[0])!r}, expected {label(s)!r}")
            if p[-1] != t:
                raise RoutingError(f"path ends at {label(p[-1])!r}, expected {label(t)!r}")
    tails = [r for p in paths for r in p[:-1]]
    heads = np.array([r for p in paths for r in p[1:]], dtype=np.int64)
    is_edge = (codec.neighbors_block(np.array(tails, dtype=np.int64)) == heads[:, None]).any(axis=1)
    if not is_edge.all():
        bad = int(np.argmin(is_edge))
        raise RoutingError(
            f"{label(tails[bad])!r} -> {label(int(heads[bad]))!r} is not an edge of {hb.name}"
        )
    # when s ≠ t every path runs s → t, so the family is simple and
    # internally disjoint exactly when no interior rank repeats or is s or t
    if s == t or len(set(flat)) != len(flat) - 2 * (expected - 1):
        if any(len(set(p)) != len(p) for p in paths):
            raise RoutingError("path revisits a vertex")
        # a path that passed u or v again would have revisited it
        interior = [r for p in paths for r in p[1:-1]]
        if len(set(interior)) != len(interior):
            raise RoutingError("paths are not internally disjoint")


def verify_disjoint_paths(
    hb: HyperButterfly, u: HBNode, v: HBNode, paths: list[list[HBNode]]
) -> None:
    """Raise :class:`RoutingError` unless ``paths`` is a valid Theorem 5
    family: ``m + 4`` simple ``u → v`` paths, internally disjoint.

    Each distinct vertex is ranked once (:func:`~repro.routing.flows.rank_labels`;
    a label that is not a node raises :class:`InvalidLabelError` when the
    check reaches it) and the rank lists go through the one check the
    builders use, so the family is checked as they check theirs.
    """
    from repro.fastgraph.backend import get_fastgraph  # fastgraph sits above core

    ranks = rank_labels(hb, chain((u, v), *paths))
    names = {r: x for x, r in ranks.items()}
    ranked = [[ranks[x] for x in path] for path in paths]
    codec = get_fastgraph(hb).codec
    _check_family(hb, codec, ranks[u], ranks[v], ranked, names.__getitem__)


def _labels(codec: NodeCodec, paths: list[list[int]]) -> list[list[HBNode]]:
    """The family as labels: one block unrank of all its ranks."""
    flat = codec.unrank_block(np.fromiter(chain.from_iterable(paths), dtype=np.int64))
    out, start = [], 0
    for p in paths:
        out.append(flat[start : start + len(p)])
        start += len(p)
    return out


def disjoint_paths_with_info(
    hb: HyperButterfly,
    u: HBNode,
    v: HBNode,
    *,
    method: Literal["auto", "constructive", "flow"] = "auto",
) -> tuple[list[list[HBNode]], dict]:
    """Compute the Theorem 5 family plus provenance info.

    ``info`` records the construction ``case`` (1/2/3), the ``method`` that
    produced the family (``"constructive"`` or ``"flow"``), and — when the
    constructive skeleton was abandoned — the ``fallback_reason``.  A
    ``method`` outside ``"auto"``/``"constructive"``/``"flow"`` raises
    :class:`InvalidParameterError`.
    """
    from repro.fastgraph.backend import get_fastgraph  # fastgraph sits above core

    if method not in _METHODS:
        raise InvalidParameterError(
            f"unknown disjoint-path method {method!r} "
            "(expected 'auto', 'constructive' or 'flow')"
        )
    hb.validate_node(u)
    hb.validate_node(v)
    case = construction_case(u, v)
    info: dict = {"case": case}
    codec = get_fastgraph(hb).codec
    s, t = codec.rank(u), codec.rank(v)

    if method in ("auto", "constructive"):
        try:
            builder = {1: _case1, 2: _case2, 3: _case3}[case]
            paths = builder(hb, u, v)
            _check_family(hb, codec, s, t, paths, codec.unrank)
            info["method"] = "constructive"
            return _labels(codec, paths), info
        except RoutingError as exc:
            if method == "constructive":
                raise
            info["fallback_reason"] = str(exc)

    paths = vertex_disjoint_ranks(hb, s, t, k=hb.m + 4)
    _check_family(hb, codec, s, t, paths, codec.unrank)
    info["method"] = "flow"
    return _labels(codec, paths), info


def disjoint_paths(
    hb: HyperButterfly,
    u: HBNode,
    v: HBNode,
    *,
    method: Literal["auto", "constructive", "flow"] = "auto",
) -> list[list[HBNode]]:
    """``m + 4`` internally disjoint ``u → v`` paths (Theorem 5).

    ``method="constructive"`` insists on the paper's construction (raises
    :class:`RoutingError` on its corner cases); ``method="flow"`` always
    takes the global Menger family; ``"auto"`` tries the construction
    first.
    """
    paths, _ = disjoint_paths_with_info(hb, u, v, method=method)
    return paths
