"""Exact shortest routing in the wrapped butterfly ``B_n``.

The paper routes the butterfly part "using the shortest routing scheme in
butterfly graphs [4]".  We implement that scheme as an exact combinatorial
algorithm, plus a BFS-oracle router used for cross-validation and as the
generic fallback.

Covering-walk formulation
-------------------------

Work in classic coordinates (``word = CI``, ``level = PI``; see Remark 2).
A route from ``(w, ℓ)`` to ``(w', ℓ')`` is a walk on the *level cycle*
``C_n`` whose step across position ``j`` (the cycle edge joining levels
``j`` and ``j+1``) may optionally flip word bit ``j``.  Hence the exact
distance is the length of a minimal walk on ``C_n`` from ``ℓ`` to ``ℓ'``
traversing every position in ``D = bits(w ⊕ w')`` at least once.

Lifting the walk to the line (universal cover) anchored at ``ℓ``, a minimal
covering walk visits a contiguous interval ``[lo, hi]`` and has at most one
direction reversal, giving the two candidate shapes

* up-first:   ``0 → hi → lo → e``  with cost ``hi + (hi - lo) + (e - lo)``
* down-first: ``0 → lo → hi → e``  with cost ``(-lo) + (hi - lo) + (hi - e)``

where ``e`` is a lift of ``ℓ' - ℓ``.  Minimising over ``lo``, the induced
minimal ``hi``, the lift ``e`` and the shape is exact; property tests check
it against the BFS oracle exhaustively for small ``n``.  The resulting walk
flips each required bit on its *final* crossing and is loop-erased into a
simple path, so returned routes are simple shortest paths.

This router is ``O(n·|D|)`` time and ``O(1)`` memory — the ablation
counterpart of the ``O(n·2^n)``-memory oracle (DESIGN.md Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._bits import set_bits
from repro.errors import InvalidParameterError, RoutingError
from repro.routing.base import loop_erase
from repro.topologies.butterfly_cayley import CayleyButterfly

__all__ = [
    "covering_walk",
    "butterfly_distance",
    "butterfly_route_walk",
    "butterfly_route",
]


@dataclass(frozen=True)
class _WalkPlan:
    cost: int
    up_first: bool
    lo: int
    hi: int
    end: int


def _minimal_plan(n: int, start: int, end: int, required: frozenset[int]) -> _WalkPlan:
    """Minimal covering-walk plan on the level cycle ``C_n`` (lifted)."""
    base = (end - start) % n
    best: _WalkPlan | None = None
    # line offsets are relative to ``start``: offset t crosses cycle edge
    # (start + t) mod n, so required edge r lifts to offsets ≡ r - start
    req = sorted((r - start) % n for r in required)
    for lo in range(-2 * n, 1):
        # minimal hi that covers every required edge given this lo
        hi_needed = 0
        for r in req:
            # smallest lift (offset) of cycle edge r that is >= lo
            k, rem = divmod(lo - r, n)
            lift = r + (k + (1 if rem else 0)) * n
            hi_needed = max(hi_needed, lift + 1)
        for e in (base - 2 * n, base - n, base, base + n, base + 2 * n):
            if e < lo:
                continue
            hi = max(hi_needed, e, 0)
            up_cost = hi + (hi - lo) + (e - lo)
            down_cost = (-lo) + (hi - lo) + (hi - e)
            for up_first, cost in ((True, up_cost), (False, down_cost)):
                if best is None or cost < best.cost:
                    best = _WalkPlan(cost, up_first, lo, hi, e)
    assert best is not None
    return best


def covering_walk(
    n: int, start: int, end: int, required: frozenset[int] | set[int]
) -> list[int]:
    """A minimal walk on ``C_n`` from ``start`` to ``end`` (as *line* offsets).

    Returns the lifted coordinates (offsets relative to ``start``); level of
    offset ``p`` is ``(start + p) mod n``.  The walk crosses every cycle edge
    in ``required`` (edge ``j`` joins levels ``j`` and ``j+1 mod n``) at
    least once, and its length is exactly ``butterfly_distance``'s value.
    """
    if n < 3:
        raise InvalidParameterError(f"butterfly order must be >= 3, got {n}")
    for r in required:
        if not 0 <= r < n:
            raise InvalidParameterError(f"required edge {r} out of range [0, {n})")
    plan = _minimal_plan(n, start, end, frozenset(required))
    walk = [0]

    def extend(target: int) -> None:
        step = 1 if target >= walk[-1] else -1
        while walk[-1] != target:
            walk.append(walk[-1] + step)

    if plan.up_first:
        extend(plan.hi)
        extend(plan.lo)
    else:
        extend(plan.lo)
        extend(plan.hi)
    extend(plan.end)
    return walk


def butterfly_distance(n: int, u: tuple[int, int], v: tuple[int, int]) -> int:
    """Exact distance between butterfly nodes in ``(PI, CI)`` coordinates."""
    x1, c1 = u
    x2, c2 = v
    required = frozenset(set_bits(c1 ^ c2))
    return _minimal_plan(n, x1, x2, required).cost


def butterfly_route_walk(
    n: int, u: tuple[int, int], v: tuple[int, int]
) -> list[tuple[int, int]]:
    """Shortest simple path ``u → v`` in ``B_n`` via the covering walk.

    Coordinates are ``(PI, CI)``.  Each required bit is flipped on the walk's
    final crossing of its position; the walk is then loop-erased (removing a
    loop never removes a flip — a loop has zero net word change and every
    required bit is flipped exactly once).
    """
    x1, c1 = u
    x2, c2 = v
    need = set(set_bits(c1 ^ c2))
    offsets = covering_walk(n, x1, x2, need)

    # positions crossed, in walk order
    crossings: list[int] = []
    for p, q in zip(offsets, offsets[1:], strict=False):
        pos = (x1 + min(p, q)) % n
        crossings.append(pos)
    last_crossing: dict[int, int] = {}
    for i, pos in enumerate(crossings):
        if pos in need:
            last_crossing[pos] = i

    path = [u]
    for i, (p, q) in enumerate(zip(offsets, offsets[1:], strict=False)):
        x, c = path[-1]
        pos = (x1 + min(p, q)) % n
        do_flip = last_crossing.get(pos) == i
        new_c = c ^ (1 << pos) if do_flip else c
        new_x = (x1 + q) % n
        path.append((new_x, new_c))
    if path[-1] != v:
        raise RoutingError(
            f"covering-walk route ended at {path[-1]!r}, expected {v!r} (internal bug)"
        )
    return loop_erase(path)


def butterfly_route(
    butterfly: CayleyButterfly, u: tuple[int, int], v: tuple[int, int]
) -> list[tuple[int, int]]:
    """Shortest path via the combinatorial router, endpoint-validated."""
    butterfly.validate_node(u)
    butterfly.validate_node(v)
    return butterfly_route_walk(butterfly.n, u, v)
