"""Vertex-transitivity utilities for Cayley graphs.

Remark 7 of the paper uses vertex symmetry to reduce any routing question to
routing from the identity node.  The underlying fact is that in a Cayley
graph ``Cay(G, S)``, every **left translation** ``L_a : v ↦ a·v`` is a graph
automorphism: ``{v, v·s}`` maps to ``{a·v, a·v·s}``, again an edge.  This
module provides those translations and explicit (test-friendly) verifiers.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable

from repro.cayley.group import GeneratorSet, Group

__all__ = [
    "left_translation",
    "verify_translation_automorphism",
    "verify_vertex_transitivity",
]


def left_translation(group: Group, a: Hashable) -> Callable[[Hashable], Hashable]:
    """Return the automorphism ``v ↦ a·v`` of any Cayley graph over ``group``."""

    def translate(v: Hashable) -> Hashable:
        return group.multiply(a, v)

    return translate


def verify_translation_automorphism(
    group: Group,
    gens: GeneratorSet,
    a: Hashable,
    *,
    sample_size: int | None = 256,
    rng: random.Random | None = None,
) -> bool:
    """Check that ``L_a`` maps edges to edges (on a vertex sample).

    With ``sample_size=None`` every vertex is checked (exponential-size
    groups make this expensive; tests use it only on small instances).
    """
    translate = left_translation(group, a)
    if sample_size is None:
        vertices = list(group.elements())
    else:
        rng = rng or random.Random(0)
        order = group.order()
        if order <= sample_size:
            vertices = list(group.elements())
        else:
            # Reservoir-free sampling: draw random generator words from the
            # identity so we do not need to enumerate the whole group.
            vertices = []
            for _ in range(sample_size):
                v = group.identity()
                for _ in range(rng.randrange(0, 4 * len(gens))):
                    v = group.multiply(v, rng.choice(gens.generators))
                vertices.append(v)
    for v in vertices:
        neighbors = set(gens.neighbors(v))
        image_neighbors = set(gens.neighbors(translate(v)))
        if {translate(w) for w in neighbors} != image_neighbors:
            return False
    return True


def verify_vertex_transitivity(
    group: Group,
    gens: GeneratorSet,
    *,
    witnesses: int = 8,
    rng: random.Random | None = None,
) -> bool:
    """Spot-check vertex transitivity with random translation witnesses.

    For every sampled pair ``(u, v)`` we exhibit the automorphism
    ``L_{v·u^{-1}}`` carrying ``u`` to ``v`` and verify it preserves local
    structure around ``u``.  This is a constructive certificate, not a
    search: Cayley graphs are always vertex transitive, so a failure here
    flags a bug in the group implementation rather than in the theorem.
    """
    rng = rng or random.Random(0)

    def random_element() -> Hashable:
        v = group.identity()
        for _ in range(rng.randrange(0, 6 * len(gens))):
            v = group.multiply(v, rng.choice(gens.generators))
        return v

    for _ in range(witnesses):
        u, v = random_element(), random_element()
        a = group.multiply(v, group.inverse(u))
        if group.multiply(a, u) != v:
            return False
        if not verify_translation_automorphism(
            group, gens, a, sample_size=32, rng=rng
        ):
            return False
    return True
