"""Group-theoretic machinery underlying the Cayley-graph topologies.

The hyper-butterfly graph is a Cayley graph (Theorem 1 of the paper); this
subpackage provides the finite groups involved, a generic Cayley-graph
builder, and vertex-transitivity utilities used by the exact routers.
"""

from repro.cayley.graph import CayleyGraph, build_cayley_graph
from repro.cayley.group import (
    ButterflyGroup,
    DirectProductGroup,
    GeneratorSet,
    Group,
    HypercubeGroup,
)
from repro.cayley.transitivity import (
    left_translation,
    verify_translation_automorphism,
    verify_vertex_transitivity,
)

__all__ = [
    "Group",
    "HypercubeGroup",
    "ButterflyGroup",
    "DirectProductGroup",
    "GeneratorSet",
    "CayleyGraph",
    "build_cayley_graph",
    "left_translation",
    "verify_translation_automorphism",
    "verify_vertex_transitivity",
]
