"""Guest-graph embeddings of Section 4 (Lemmas 1–4, Theorem 4, Figure 1).

All embeddings here are *subgraph* embeddings (dilation 1): an injective
map from guest vertices to host vertices sending guest edges to host edges.

* :mod:`repro.embeddings.base` — embedding record + verification.
* :mod:`repro.embeddings.cycles` — cycles in ``H_m``, ``B_n``, tori and
  ``HB(m, n)`` (Remark 9, Lemma 1, Lemma 2).
* :mod:`repro.embeddings.mesh` — wrap-around meshes / tori in ``HB``.
* :mod:`repro.embeddings.trees` — complete binary trees: ``T(n+1) ⊆ B_n``
  (Lemma 3), ``T(m-1) ⊆ H_m``, ``T(m+n-1) ⊆ HB(m,n)`` (Figure 1).
* :mod:`repro.embeddings.mesh_of_trees` — ``MT(2^p, 2^q) ⊆ HB`` (Theorem 4
  via Lemma 4).
"""

from repro.embeddings.base import Embedding, verify_cycle_embedding
from repro.embeddings.cycles import (
    butterfly_cycle,
    butterfly_cycle_lengths,
    hb_even_cycle,
    hb_even_cycle_max_length,
    hypercube_cycle,
    torus_cycle,
)
from repro.embeddings.mesh import hb_torus_embedding
from repro.embeddings.mesh_of_trees import hb_mesh_of_trees_embedding
from repro.embeddings.trees import (
    butterfly_tree_embedding,
    hb_tree_embedding,
    hypercube_tree_embedding,
)

__all__ = [
    "Embedding",
    "verify_cycle_embedding",
    "hypercube_cycle",
    "butterfly_cycle",
    "butterfly_cycle_lengths",
    "torus_cycle",
    "hb_even_cycle",
    "hb_even_cycle_max_length",
    "hb_torus_embedding",
    "butterfly_tree_embedding",
    "hypercube_tree_embedding",
    "hb_tree_embedding",
    "hb_mesh_of_trees_embedding",
]
