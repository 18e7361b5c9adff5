"""Interconnection-network topologies used or compared by the paper.

Host graphs:

* :class:`Hypercube` — ``H_m`` (Section 2.1).
* :class:`WrappedButterfly` — classic ``⟨word, level⟩`` form of ``B_n``.
* :class:`CayleyButterfly` — the Cayley form of ``B_n`` from [4] used by the
  paper, with the explicit isomorphism between the two (Remark 2).
* :class:`DeBruijn` and :class:`HyperDeBruijn` — the baseline family [1].
* :class:`CartesianProduct` — generic product ``G × H`` (Definition 3 setup).

Guest graphs for Section 4 embeddings:

* :class:`Cycle`, :class:`Torus` (wrap-around mesh ``M(n1, n2)``),
  :class:`CompleteBinaryTree` (``T(k)``), :class:`MeshOfTrees`
  (``MT(2^p, 2^q)``).
"""

from repro.topologies.base import Topology
from repro.topologies.butterfly import WrappedButterfly
from repro.topologies.butterfly_cayley import (
    CayleyButterfly,
    cayley_to_classic,
    classic_to_cayley,
)
from repro.topologies.cycle import Cycle
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.invariants import (
    InvariantSpec,
    all_invariant_specs,
    invariant_spec,
    register_invariants,
)
from repro.topologies.mesh import Mesh, Torus
from repro.topologies.mesh_of_trees import MeshOfTrees
from repro.topologies.product import CartesianProduct
from repro.topologies.quotients import (
    butterfly_to_debruijn,
    debruijn_fiber,
    hb_to_hyperdebruijn,
)
from repro.topologies.tree import CompleteBinaryTree

__all__ = [
    "Topology",
    "InvariantSpec",
    "register_invariants",
    "invariant_spec",
    "all_invariant_specs",
    "Hypercube",
    "WrappedButterfly",
    "CayleyButterfly",
    "cayley_to_classic",
    "classic_to_cayley",
    "DeBruijn",
    "HyperDeBruijn",
    "CartesianProduct",
    "Cycle",
    "Torus",
    "Mesh",
    "CompleteBinaryTree",
    "MeshOfTrees",
    "butterfly_to_debruijn",
    "debruijn_fiber",
    "hb_to_hyperdebruijn",
]
