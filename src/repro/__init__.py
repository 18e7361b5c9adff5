"""Reproduction of Shi & Srimani, *Hyper-Butterfly Network: A Scalable
Optimally Fault Tolerant Architecture* (IPPS 1998).

The central object is :class:`repro.core.HyperButterfly` — the graph
``HB(m, n) = H_m x B_n`` realised as a Cayley graph over ``m + 4``
generators — together with its optimal router, the Theorem 5 disjoint-path
machinery, the Section 4 embeddings, and the Figure 1/2 comparison
harness against hypercubes, wrapped butterflies and hyper-deBruijn graphs.

Quickstart::

    from repro import HyperButterfly, HBRouter

    hb = HyperButterfly(m=2, n=4)
    router = HBRouter(hb)
    u, v = hb.identity_node(), (3, (2, 9))
    route = router.route(u, v)
    assert route.length == router.distance(u, v)

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from repro.core import (
    HBRouter,
    HyperButterfly,
    ResilientRouter,
    RouteResult,
    broadcast_rounds,
    broadcast_tree,
    disjoint_paths,
    format_hb_node,
    parse_hb_node,
    verify_disjoint_paths,
)
from repro.errors import (
    DisconnectedError,
    EmbeddingError,
    InvalidLabelError,
    InvalidParameterError,
    ReproError,
    RoutingError,
    SimulationError,
)
from repro.topologies import (
    CartesianProduct,
    CayleyButterfly,
    CompleteBinaryTree,
    Cycle,
    DeBruijn,
    Hypercube,
    HyperDeBruijn,
    Mesh,
    MeshOfTrees,
    Torus,
    WrappedButterfly,
)

__version__ = "1.0.0"

__all__ = [
    "HyperButterfly",
    "HBRouter",
    "RouteResult",
    "ResilientRouter",
    "disjoint_paths",
    "verify_disjoint_paths",
    "broadcast_tree",
    "broadcast_rounds",
    "format_hb_node",
    "parse_hb_node",
    "ReproError",
    "InvalidParameterError",
    "InvalidLabelError",
    "RoutingError",
    "DisconnectedError",
    "EmbeddingError",
    "SimulationError",
    "Hypercube",
    "WrappedButterfly",
    "CayleyButterfly",
    "DeBruijn",
    "HyperDeBruijn",
    "CartesianProduct",
    "Cycle",
    "Torus",
    "Mesh",
    "CompleteBinaryTree",
    "MeshOfTrees",
    "__version__",
]
