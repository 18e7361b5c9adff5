"""Routing algorithms for the factor networks and shared path utilities.

* :mod:`repro.routing.base` — path validation and metrics.
* :mod:`repro.routing.hypercube` — e-cube shortest routing and the classic
  ``m`` vertex-disjoint paths construction for ``H_m`` [5].
* :mod:`repro.routing.butterfly` — two exact routers for the wrapped
  butterfly: an ``O(n^2)`` combinatorial *covering-walk* router and the
  BFS-oracle router, plus 4 vertex-disjoint paths (Menger).
* :mod:`repro.routing.flows` — the exact Menger solver (s–t and
  node-to-set families) on the implicit vertex-split residual.

The hyper-butterfly-level routing that composes these lives in
:mod:`repro.core.routing` / :mod:`repro.core.disjoint_paths`.
"""

from repro.routing.base import (
    Path,
    path_length,
    paths_internally_disjoint,
    paths_vertex_disjoint,
    validate_path,
)
from repro.routing.butterfly import (
    butterfly_distance,
    butterfly_route,
    butterfly_route_walk,
    covering_walk,
)
from repro.routing.hypercube import (
    hypercube_disjoint_paths,
    hypercube_distance,
    hypercube_route,
)

__all__ = [
    "Path",
    "validate_path",
    "path_length",
    "paths_vertex_disjoint",
    "paths_internally_disjoint",
    "hypercube_route",
    "hypercube_distance",
    "hypercube_disjoint_paths",
    "butterfly_distance",
    "butterfly_route",
    "butterfly_route_walk",
    "covering_walk",
]
