"""The paper's primary contribution: the hyper-butterfly graph ``HB(m, n)``.

Modules:

* :mod:`repro.core.hyperbutterfly` — the graph itself (Definition 3,
  Theorems 1–2).
* :mod:`repro.core.labels` — two-part label helpers.
* :mod:`repro.core.routing` — optimal point-to-point routing (Section 3).
* :mod:`repro.core.disjoint_paths` — the ``m + 4`` node-disjoint paths of
  Theorem 5.
* :mod:`repro.core.resilient` — fault-tolerant routing (Remark 10): the
  disjoint-path scheme, escalating to adaptive BFS and graceful
  degradation past the ``m + 3`` guarantee.
* :mod:`repro.core.broadcast` — the broadcast extension teased in the
  paper's conclusion.
"""

from repro.core.broadcast import broadcast_rounds, broadcast_tree
from repro.core.disjoint_paths import disjoint_paths, verify_disjoint_paths
from repro.core.hyperbutterfly import HyperButterfly
from repro.core.labels import format_hb_node, parse_hb_node
from repro.core.partition import (
    SubHBPartition,
    expansion_embedding,
    partition_by_cube_bits,
)
from repro.core.resilient import (
    DegradedRouteError,
    ReachabilityReport,
    ResilientRouter,
    RouteOutcome,
)
from repro.core.routing import HBRouter, RouteResult

__all__ = [
    "HyperButterfly",
    "format_hb_node",
    "parse_hb_node",
    "HBRouter",
    "RouteResult",
    "disjoint_paths",
    "verify_disjoint_paths",
    "ResilientRouter",
    "RouteOutcome",
    "ReachabilityReport",
    "DegradedRouteError",
    "broadcast_tree",
    "broadcast_rounds",
    "SubHBPartition",
    "partition_by_cube_bits",
    "expansion_embedding",
]
