"""Exact graph metrics with scale-aware algorithm selection.

Diameter:

* product topologies (hyper-butterfly, hyper-deBruijn, generic Cartesian
  products) decompose: the diameter is the sum of factor diameters
  (Remark 6/8), computed by :mod:`repro.analysis.decompose` from factor
  histograms without touching the product — exact at *any* scale;
* vertex-transitive topologies (declared via
  :attr:`repro.topologies.base.Topology.is_vertex_transitive`) need a
  **single BFS** — the eccentricity of any one vertex is the diameter;
* irregular non-product topologies sweep all sources through
  :meth:`repro.fastgraph.backend.FastGraph.sweep` (bit-parallel
  multi-source BFS over CSR or CSR-free implicit rows), spread over a
  process pool with ``jobs > 1``.

Average distance is **exact at any scale** for product topologies (factor
histogram convolution); for everything else it is exact below a node
budget and sampled (with a fixed seed) beyond it, sampled pairs grouped
by source so each unique source costs exactly one BFS.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Hashable

from repro.analysis.decompose import product_average_distance, product_diameter
from repro.fastgraph.backend import get_fastgraph
from repro.topologies.base import Topology

__all__ = ["exact_diameter", "average_distance", "degree_profile"]


def exact_diameter(
    topology: Topology,
    *,
    force_generic: bool = False,
    jobs: int = 1,
    backend: str | None = None,
) -> int:
    """The exact diameter, using the cheapest valid algorithm.

    ``force_generic=True`` bypasses both the product-decomposition and the
    vertex-transitivity fast paths (used by tests to confirm all paths
    agree).  ``jobs`` spreads the generic all-sources sweep over a process
    pool (it has no effect on the decomposition/transitive paths, which
    are already single-BFS or BFS-free).  ``backend`` pins the BFS
    substrate (``"csr"``, ``"implicit"``) — pinning skips
    the BFS-free decomposition path so the requested engine actually
    runs; the vertex-transitive single-BFS shortcut stays valid (it runs
    that engine) unless ``force_generic`` disables it too.
    """
    pinned = backend not in (None, "auto")
    if not force_generic:
        if not pinned:
            decomposed = product_diameter(topology)
            if decomposed is not None:
                return decomposed
        if topology.is_vertex_transitive:
            anchor = next(iter(topology.nodes()))
            return topology.eccentricity(anchor, backend=backend)
    return _batched_bfs_diameter(topology, jobs=jobs, backend=backend)


def _batched_bfs_diameter(
    topology: Topology, *, jobs: int = 1, backend: str | None = None
) -> int:
    """All-eccentricities diameter via the bit-parallel sweep kernel.

    Any topology qualifies: registered codecs give a vectorized CSR build,
    everything else gets an enumeration codec.  ``jobs > 1`` runs the
    sweep on a process pool (chunked sources, deterministic reduction —
    the result is bit-identical for any job count); the implicit substrate
    (resolved or pinned by ``backend``) sweeps CSR-free through the same
    chunk kernel.
    """
    return get_fastgraph(topology, backend=backend).sweep(backend, jobs=jobs).diameter()


def average_distance(
    topology: Topology,
    *,
    exact_node_budget: int = 2000,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Mean pairwise distance over distinct ordered pairs.

    Product topologies are **exact at any scale** via factor-histogram
    convolution (bit-identical to brute-force BFS aggregation, at a tiny
    fraction of the cost).  Non-product topologies are exact below the
    node budget; beyond it, sampled pairs are drawn first and grouped by
    source, so a source drawn ``k`` times costs one BFS instead of ``k``.
    """
    decomposed = product_average_distance(topology)
    if decomposed is not None:
        return decomposed
    total_nodes = topology.num_nodes
    if total_nodes <= exact_node_budget:
        total = 0
        count = 0
        for v in topology.nodes():
            dist = topology.bfs_distances(v)
            total += sum(dist.values())
            count += len(dist) - 1  # exclude self
        return total / count if count else 0.0
    rng = random.Random(seed)
    nodes = list(topology.nodes())
    targets_by_source: dict[Hashable, list[Hashable]] = defaultdict(list)
    for _ in range(samples):
        u, v = rng.sample(nodes, 2)
        targets_by_source[u].append(v)
    fast = get_fastgraph(topology)
    total = 0
    for u, targets in targets_by_source.items():
        dist = fast.distances_array(u)
        total += int(sum(dist[fast.rank(v)] for v in targets))
    return total / samples


def degree_profile(topology: Topology) -> dict[int, int]:
    """Histogram ``{degree: node count}`` — Figure 1's regularity evidence."""
    profile: dict[int, int] = {}
    for v in topology.nodes():
        d = topology.degree(v)
        profile[d] = profile.get(d, 0) + 1
    return dict(sorted(profile.items()))
