"""Distance-profile analytics (experiment E11).

Diameter is a worst-case number; sustained network performance tracks the
*average* distance and the full distance distribution.  Route selection,
cheapest first:

* product families (``HB``, ``HD``, generic Cartesian products) get the
  exact distribution by factor-histogram convolution
  (:mod:`repro.analysis.decompose`) — no BFS over the product at all;
* vertex-transitive families get it from one identity-rooted BFS;
* irregular non-product families aggregate BFS from every node (the
  bit-parallel sweep kernel, optionally over a process pool with
  ``jobs``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.decompose import product_pair_histogram
from repro.fastgraph.backend import get_fastgraph
from repro.topologies.base import Topology

__all__ = [
    "DistanceProfile",
    "distance_profile",
    "pair_distance_counts",
    "profile_table",
]


@dataclass(frozen=True)
class DistanceProfile:
    """Exact distance distribution of a topology."""

    name: str
    nodes: int
    histogram: dict[int, float]  # distance -> fraction of ordered pairs
    mean: float
    diameter: int

    def percentile(self, q: float) -> int:
        """Smallest distance d with cumulative mass >= q (0 < q <= 1)."""
        total = 0.0
        for d in sorted(self.histogram):
            total += self.histogram[d]
            if total >= q - 1e-12:
                return d
        return self.diameter


def _transitive_profile(
    topology: Topology, *, backend: str | None = None
) -> dict[int, int]:
    """One BFS suffices when the graph is vertex transitive."""
    anchor = next(iter(topology.nodes()))
    fast = get_fastgraph(topology, backend=backend)
    counts = fast.source_histogram(anchor, backend=backend)
    # scale single-source counts up to ordered-pair counts
    return {d: c * topology.num_nodes for d, c in counts.items()}


def _generic_profile(
    topology: Topology, *, jobs: int = 1, backend: str | None = None
) -> dict[int, int]:
    fast = get_fastgraph(topology, backend=backend)
    # reachable pairs only
    return fast.sweep(backend, jobs=jobs, check_connected=False).histogram


def pair_distance_counts(
    topology: Topology,
    *,
    jobs: int = 1,
    force_generic: bool = False,
    backend: str | None = None,
) -> dict[int, int]:
    """Exact ``{distance: ordered-pair count}`` (0-diagonal included).

    The single dispatch point for all distance-distribution consumers:
    product decomposition, then the vertex-transitive single BFS, then
    the all-sources sweep (process-pooled when ``jobs > 1``).
    ``force_generic=True`` pins the sweep path — tests and the metrics
    CLI use it to cross-check the fast paths against brute force.
    ``backend`` pins the BFS substrate and (like ``force_generic``) skips
    the BFS-free decomposition so the requested engine actually runs.
    """
    pinned = backend not in (None, "auto")
    if not force_generic:
        if not pinned:
            decomposed = product_pair_histogram(topology)
            if decomposed is not None:
                return decomposed
        if topology.is_vertex_transitive:
            return dict(
                sorted(_transitive_profile(topology, backend=backend).items())
            )
    return dict(
        sorted(_generic_profile(topology, jobs=jobs, backend=backend).items())
    )


def distance_profile(
    topology: Topology,
    *,
    jobs: int = 1,
    force_generic: bool = False,
    backend: str | None = None,
) -> DistanceProfile:
    """Exact profile; distances include the 0 self-distance mass."""
    counts = pair_distance_counts(
        topology, jobs=jobs, force_generic=force_generic, backend=backend
    )
    total = sum(counts.values())
    histogram = {d: c / total for d, c in sorted(counts.items())}
    mean = sum(d * c for d, c in counts.items()) / total
    return DistanceProfile(
        name=topology.name,
        nodes=topology.num_nodes,
        histogram=histogram,
        mean=mean,
        diameter=max(counts),
    )


def profile_table(profiles: list[DistanceProfile]) -> str:
    """Side-by-side summary rows for the E11 bench."""
    lines = ["network    nodes   mean-dist  median  p95  diameter"]
    for p in profiles:
        lines.append(
            f"{p.name:10s} {p.nodes:6d} {p.mean:10.3f} "
            f"{p.percentile(0.5):7d} {p.percentile(0.95):4d} {p.diameter:9d}"
        )
    return "\n".join(lines)
