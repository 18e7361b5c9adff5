"""Exact connectivity computations backing Corollary 1's claims.

Both functions run on the rank-native Menger solver of
:mod:`repro.routing.flows`, straight on the implicit topology.
``vertex_connectivity`` is Even's algorithm: the minimum local
connectivity from the first ``κ + 1`` vertices to their non-neighbours
(one source when the topology is vertex transitive).
``connectivity_certificate`` produces the two-sided certificate used by the
Figure 1/2 harness — degree upper bound plus a Menger lower bound witnessed
by explicit disjoint-path families over sampled pairs — so the tables can
report fault tolerance for instances too large for the exact computation,
flagged as certified-exact or witnessed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.errors import InvalidParameterError
from repro.fastgraph.backend import get_fastgraph
from repro.faults.model import FaultSet
from repro.routing.flows import vertex_disjoint_paths
from repro.topologies.base import Topology

__all__ = [
    "vertex_connectivity",
    "is_maximally_fault_tolerant",
    "connectivity_certificate",
    "connected_under_faults",
]


def vertex_connectivity(topology: Topology) -> int:
    """Exact vertex connectivity κ, by Even's algorithm.

    A minimum separator ``S`` misses one of the first ``|S| + 1`` vertices
    (in ``nodes()`` order); call the first it misses ``v_i``.  ``S`` cuts
    ``v_i`` from some non-neighbour ``x``, and ``x`` lies outside ``S``, so
    it is ranked after ``v_i``.  Hence κ is the minimum local connectivity
    ``κ(v_i, x)`` over the first ``κ + 1`` vertices and their
    non-neighbours ranked after them.  Each local connectivity stops
    augmenting at the running minimum, which starts at the minimum degree.
    On a vertex-transitive topology an automorphism moves any vertex
    outside ``S`` onto ``v_0``, so the first source alone settles κ.  A
    complete graph has no non-adjacent pair and κ = ``N - 1``.
    """
    nodes = list(topology.nodes())
    kappa = min(topology.degree(v) for v in nodes)
    transitive = topology.is_vertex_transitive
    for i, v in enumerate(nodes):
        if i > kappa or (transitive and i > 0):
            break
        near = set(topology.neighbors(v))
        for x in nodes[i + 1 :]:
            if x not in near:
                family = vertex_disjoint_paths(topology, v, x, cutoff=kappa)
                kappa = min(kappa, len(family))
    return kappa


def is_maximally_fault_tolerant(topology: Topology) -> bool:
    """Whether connectivity equals minimum degree (paper Section 5)."""
    return vertex_connectivity(topology) == topology.degree_stats()[0]


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Two-sided evidence about a topology's vertex connectivity.

    ``upper`` is the minimum degree (always a valid upper bound);
    ``lower_witnessed`` is the smallest disjoint-path family size observed
    over the sampled pairs — a true lower bound on the connectivity of the
    *sampled pairs*, and equal to connectivity when it meets ``upper``.
    """

    upper: int
    lower_witnessed: int
    pairs_sampled: int

    @property
    def tight(self) -> bool:
        return self.upper == self.lower_witnessed


def connectivity_certificate(
    topology: Topology,
    *,
    pairs: int = 16,
    rng: random.Random | None = None,
) -> ConnectivityCertificate:
    """Degree upper bound + sampled Menger lower bound (see class doc)."""
    if pairs < 1:
        raise InvalidParameterError("pairs must be >= 1")
    rng = rng or random.Random(0)
    nodes = list(topology.nodes())
    min_degree = min(topology.degree(v) for v in nodes)
    lower = min_degree
    for _ in range(pairs):
        u, v = rng.sample(nodes, 2)
        family = vertex_disjoint_paths(topology, u, v)
        lower = min(lower, len(family))
    return ConnectivityCertificate(
        upper=min_degree, lower_witnessed=lower, pairs_sampled=pairs
    )


def connected_under_faults(
    topology: Topology,
    faults: FaultSet | Iterable[Hashable],
    *,
    backend: str | None = None,
) -> bool:
    """Whether the topology minus the faulty nodes remains connected.

    One fault-masked BFS from any survivor, counted — never materialising
    a distance dict: the count comes from
    :meth:`~repro.fastgraph.backend.FastGraph.reachable_count` (CSR or
    implicit per ``backend``), so survivability queries stay in reach past
    CSR-comfortable sizes.  A raw iterable is validated as a
    :class:`FaultSet` is: a label that is not a node raises
    :class:`~repro.errors.InvalidLabelError`.
    """
    fast = get_fastgraph(topology, backend=backend)
    if not isinstance(faults, FaultSet):
        faults = FaultSet(topology, faults)
    fault_nodes = faults.nodes
    start = next((v for v in topology.nodes() if v not in fault_nodes), None)
    if start is None:
        return True  # the empty graph is vacuously connected
    survivors = topology.num_nodes - len(fault_nodes)
    reached = fast.reachable_count(start, blocked=fault_nodes, backend=backend)
    return reached == survivors
