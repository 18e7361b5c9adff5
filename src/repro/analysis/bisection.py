"""Bisection-width analysis — the VLSI angle of the paper's conclusion.

The conclusion announces "interesting results about the VLSI
implementation of the proposed topology"; the dominant VLSI cost driver
for an interconnection network is its **bisection width** (Thompson-model
layout area grows as the square of the bisection).  This module provides:

* :func:`cube_cut_width` — the canonical balanced cut along a hypercube
  dimension: exactly ``n·2^{m+n-1}`` edges for ``HB(m, n)`` (every node has
  one ``h_i`` edge across the cut), an upper bound on the bisection width;
* :func:`spectral_lower_bound` — the standard algebraic bound
  ``λ_2 · N / 4`` from the graph Laplacian (exact eigenvalue via dense
  solver on small instances, Lanczos beyond);
* :func:`kernighan_lin_upper_bound` — a local-search balanced cut, usually
  tightening the canonical cut on irregular families (hyper-deBruijn);
* :func:`bisection_report` — the three numbers side by side for any
  topology, the table behind the E10 bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError
from repro.topologies.base import Topology

__all__ = [
    "cube_cut_width",
    "spectral_lower_bound",
    "kernighan_lin_upper_bound",
    "BisectionReport",
    "bisection_report",
]


def cube_cut_width(hb: HyperButterfly, dimension: int | None = None) -> int:
    """Edges cut by splitting on one hypercube bit: ``n·2^{m+n-1}``.

    This is a *balanced* cut (each side is a ``HB(m-1, n)`` copy), hence an
    upper bound on the bisection width.  Requires ``m >= 1``.
    """
    if hb.m < 1:
        raise InvalidParameterError("cube cut needs at least one hypercube bit")
    if dimension is None:
        dimension = hb.m - 1
    if not 0 <= dimension < hb.m:
        raise InvalidParameterError(f"dimension {dimension} outside H_{hb.m}")
    # each of the n·2^{m+n} nodes has exactly one h_dimension edge; every
    # such edge crosses the cut, counted twice over its endpoints
    return hb.num_nodes // 2


def spectral_lower_bound(topology: Topology) -> float:
    """``λ_2 · N / 4`` — a valid lower bound on any balanced bisection.

    (For a bisection ``(S, V\\S)`` with ``|S| = N/2``, the Laplacian
    quadratic form gives ``cut >= λ_2 · |S| · |V\\S| / N = λ_2 N / 4``.)
    """
    graph = topology.to_networkx()
    n = graph.number_of_nodes()
    if n < 3:
        return 0.0
    if n <= 600:
        lap = nx.laplacian_matrix(graph).toarray().astype(float)
        eigenvalues = np.linalg.eigvalsh(lap)
        lam2 = float(eigenvalues[1])
    else:
        from scipy.sparse.linalg import eigsh

        lap = nx.laplacian_matrix(graph).asfptype()
        vals = eigsh(lap, k=2, which="SM", return_eigenvectors=False, tol=1e-6)
        lam2 = float(sorted(vals)[1])
    return lam2 * n / 4.0


def kernighan_lin_upper_bound(
    topology: Topology, *, seed: int = 0, rounds: int = 3
) -> int:
    """Best balanced cut found by repeated Kernighan–Lin local search."""
    graph = topology.to_networkx()
    best = None
    for r in range(rounds):
        parts = nx.algorithms.community.kernighan_lin_bisection(
            graph, seed=seed + r
        )
        cut = nx.cut_size(graph, parts[0], parts[1])
        best = cut if best is None else min(best, cut)
    return int(best)


@dataclass(frozen=True)
class BisectionReport:
    """Lower/upper bisection evidence for one topology."""

    name: str
    nodes: int
    spectral_lower: float
    best_cut_upper: int
    canonical_cut: int | None  # cube cut for HB; None otherwise

    @property
    def certified_interval(self) -> tuple[float, int]:
        upper = self.best_cut_upper
        if self.canonical_cut is not None:
            upper = min(upper, self.canonical_cut)
        return (self.spectral_lower, upper)


def bisection_report(
    topology: Topology, *, seed: int = 0, rounds: int = 3
) -> BisectionReport:
    """Bisection bounds for a topology (HB gets its canonical cube cut)."""
    if topology.num_nodes % 2:
        raise InvalidParameterError("bisection needs an even node count")
    canonical = None
    if isinstance(topology, HyperButterfly) and topology.m >= 1:
        canonical = cube_cut_width(topology)
    return BisectionReport(
        name=topology.name,
        nodes=topology.num_nodes,
        spectral_lower=spectral_lower_bound(topology),
        best_cut_upper=kernighan_lin_upper_bound(
            topology, seed=seed, rounds=rounds
        ),
        canonical_cut=canonical,
    )
