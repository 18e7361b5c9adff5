"""Product-decomposition distance engine (paper Remarks 6 & 8).

Distances in a Cartesian product are the sums of factor distances, so the
full node-pair distance distribution of ``G × H`` is the **convolution**
of the factor distributions.  This module exploits that to make exact
global distance metrics — diameter, average distance, the whole
histogram — essentially free at any scale for every product family in
the library (``HB(m,n) = H_m × B_n``, ``HD(m,n) = H_m × D_n``, generic
:class:`~repro.topologies.product.CartesianProduct` nests):

* each **factor** is profiled once — a closed-form binomial for the
  hypercube (no BFS at all), one vectorized BFS for any vertex-transitive
  factor, a small all-pairs sweep for irregular factors like ``D_n``;
* the factor histograms are convolved into the product histogram without
  ever materializing the ``n·2^{m+n}``-node product.

``HB(8, 10)`` (2.6M nodes) resolves in the time it takes to BFS the
2048-node ``B_10`` factor once.  Dispatch is structural — any topology
exposing a ``factors()`` accessor participates — never by class name.

All arithmetic stays in exact integers until the caller divides, so the
derived metrics are bit-identical to brute-force BFS aggregation (pinned
by ``tests/analysis/test_decompose.py`` over a grid of small instances).
"""

from __future__ import annotations

from math import comb
from typing import Callable

import numpy as np

from repro.errors import DisconnectedError
from repro.fastgraph.backend import get_fastgraph
from repro.topologies.base import Topology
from repro.topologies.hypercube import Hypercube

__all__ = [
    "leaf_factors",
    "factor_pair_histogram",
    "convolve_pair_histograms",
    "product_pair_histogram",
    "product_diameter",
    "product_average_distance",
]

#: memoization attribute for the convolved product histogram
_HIST_ATTR = "_decompose_pair_histogram"


def leaf_factors(topology: Topology) -> tuple[Topology, ...] | None:
    """The flattened Cartesian factors of ``topology``, or ``None``.

    Structural dispatch: a topology participates by exposing a
    ``factors()`` accessor (``CartesianProduct``, ``HyperButterfly``,
    ``HyperDeBruijn``); factors that are themselves products are flattened
    recursively.  ``None`` means "not a product" — the caller should fall
    back to whole-graph algorithms.
    """
    accessor: Callable[[], tuple[Topology, ...]] | None = getattr(
        topology, "factors", None
    )
    if accessor is None:
        return None
    flattened: list[Topology] = []
    for factor in accessor():
        sub = leaf_factors(factor)
        if sub is None:
            flattened.append(factor)
        else:
            flattened.extend(sub)
    return tuple(flattened)


def _transitive_pair_histogram(topology: Topology) -> dict[int, int]:
    """Single-source counts scaled to ordered pairs (vertex transitivity)."""
    anchor = next(iter(topology.nodes()))
    total = topology.num_nodes
    dist = get_fastgraph(topology).distances_array(anchor)
    if int((dist < 0).sum()):
        raise DisconnectedError(f"{topology.name} is not connected from {anchor!r}")
    counts = {d: int(c) for d, c in enumerate(np.bincount(dist)) if c}
    return {d: c * total for d, c in sorted(counts.items())}


def _allpairs_pair_histogram(topology: Topology) -> dict[int, int]:
    """Full all-ordered-pairs histogram for small irregular factors."""
    total = topology.num_nodes
    counts = get_fastgraph(topology).sweep(check_connected=False).histogram
    if sum(counts.values()) != total * total:
        raise DisconnectedError(f"{topology.name} is not connected")
    return dict(sorted(counts.items()))


def factor_pair_histogram(topology: Topology) -> dict[int, int]:
    """Exact ``{distance: ordered-pair count}`` of one (non-product) factor.

    Includes the ``distance == 0`` diagonal (``num_nodes`` pairs).  Three
    routes, cheapest valid one first:

    * :class:`~repro.topologies.hypercube.Hypercube` — closed form:
      ``C(m, d) · 2^m`` pairs at distance ``d`` (no BFS at all);
    * vertex-transitive factors — one BFS, scaled by ``num_nodes``;
    * anything else — an all-pairs sweep (factors are small by design:
      the product's scale lives in the *combination*, not the factors).
    """
    if isinstance(topology, Hypercube):
        m = topology.m
        return {d: comb(m, d) << m for d in range(m + 1)}
    if topology.is_vertex_transitive:
        return _transitive_pair_histogram(topology)
    return _allpairs_pair_histogram(topology)


def convolve_pair_histograms(
    left: dict[int, int], right: dict[int, int]
) -> dict[int, int]:
    """Ordered-pair histogram of a product from its factor histograms.

    A product pair is a pair of factor pairs, and its distance is the sum
    of the factor distances (Remark 6/8), so counts multiply and distances
    add — an integer convolution.
    """
    out: dict[int, int] = {}
    for d1, c1 in sorted(left.items()):
        for d2, c2 in sorted(right.items()):
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return dict(sorted(out.items()))


def product_pair_histogram(topology: Topology) -> dict[int, int] | None:
    """The exact full distance histogram of a product topology.

    ``None`` when ``topology`` exposes no ``factors()`` accessor — the
    caller falls back to whole-graph BFS.  The result is memoized on the
    topology instance (the underlying factor BFS is the only real cost).
    """
    cached = topology.__dict__.get(_HIST_ATTR)
    if cached is not None:
        return dict(cached)
    factors = leaf_factors(topology)
    if factors is None:
        return None
    histogram = factor_pair_histogram(factors[0])
    for factor in factors[1:]:
        histogram = convolve_pair_histograms(
            histogram, factor_pair_histogram(factor)
        )
    try:
        setattr(topology, _HIST_ATTR, dict(histogram))
    except (AttributeError, TypeError):
        pass  # slots/frozen instances: recompute next call
    return histogram


def product_diameter(topology: Topology) -> int | None:
    """Exact diameter via decomposition (sum of factor diameters), or
    ``None`` when ``topology`` is not a product."""
    histogram = product_pair_histogram(topology)
    if histogram is None:
        return None
    return max(histogram)


def product_average_distance(topology: Topology) -> float | None:
    """Exact mean distance over distinct ordered pairs, or ``None``.

    Matches the convention of
    :func:`repro.analysis.metrics.average_distance`: the ``u == v``
    diagonal is excluded from the denominator (it contributes nothing to
    the numerator).  Integer sums divided once — bit-identical to the
    brute-force aggregation it replaces.
    """
    histogram = product_pair_histogram(topology)
    if histogram is None:
        return None
    total_pairs = sum(histogram.values())
    distinct = total_pairs - topology.num_nodes
    if distinct <= 0:
        return 0.0
    return sum(d * c for d, c in histogram.items()) / distinct
