"""Property-based fault-routing guarantees over a seeded ``HB(m, n)`` grid.

Corollary 1 / Remark 10, stated as executable properties: for *any* fault
set of at most ``m + 3`` nodes avoiding the endpoints,

* :meth:`ResilientRouter.route_ex` always answers from the disjoint
  family with a fault-free ``u → v`` path, and
* the adaptive (shortest fault-avoiding) path is never longer than the
  disjoint one.

The grid is small instances times many seeds — cheap, deterministic, and
broad enough to catch construction regressions in any Theorem 5 case.
"""

from __future__ import annotations

import random

import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.core.resilient import ResilientRouter
from repro.faults.model import random_node_faults
from repro.routing.base import validate_path

GRID = [(1, 3), (2, 3), (1, 4)]
SEEDS = range(8)

_INSTANCES: dict[tuple[int, int], HyperButterfly] = {}


def _hb(m: int, n: int) -> HyperButterfly:
    if (m, n) not in _INSTANCES:
        _INSTANCES[(m, n)] = HyperButterfly(m, n)
    return _INSTANCES[(m, n)]


@pytest.mark.parametrize("m,n", GRID)
@pytest.mark.parametrize("seed", SEEDS)
def test_disjoint_always_fault_free_within_guarantee(m, n, seed):
    hb = _hb(m, n)
    router = ResilientRouter(hb)
    rng = random.Random(seed * 1009 + m * 101 + n)
    nodes = list(hb.nodes())
    for trial in range(4):
        u, v = rng.sample(nodes, 2)
        count = rng.randint(0, router.max_guaranteed_faults())
        faults = random_node_faults(hb, count, rng=rng, exclude=(u, v))
        outcome = router.route_ex(u, v, node_faults=faults.nodes)
        assert outcome.strategy == "disjoint"
        path = list(outcome.path)
        assert path[0] == u and path[-1] == v
        assert faults.nodes.isdisjoint(path)
        validate_path(hb, path)


@pytest.mark.parametrize("m,n", GRID)
@pytest.mark.parametrize("seed", SEEDS)
def test_adaptive_never_longer_than_disjoint(m, n, seed):
    hb = _hb(m, n)
    router = ResilientRouter(hb)
    rng = random.Random(seed * 2003 + m * 101 + n)
    nodes = list(hb.nodes())
    for trial in range(4):
        u, v = rng.sample(nodes, 2)
        count = rng.randint(0, router.max_guaranteed_faults())
        faults = random_node_faults(hb, count, rng=rng, exclude=(u, v))
        disjoint = router.route_ex(u, v, node_faults=faults.nodes)
        assert disjoint.strategy == "disjoint"
        adaptive = hb.bfs_shortest_path(u, v, blocked=faults.nodes)
        assert adaptive is not None
        assert len(adaptive) <= len(disjoint.path)
        assert faults.nodes.isdisjoint(adaptive)
        validate_path(hb, adaptive)
