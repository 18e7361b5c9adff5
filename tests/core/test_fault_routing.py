"""Fault-tolerant routing tests (Remark 10) on :class:`ResilientRouter`."""

from __future__ import annotations

import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.core.resilient import ResilientRouter
from repro.errors import DisconnectedError, RoutingError
from repro.faults.model import random_node_faults
from repro.routing.base import validate_path


class TestGuarantee:
    """With <= m+3 faults, the disjoint-path scheme must always deliver."""

    @pytest.mark.parametrize(("m", "n"), [(1, 3), (2, 3)])
    def test_maximal_fault_tolerance(self, m, n, rng):
        hb = HyperButterfly(m, n)
        router = ResilientRouter(hb)
        nodes = list(hb.nodes())
        assert router.max_guaranteed_faults() == m + 3
        for _ in range(15):
            u, v = rng.sample(nodes, 2)
            faults = random_node_faults(
                hb, m + 3, rng=rng, exclude=(u, v)
            )
            outcome = router.route_ex(u, v, node_faults=faults.nodes)
            assert outcome.strategy == "disjoint"
            validate_path(hb, list(outcome.path), source=u, target=v)
            assert faults.nodes.isdisjoint(outcome.path)

    def test_zero_faults_gives_valid_route(self, hb23):
        router = ResilientRouter(hb23)
        u, v = (0, (0, 0)), (3, (2, 0b101))
        path = router.route(u, v)
        validate_path(hb23, path, source=u, target=v)

    def test_trivial_route(self, hb23):
        router = ResilientRouter(hb23)
        u = hb23.identity_node()
        assert router.route(u, u) == [u]


class TestStrategies:
    def test_adaptive_never_longer_than_disjoint(self, hb23, rng):
        router = ResilientRouter(hb23)
        nodes = list(hb23.nodes())
        for _ in range(20):
            u, v = rng.sample(nodes, 2)
            faults = random_node_faults(hb23, 3, rng=rng, exclude=(u, v))
            disjoint = router.route(u, v, node_faults=faults.nodes)
            adaptive = hb23.bfs_shortest_path(u, v, blocked=faults.nodes)
            assert len(adaptive) <= len(disjoint)
            assert faults.nodes.isdisjoint(adaptive)

    def test_faulty_endpoint_rejected(self, hb23):
        router = ResilientRouter(hb23)
        u, v = (0, (0, 0)), (1, (0, 0))
        with pytest.raises(RoutingError):
            router.route(u, v, node_faults=[u])


class TestDisconnection:
    def test_adaptive_detects_disconnection(self, hb13):
        """Fault all m+4 neighbors of the source: no route exists."""
        router = ResilientRouter(hb13)
        u = hb13.identity_node()
        v = (1, (1, 0b010))
        faults = hb13.neighbors(u)
        assert v not in faults
        assert hb13.bfs_shortest_path(u, v, blocked=frozenset(faults)) is None
        with pytest.raises(DisconnectedError):
            router.route(u, v, node_faults=faults)

    def test_disjoint_raises_beyond_guarantee_when_all_paths_dead(self, hb13):
        router = ResilientRouter(hb13)
        u = hb13.identity_node()
        v = (1, (1, 0b010))
        faults = hb13.neighbors(u)  # m+4 faults: guarantee void
        with pytest.raises(DisconnectedError):
            router.route(u, v, node_faults=faults)
