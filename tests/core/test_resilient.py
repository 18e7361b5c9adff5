"""ResilientRouter tests: escalation, degradation, cache invalidation."""

from __future__ import annotations

import pytest

from repro.core.resilient import (
    DegradedRouteError,
    ReachabilityReport,
    ResilientRouter,
    RouteOutcome,
)
from repro.errors import RoutingError
from repro.faults.dynamic import FaultEvent
from repro.faults.model import random_node_faults
from repro.routing.base import validate_path


class TestEscalation:
    def test_within_guarantee_uses_disjoint(self, hb23, rng):
        router = ResilientRouter(hb23)
        nodes = list(hb23.nodes())
        for _ in range(10):
            u, v = rng.sample(nodes, 2)
            faults = random_node_faults(
                hb23, router.max_guaranteed_faults(), rng=rng, exclude=(u, v)
            )
            outcome = router.route_ex(u, v, node_faults=faults.nodes)
            assert outcome.strategy == "disjoint"
            assert faults.nodes.isdisjoint(outcome.path)
            validate_path(hb23, list(outcome.path))

    def test_beyond_guarantee_escalates_to_adaptive(self, hb13):
        """Kill every disjoint path member, keep the pair connected."""
        router = ResilientRouter(hb13)
        u = hb13.identity_node()
        # a far-away target so the disjoint family has long members
        v = max(hb13.nodes(), key=lambda w: hb13.distance(u, w))
        family = [list(p) for p in router._family(u, v)]
        # one middle node per member path kills the whole family without
        # isolating either endpoint (their neighbor sets stay alive)
        faults = {p[len(p) // 2] for p in family}
        assert len(faults) > router.max_guaranteed_faults()
        outcome = router.route_ex(u, v, node_faults=faults)
        assert outcome.strategy == "adaptive"
        assert faults.isdisjoint(outcome.path)
        validate_path(hb13, list(outcome.path))

    def test_link_faults_respected(self, hb13):
        router = ResilientRouter(hb13)
        u = hb13.identity_node()
        v = hb13.neighbors(u)[0]
        path = router.route(u, v, link_faults=[(u, v)])
        assert path[0] == u and path[-1] == v
        assert (u, v) not in zip(path, path[1:], strict=False)
        assert (v, u) not in zip(path, path[1:], strict=False)
        validate_path(hb13, path)

    def test_trivial_and_invalid(self, hb13):
        router = ResilientRouter(hb13)
        u = hb13.identity_node()
        assert router.route(u, u) == [u]
        with pytest.raises(RoutingError):
            router.route(u, hb13.neighbors(u)[0], node_faults=[u])


class TestStructuredFailure:
    def test_degraded_error_carries_report(self, hb13):
        router = ResilientRouter(hb13)
        u = hb13.identity_node()
        # isolate u: fault all of its neighbors
        wall = set(hb13.neighbors(u))
        v = next(
            w for w in hb13.nodes() if w != u and w not in wall
        )
        with pytest.raises(DegradedRouteError) as err:
            router.route_ex(u, v, node_faults=wall)
        report = err.value.report
        assert isinstance(report, ReachabilityReport)
        assert report.reachable == 1  # just the source itself
        assert report.healthy == hb13.num_nodes - len(wall)
        assert 0.0 < report.fraction < 0.05

    def test_reachability_fault_free(self, hb13):
        router = ResilientRouter(hb13)
        report = router.reachability(hb13.identity_node())
        assert report.reachable == report.healthy == hb13.num_nodes
        assert report.fraction == 1.0  # reprolint: disable=HB301 -- reachable/healthy is exactly n/n here

    def test_reachability_with_link_cut(self, hb13):
        router = ResilientRouter(hb13)
        u = hb13.identity_node()
        cut = [(u, w) for w in hb13.neighbors(u)]
        report = router.reachability(u, link_faults=cut)
        assert report.reachable == 1
        assert report.link_faults == len(cut)


class TestCache:
    def test_adaptive_cache_dropped_on_fault_event(self, hb13):
        router = ResilientRouter(hb13)
        u = hb13.identity_node()
        v = max(hb13.nodes(), key=lambda w: hb13.distance(u, w))
        family = [list(p) for p in router._family(u, v)]
        faults = frozenset(p[len(p) // 2] for p in family)
        router.route_ex(u, v, node_faults=faults)
        assert router._adaptive  # populated by the adaptive stage
        router.on_fault_event(FaultEvent(1.0, "fail", "node", u))
        assert not router._adaptive
        assert router.invalidations == 1
        # fault-independent disjoint families survive invalidation
        assert router._families

    def test_route_outcome_length(self, hb13):
        router = ResilientRouter(hb13)
        u = hb13.identity_node()
        v = hb13.neighbors(u)[0]
        outcome = router.route_ex(u, v)
        assert isinstance(outcome, RouteOutcome)
        assert outcome.length == len(outcome.path) - 1 == 1
