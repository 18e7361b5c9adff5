"""Optimal HB routing tests (paper Section 3)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.core.routing import HBRouter, RouteResult
from repro.errors import RoutingError
from repro.routing.base import validate_path


class TestRouteResult:
    def test_properties(self):
        r = RouteResult(path=[(0, (0, 0)), (1, (0, 0))], generators=["h_0"])
        assert r.length == 1
        assert r.source == (0, (0, 0))
        assert r.target == (1, (0, 0))


def _oracle_route(hb, u, v):
    """Cube-first e-cube hops, then the butterfly oracle's shortest path."""
    cube = HBRouter(hb).route(u, (v[0], u[1])).path
    fly = [(v[0], b) for b in hb.butterfly.shortest_path(u[1], v[1])]
    return cube + fly[1:]


class TestOptimality:
    @pytest.mark.parametrize("backend", ["walk", "oracle"])
    def test_routes_are_shortest_paths(self, hb23, rng, backend):
        """The covering walk and the oracle's butterfly paths are both
        shortest segments of an optimal HB route."""
        router = HBRouter(hb23)
        g = hb23.to_networkx()
        nodes = list(hb23.nodes())
        for _ in range(60):
            u, v = rng.sample(nodes, 2)
            if backend == "walk":
                path = router.route(u, v).path
            else:
                path = _oracle_route(hb23, u, v)
            validate_path(hb23, path, source=u, target=v)
            assert len(path) - 1 == nx.shortest_path_length(g, u, v)
            assert len(path) - 1 == router.distance(u, v)

    def test_backends_agree_on_distance(self, hb24, rng):
        router = HBRouter(hb24)
        nodes = list(hb24.nodes())
        for _ in range(80):
            u, v = rng.sample(nodes, 2)
            cube = (u[0] ^ v[0]).bit_count()
            fly = len(hb24.butterfly.shortest_path(u[1], v[1])) - 1
            assert router.distance(u, v) == cube + fly == hb24.distance(u, v)

    def test_trivial_route(self, hb23):
        router = HBRouter(hb23)
        u = hb23.identity_node()
        result = router.route(u, u)
        assert result.path == [u]
        assert result.length == 0


class TestSegmentOrders:
    """Both 'cube-first' and 'fly-first' concatenations are optimal."""

    def test_both_orders_same_length(self, hb23, rng):
        router = HBRouter(hb23)
        nodes = list(hb23.nodes())
        for _ in range(40):
            u, v = rng.sample(nodes, 2)
            a = router.route(u, v, order="cube-first")
            b = router.route(u, v, order="fly-first")
            assert a.length == b.length
            validate_path(hb23, b.path, source=u, target=v)

    def test_cube_first_corrects_cube_part_first(self, hb23):
        router = HBRouter(hb23)
        u, v = (0, (0, 0)), (3, (1, 0b001))
        result = router.route(u, v, order="cube-first")
        # the first hops must be hypercube generators
        cube_dist = 2
        assert all(g.startswith("h_") for g in result.generators[:cube_dist])
        assert all(not g.startswith("h_") for g in result.generators[cube_dist:])

    def test_unknown_order_rejected(self, hb23):
        with pytest.raises(RoutingError):
            HBRouter(hb23).route(hb23.identity_node(), (1, (0, 0)), order="zigzag")


class TestGeneratorTrace:
    def test_generator_names_replay_path(self, hb23, rng):
        router = HBRouter(hb23)
        nodes = list(hb23.nodes())
        for _ in range(30):
            u, v = rng.sample(nodes, 2)
            result = router.route(u, v)
            assert len(result.generators) == result.length
            node = u
            for name in result.generators:
                idx = list(hb23.gens.names).index(name)
                node = hb23.gens.apply(node, idx)
            assert node == v

    def test_exhaustive_small_instance(self):
        """Every pair of HB(0,3) routes optimally (butterfly-only regime)."""
        hb = HyperButterfly(0, 3)
        router = HBRouter(hb)
        g = hb.to_networkx()
        nodes = list(hb.nodes())
        for u in nodes:
            for v in nodes:
                result = router.route(u, v)
                assert result.length == nx.shortest_path_length(g, u, v)
