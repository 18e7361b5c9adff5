"""Butterfly covering-walk router tests — exactness against the oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidLabelError, InvalidParameterError, RoutingError
from repro.routing.base import paths_internally_disjoint, validate_path
from repro.routing.butterfly import (
    butterfly_distance,
    butterfly_route,
    butterfly_route_walk,
    covering_walk,
)
from repro.routing.flows import vertex_disjoint_paths
from repro.topologies.butterfly_cayley import CayleyButterfly


class TestCoveringWalk:
    def test_trivial_walk(self):
        assert covering_walk(5, 2, 2, frozenset()) == [0]

    def test_walk_reaches_end(self):
        walk = covering_walk(5, 1, 4, frozenset())
        assert (1 + walk[-1]) % 5 == 4
        assert len(walk) - 1 == 2  # backwards is shorter: 1 -> 0 -> 4

    def test_walk_crosses_required_edges(self):
        n = 6
        required = {0, 3}
        walk = covering_walk(n, 1, 1, required)
        crossed = set()
        for p, q in zip(walk, walk[1:], strict=False):
            crossed.add((1 + min(p, q)) % n)
        assert required <= crossed

    def test_rejects_bad_edge_index(self):
        with pytest.raises(InvalidParameterError):
            covering_walk(4, 0, 0, {4})

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParameterError):
            covering_walk(2, 0, 0, set())


class TestExactness:
    """The combinatorial router must agree with the BFS oracle everywhere."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_all_pairs_distance(self, n):
        cb = CayleyButterfly(n)
        oracle = cb.oracle
        for u in cb.nodes():
            for v in cb.nodes():
                assert butterfly_distance(n, u, v) == oracle.distance(u, v)

    @pytest.mark.parametrize("n", [5, 6])
    def test_sampled_distance_larger_n(self, n):
        cb = CayleyButterfly(n)
        oracle = cb.oracle
        rng = random.Random(n)
        nodes = list(cb.nodes())
        for _ in range(250):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert butterfly_distance(n, u, v) == oracle.distance(u, v)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_routes_are_simple_shortest_paths(self, n):
        cb = CayleyButterfly(n)
        rng = random.Random(n * 7)
        nodes = list(cb.nodes())
        for _ in range(150):
            u, v = rng.choice(nodes), rng.choice(nodes)
            path = butterfly_route_walk(n, u, v)
            validate_path(cb, path, source=u, target=v)
            assert len(path) - 1 == butterfly_distance(n, u, v)

    @given(st.integers(3, 10), st.data())
    @settings(max_examples=60)
    def test_distance_bounded_by_diameter_formula(self, n, data):
        u = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2**n - 1)))
        v = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2**n - 1)))
        assert butterfly_distance(n, u, v) <= (3 * n) // 2

    def test_route_validates_nodes(self, bf3):
        with pytest.raises(InvalidLabelError):
            butterfly_route(bf3, (0, 0), (3, 0))


class TestDistanceMetricProperties:
    @given(st.integers(3, 7), st.data())
    @settings(max_examples=60)
    def test_symmetry(self, n, data):
        u = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2**n - 1)))
        v = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2**n - 1)))
        assert butterfly_distance(n, u, v) == butterfly_distance(n, v, u)

    @given(st.integers(3, 6), st.data())
    @settings(max_examples=40)
    def test_triangle_inequality(self, n, data):
        def node(d):
            return (d.draw(st.integers(0, n - 1)), d.draw(st.integers(0, 2**n - 1)))

        u, v, w = node(data), node(data), node(data)
        assert butterfly_distance(n, u, w) <= butterfly_distance(
            n, u, v
        ) + butterfly_distance(n, v, w)

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=40)
    def test_identity_of_indiscernibles(self, n, data):
        u = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2**n - 1)))
        assert butterfly_distance(n, u, u) == 0


class TestButterflyDisjointPaths:
    """Theorem 5's black-box 4-path family of [4]: the exact Menger solver
    finds it for every ``u != v`` (vertex connectivity 4, Remark 1)."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_four_disjoint_paths(self, n, rng):
        cb = CayleyButterfly(n)
        nodes = list(cb.nodes())
        for _ in range(12):
            u, v = rng.sample(nodes, 2)
            family = vertex_disjoint_paths(cb, u, v, cutoff=4)
            assert len(family) == 4
            assert paths_internally_disjoint(family)
            for p in family:
                validate_path(cb, p, source=u, target=v)

    def test_rejects_same_endpoints(self, bf3):
        with pytest.raises(RoutingError):
            vertex_disjoint_paths(bf3, (0, 0), (0, 0), cutoff=4)
