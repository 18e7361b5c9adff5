"""E4 — Section 3 optimal routing and Theorem 3 diameter.

Reproduces the routing claims as a table (diameter formula vs exact BFS
over the grid) and benchmarks the two butterfly routers head-to-head —
``HBRouter``'s covering walk (O(1) memory) versus the BFS oracle's
``hb.butterfly.shortest_path`` (O(n·2^n) one-time table) — the trade-off
called out in DESIGN.md section 5.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import HBRouter, HyperButterfly
from repro.routing.hypercube import hypercube_route
from repro.topologies.butterfly_cayley import CayleyButterfly

GRID = [(0, 3), (1, 3), (2, 3), (1, 4), (2, 4)]


@pytest.fixture(scope="module")
def diameter_rows() -> str:
    lines = ["(m,n)   formula m+floor(3n/2)   exact (BFS)   agree"]
    for m, n in GRID:
        hb = HyperButterfly(m, n)
        formula, exact = hb.diameter_formula(), hb.diameter()
        lines.append(
            f"({m},{n})  {formula:21d}   {exact:11d}   {formula == exact}"
        )
    return "\n".join(lines)


def _random_pairs(hb, count, seed):
    rng = random.Random(seed)
    nodes = list(hb.nodes())
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


def test_theorem3_diameter_table(benchmark, diameter_rows):
    emit("E4: Theorem 3 — diameter, formula vs exact", diameter_rows)
    hb = HyperButterfly(2, 4)
    assert benchmark.pedantic(hb.diameter, rounds=1, iterations=1) == 8


def test_routing_throughput_walk_backend(benchmark, hb24):
    router = HBRouter(hb24)
    pairs = _random_pairs(hb24, 200, seed=1)

    def route_all():
        return sum(router.route(u, v).length for u, v in pairs)

    total = benchmark(route_all)
    assert total > 0


def test_routing_throughput_oracle_backend(benchmark, hb24):
    fly = hb24.butterfly
    fly.oracle  # pay the table cost outside the timer
    pairs = _random_pairs(hb24, 200, seed=1)

    def route_all():
        # the walk router's cube-first concatenation, oracle butterfly part
        total = 0
        for (h1, b1), (h2, b2) in pairs:
            path = [(h, b1) for h in hypercube_route(hb24.m, h1, h2)]
            path += [(h2, b) for b in fly.shortest_path(b1, b2)[1:]]
            total += len(path) - 1
        return total

    router = HBRouter(hb24)
    walk_total = sum(router.route(u, v).length for u, v in pairs)
    assert benchmark(route_all) == walk_total  # both exactly optimal


def test_oracle_table_build_cost(benchmark):
    """The one-time O(n·2^n) BFS the walk router avoids (n = 8: 2048)."""

    def build():
        return CayleyButterfly(8).oracle.eccentricity_of_identity()

    assert benchmark.pedantic(build, rounds=2, iterations=1) == 12


def test_walk_router_at_oracle_free_scale(benchmark, hb38):
    """Routing on the 16384-node Figure 2 instance, no precomputation."""
    router = HBRouter(hb38)
    pairs = _random_pairs(hb38, 100, seed=2)

    def route_all():
        total = 0
        for u, v in pairs:
            result = router.route(u, v)
            assert result.length <= hb38.diameter_formula()
            total += result.length
        return total

    assert benchmark(route_all) > 0


def test_routing_table_rom_sizes(benchmark, hb24):
    """The VLSI angle: a shared full table vs the Remark-8 split table.

    Both tables are first columns of the oracle's identity-rooted word
    tables (``tests/routing/test_tables.py`` routes with them): the full
    table has an entry per non-identity element of the whole group, the
    split table one per non-identity butterfly element.
    """
    _, left_dist, _, right_dist = hb24.oracle.lifted_word_tables()
    full_entries = int(np.count_nonzero(left_dist[:, None] + right_dist[None, :]))
    _, fly_dist = benchmark.pedantic(
        lambda: CayleyButterfly(hb24.n).oracle.word_table(), rounds=3, iterations=1
    )
    split_entries = int(np.count_nonzero(fly_dist))
    emit(
        "E4b: routing-table ROM sizes (vertex transitivity at work)",
        f"{hb24.name}: naive per-node tables  {hb24.num_nodes * (hb24.num_nodes - 1)} entries\n"
        f"          shared full table      {full_entries} entries\n"
        f"          split (fly-only) table {split_entries} entries",
    )
    assert full_entries == hb24.num_nodes - 1
    assert split_entries == hb24.n * 2**hb24.n - 1
