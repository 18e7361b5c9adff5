"""E6 — Remark 10: routing under maximal faults (fault sweep).

Reproduces the sharp shape of Corollary 1 dynamically: connected fraction
and disjoint-scheme success stay at 1.0 for every fault count below the
connectivity ``m + 4``, then degrade only gently under random faults.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro import HyperButterfly
from repro.faults.experiments import fault_sweep


@pytest.fixture(scope="module")
def sweep_result():
    hb = HyperButterfly(2, 3)
    counts = list(range(0, hb.m + 8))
    return hb, fault_sweep(hb, counts, trials=4, pairs_per_trial=10, seed=17)


@pytest.fixture(scope="module")
def sweep_rows(sweep_result) -> str:
    hb, results = sweep_result
    lines = [
        f"host {hb.name}, guaranteed tolerance m+3 = {hb.m + 3} faults",
        "faults  connected  disjoint-ok  overhead",
    ]
    for r in results:
        marker = "  <= guarantee" if r.faults <= hb.m + 3 else ""
        lines.append(
            f"{r.faults:6d}  {r.connected_fraction:9.3f}  "
            f"{r.disjoint_success_rate:11.3f}  {r.mean_overhead:8.3f}{marker}"
        )
    return "\n".join(lines)


def test_fault_sweep_table(benchmark, sweep_rows, sweep_result):
    emit("E6: Remark 10 — fault sweep", sweep_rows)
    hb, results = sweep_result
    # Corollary 1, observed: perfect delivery through the guarantee region
    for r in results:
        if r.faults <= hb.m + 3:
            assert r.connected_fraction == 1.0
            assert r.disjoint_success_rate == 1.0

    def one_sweep_point():
        return fault_sweep(hb, [hb.m + 3], trials=2, pairs_per_trial=5, seed=1)

    benchmark.pedantic(one_sweep_point, rounds=2, iterations=1)


def test_oblivious_overhead_is_small(sweep_result):
    """The oblivious disjoint-path route stays near the adaptive optimum."""
    _, results = sweep_result
    for r in results:
        assert r.mean_overhead <= 1.5


def test_fault_routing_latency_kernel(benchmark, hb23):
    from repro.core.resilient import ResilientRouter
    from repro.faults.model import random_node_faults
    import random

    router = ResilientRouter(hb23)
    rng = random.Random(5)
    u, v = (0, (0, 0)), (3, (2, 0b101))
    faults = random_node_faults(hb23, hb23.m + 3, rng=rng, exclude=(u, v))

    def route():
        return router.route(u, v, node_faults=faults.nodes)

    path = benchmark(route)
    assert faults.nodes.isdisjoint(path)
