"""E7 — fast graph backend: CSR BFS kernels vs. pure-Python references.

The references are the seed's label BFS and dict oracle fill, kept in
``tests/topologies/_reference_bfs.py``; run from the repository root so
``tests`` imports.

The fastgraph subsystem (codec → CSR adjacency → array kernels) is the
substrate under ``exact_diameter``, the distance oracle, distance
profiles, and fault sweeps.  These benchmarks pin its two acceptance
claims:

* the HB(3,8) single-BFS diameter (16384 nodes) is ≥10× faster than the
  seed's per-source dict BFS, *including* one-time CSR construction;
* a ≥65k-node instance — HB(5,8), 65536 nodes — gets an exact diameter
  well under 60 s, a scale the label-walking code could not touch.

``benchmarks/fastgraph_timings.py`` emits the same measurements as
machine-readable JSON (``BENCH_fastgraph.json``) for cross-PR tracking.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit
from repro.analysis.metrics import exact_diameter
from repro.cayley.graph import DistanceOracle
from repro.core.hyperbutterfly import HyperButterfly
from repro.fastgraph import get_fastgraph
from tests.topologies import _reference_bfs as reference_bfs


def test_csr_build_hb38(benchmark, hb38):
    """One-time cost: codec-vectorized CSR adjacency for 16384 nodes."""
    fresh = HyperButterfly(3, 8)
    csr = benchmark.pedantic(
        lambda: get_fastgraph(fresh).csr, rounds=1, iterations=1
    )
    assert csr.num_nodes == 16384
    assert csr.num_arcs == 16384 * 7


def test_fast_diameter_speedup_hb38(benchmark):
    """Acceptance bar: ≥10× vs. the seed's dict BFS, build included.

    Best of 3 rounds on each side, so one noisy round cannot sink the
    ratio; each fast round gets a fresh ``HyperButterfly(3, 8)``, so it
    pays the CSR build instead of hitting the per-instance memo.
    """
    anchor_topology = HyperButterfly(3, 8)
    anchor = anchor_topology.identity_node()

    python_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference = max(
            reference_bfs.bfs_distances(anchor_topology, anchor).values()
        )
        python_s = min(python_s, time.perf_counter() - start)

    def fast_diameter(fresh):
        return get_fastgraph(fresh).eccentricity(fresh.identity_node())

    diameter = benchmark.pedantic(
        fast_diameter,
        setup=lambda: ((HyperButterfly(3, 8),), {}),
        rounds=3,
        iterations=1,
    )
    fast_s = benchmark.stats.stats.min
    assert diameter == reference == 15
    speedup = python_s / fast_s
    emit(
        "E7: HB(3,8) single-BFS diameter — fast backend vs. dict BFS",
        f"pure-Python dict BFS (best of 3): {python_s:.3f} s\n"
        f"CSR backend (build + BFS, best of 3): {fast_s:.3f} s\n"
        f"speedup: {speedup:.1f}x (acceptance bar: 10x)",
    )
    assert speedup >= 10.0


def test_oracle_fill_speedup_hb24(benchmark):
    """Identity-rooted oracle (the E4 routing substrate) on HB(2,4)...
    scaled here to HB(3,6) = 4608 nodes where the dict fill is visible."""
    hb = HyperButterfly(3, 6)
    start = time.perf_counter()
    slow, _ = reference_bfs.oracle_fill(hb.group, hb.gens)
    python_s = time.perf_counter() - start

    fast = benchmark.pedantic(
        lambda: DistanceOracle(hb.group, hb.gens), rounds=1, iterations=1
    )
    fast_s = benchmark.stats.stats.mean
    assert fast.eccentricity_of_identity() == max(slow.values())
    emit(
        "E7: HB(3,6) oracle fill — fast vs. the reference dict fill",
        f"python fill: {python_s:.3f} s\nfast fill: {fast_s:.3f} s\n"
        f"speedup: {python_s / fast_s:.1f}x",
    )


def test_exact_diameter_65k_under_budget(benchmark):
    """HB(5,8): 65536 nodes, exact diameter, < 60 s wall-clock."""
    hb = HyperButterfly(5, 8)
    assert hb.num_nodes == 65536
    diameter = benchmark.pedantic(
        lambda: exact_diameter(hb), rounds=1, iterations=1
    )
    elapsed = benchmark.stats.stats.mean
    assert diameter == hb.diameter_formula()
    emit(
        "E7: HB(5,8) exact diameter at 65536 nodes",
        f"diameter {diameter} in {elapsed:.3f} s (budget: 60 s)",
    )
    assert elapsed < 60.0


def test_batched_all_eccentricities_hb23(benchmark, hb23):
    """Generic (non-transitive path) all-source eccentricities, batched."""
    from repro.fastgraph.parallel import parallel_sweep

    fg = get_fastgraph(hb23)
    ecc = benchmark.pedantic(
        lambda: parallel_sweep(fg.csr, name=hb23.name).eccentricities,
        rounds=1,
        iterations=1,
    )
    assert int(ecc.max()) == hb23.diameter_formula()
