"""Emit machine-readable fast-backend timings to ``BENCH_fastgraph.json``.

Run from the repo root (the root on the path imports the reference BFS
from ``tests/topologies/_reference_bfs.py``)::

    PYTHONPATH=src:. python benchmarks/fastgraph_timings.py [output.json]

For each instance the script measures, wall-clock:

* ``csr_build_s`` — one-time CSR adjacency construction (vectorized codec);
* ``fast_bfs_s`` — one single-source BFS on the CSR backend (the
  vertex-transitive exact-diameter kernel);
* ``python_bfs_s`` — the seed's per-source dict BFS on labels (skipped
  above a node budget where it would take minutes);
* ``oracle_fast_s`` / ``oracle_python_s`` — full identity-rooted
  DistanceOracle fills (the E4 routing substrate) and the seed's dict
  fill;
* the exact diameter found (cross-checked against the closed form).

The JSON is tracked across PRs so the perf trajectory is visible: the
acceptance bar of this subsystem's PR was ≥10× on the ``HB(3,8)``
single-BFS diameter and an exact ≥65k-node diameter under 60 s.
"""

from __future__ import annotations

import json
import platform
import sys
import time


def _clock(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_instance(topology, *, python_bfs_budget: int = 200_000) -> dict:
    from repro.cayley.graph import DistanceOracle
    from repro.fastgraph import get_fastgraph
    from tests.topologies._reference_bfs import bfs_distances, oracle_fill

    anchor = next(iter(topology.nodes()))
    fast = get_fastgraph(topology)
    _, build_s = _clock(lambda: fast.csr)
    diameter, fast_bfs_s = _clock(lambda: fast.eccentricity(anchor))

    entry: dict = {
        "instance": topology.name,
        "nodes": topology.num_nodes,
        "edges": topology.num_edges,
        "diameter": int(diameter),
        "csr_build_s": round(build_s, 6),
        "fast_bfs_s": round(fast_bfs_s, 6),
    }
    if hasattr(topology, "diameter_formula"):
        assert diameter == topology.diameter_formula(), topology.name

    if topology.num_nodes <= python_bfs_budget:
        dist, python_bfs_s = _clock(
            lambda: bfs_distances(topology, anchor)
        )
        assert max(dist.values()) == diameter
        entry["python_bfs_s"] = round(python_bfs_s, 6)
        entry["bfs_speedup"] = round(python_bfs_s / (build_s + fast_bfs_s), 2)

    if hasattr(topology, "group"):
        _, oracle_fast_s = _clock(lambda: DistanceOracle(topology.group, topology.gens))
        entry["oracle_fast_s"] = round(oracle_fast_s, 6)
        if topology.num_nodes <= python_bfs_budget:
            _, oracle_python_s = _clock(
                lambda: oracle_fill(topology.group, topology.gens)
            )
            entry["oracle_python_s"] = round(oracle_python_s, 6)
            entry["oracle_speedup"] = round(oracle_python_s / oracle_fast_s, 2)
    return entry


def main(out_path: str = "BENCH_fastgraph.json") -> dict:
    from repro import __version__
    from repro.core.hyperbutterfly import HyperButterfly
    from repro.topologies.butterfly_cayley import CayleyButterfly

    instances = [
        CayleyButterfly(8),  # 2048 nodes
        HyperButterfly(2, 6),  # 1536 nodes
        HyperButterfly(3, 8),  # 16384 nodes — the Figure 2 flagship
        HyperButterfly(4, 8),  # 32768 nodes
        HyperButterfly(5, 8),  # 65536 nodes — beyond the seed's practical cap
        HyperButterfly(4, 9),  # 73728 nodes
    ]
    report = {
        "generated_by": "benchmarks/fastgraph_timings.py",
        "repro_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "entries": [bench_instance(t) for t in instances],
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for entry in report["entries"]:
        speedup = entry.get("bfs_speedup")
        print(
            f"{entry['instance']:>10s}  {entry['nodes']:>7d} nodes  "
            f"build {entry['csr_build_s']*1e3:8.1f} ms  "
            f"bfs {entry['fast_bfs_s']*1e3:8.1f} ms  "
            + (f"python bfs {entry['python_bfs_s']:8.3f} s  x{speedup}"
               if speedup is not None else "(python bfs skipped)")
        )
    print(f"wrote {out_path}")
    return report


if __name__ == "__main__":
    main(*sys.argv[1:])
