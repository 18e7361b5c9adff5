"""E14 — implicit-adjacency BFS vs CSR vs pure python, time and peak RSS.

Emits ``BENCH_implicit.json``.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_implicit.py [output.json] [--quick]

Two measurement campaigns, each data point in its **own subprocess** so
peak RSS (``getrusage.ru_maxrss``) is attributable to exactly one
(instance, backend) pair:

* **backend grid** — single-source eccentricity + distance histogram on a
  grid of ``HB`` / ``HD`` / hypercube / butterfly instances, per backend
  (``implicit``, ``csr``, and, where the instance is small enough,
  ``python``: the seed's label BFS, kept as the test reference in
  ``tests/topologies/_reference_bfs.py``).  The per-source results are
  asserted identical across backends before any timing is reported.
* **flagship** (full mode) — the same per-source exact question on
  ``HB(9,11)`` (11,534,336 nodes, degree 13), where only the implicit
  substrate answers inside the memory budget: both children get the same
  allocation headroom above the interpreter baseline (``RLIMIT_AS``);
  the implicit BFS completes, the CSR build dies with ``MemoryError``
  before its first frontier — the ``O(edges)`` table alone exceeds the
  budget.  This is the acceptance evidence for the backend: exact
  per-source sweeps past 10M nodes without materializing a CSR.

``--quick`` keeps everything under a few seconds for CI smoke: a reduced
grid, no flagship.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

#: flagship instance — 11,534,336 nodes, past the 10M-node bar
FLAGSHIP = ("hb", 9, 11)
#: allocation headroom (bytes) granted to each flagship child beyond the
#: interpreter baseline; holds the implicit sweep, not the CSR table
FLAGSHIP_BUDGET = 1 << 30
#: gather slice for the flagship children — bounds the slice × degree
#: scratch buffer well inside the budget
FLAGSHIP_SLICE = 1 << 19

#: (family, m, n, python_too): grid instances, ~3k-65k nodes
GRID = [
    ("hb", 3, 6, True),  # 3,072 nodes
    ("hd", 4, 8, True),  # 4,096 nodes
    ("hypercube", 12, None, True),  # 4,096 nodes
    ("butterfly", 8, None, True),  # 2,048 nodes
    ("hb", 5, 8, False),  # 65,536 nodes — python would dominate the bench
]
QUICK_GRID = [
    ("hb", 2, 4, True),  # 256 nodes
    ("hd", 2, 4, True),  # 64 nodes
    ("hypercube", 8, None, True),  # 256 nodes
    ("butterfly", 5, None, True),  # 160 nodes
]


def _build(family: str, m: int, n: int | None):
    if family == "hb":
        from repro.core.hyperbutterfly import HyperButterfly

        return HyperButterfly(m, n)
    if family == "hd":
        from repro.topologies.hyperdebruijn import HyperDeBruijn

        return HyperDeBruijn(m, n)
    if family == "hypercube":
        from repro.topologies.hypercube import Hypercube

        return Hypercube(m)
    if family == "butterfly":
        from repro.topologies.butterfly_cayley import CayleyButterfly

        return CayleyButterfly(m)
    raise ValueError(f"unknown family {family!r}")


def _cap_address_space(headroom_bytes: int) -> None:
    """Cap RLIMIT_AS at current VmSize + headroom (set after imports, so
    the budget measures *algorithm* allocations, not interpreter baseline)."""
    import resource

    vm_size = 0
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmSize:"):
                vm_size = int(line.split()[1]) * 1024
                break
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (vm_size + headroom_bytes, hard))


def _child(argv: list[str]) -> int:
    """Measurement body: one (instance, backend) pair, JSON on stdout."""
    import resource

    family, m, n, backend = argv[0], int(argv[1]), argv[2], argv[3]
    budget = int(argv[4]) if len(argv) > 4 else 0
    topology = _build(family, m, None if n == "-" else int(n))
    source = next(iter(topology.nodes()))
    if budget:
        _cap_address_space(budget)
    started = time.perf_counter()
    try:
        if backend == "python":
            from tests.topologies._reference_bfs import bfs_distances

            dist = bfs_distances(topology, source)
            histogram: dict[int, int] = {}
            for d in dist.values():
                histogram[d] = histogram.get(d, 0) + 1
            ecc = max(dist.values())
        else:
            from repro.fastgraph.backend import get_fastgraph

            fast = get_fastgraph(topology)
            ecc = fast.eccentricity(source, backend=backend)
            histogram = fast.source_histogram(source, backend=backend)
        payload = {
            "ok": True,
            "eccentricity": ecc,
            "histogram": {str(d): c for d, c in sorted(histogram.items())},
        }
    except MemoryError:
        payload = {"ok": False, "error": "MemoryError"}
    payload["seconds"] = round(time.perf_counter() - started, 4)
    payload["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(payload, sort_keys=True))
    return 0


def _run_child(
    family: str,
    m: int,
    n: int | None,
    backend: str,
    *,
    budget: int = 0,
    slice_nodes: int | None = None,
) -> dict:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # src for the package, the root for the reference BFS under tests/
    env["PYTHONPATH"] = os.pathsep.join(
        (os.path.join(root, "src"), root, env.get("PYTHONPATH", ""))
    )
    if slice_nodes is not None:
        env["REPRO_IMPLICIT_SLICE"] = str(slice_nodes)
    argv = [
        sys.executable,
        os.path.abspath(__file__),
        "--measure",
        family,
        str(m),
        "-" if n is None else str(n),
        backend,
        str(budget),
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {family}({m},{n}) backend={backend} failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def bench_grid(grid: list[tuple]) -> list[dict]:
    """Per-backend time/RSS rows; per-source results pinned identical."""
    rows = []
    for family, m, n, python_too in grid:
        topology = _build(family, m, n)
        backends = ["implicit", "csr"] + (["python"] if python_too else [])
        runs = {b: _run_child(family, m, n, b) for b in backends}
        reference = runs["implicit"]
        assert reference["ok"], (family, m, n)
        for backend, run in runs.items():
            assert run["ok"], (family, m, n, backend)
            assert run["eccentricity"] == reference["eccentricity"], backend
            assert run["histogram"] == reference["histogram"], backend
        rows.append(
            {
                "instance": topology.name,
                "nodes": topology.num_nodes,
                "eccentricity": reference["eccentricity"],
                "identical_across_backends": True,
                "backends": {
                    backend: {
                        "seconds": run["seconds"],
                        "peak_rss_kib": run["peak_rss_kib"],
                    }
                    for backend, run in runs.items()
                },
            }
        )
        print(
            f"{topology.name:>10s}  {topology.num_nodes:>8d} nodes  "
            + "  ".join(
                f"{b} {runs[b]['seconds']:8.3f}s/{runs[b]['peak_rss_kib'] // 1024:5d}MiB"
                for b in backends
            )
        )
    return rows


def bench_flagship() -> dict:
    """HB(9,11) per-source exactness inside a budget CSR cannot meet."""
    family, m, n = FLAGSHIP
    topology = _build(family, m, n)
    implicit = _run_child(
        family, m, n, "implicit", budget=FLAGSHIP_BUDGET, slice_nodes=FLAGSHIP_SLICE
    )
    assert implicit["ok"], "implicit flagship run must fit the budget"
    csr = _run_child(
        family, m, n, "csr", budget=FLAGSHIP_BUDGET, slice_nodes=FLAGSHIP_SLICE
    )
    assert not csr["ok"] and csr["error"] == "MemoryError", (
        "CSR build unexpectedly fit the flagship budget"
    )
    entry = {
        "instance": topology.name,
        "nodes": topology.num_nodes,
        "degree": topology.degree(next(iter(topology.nodes()))),
        "memory_budget_bytes": FLAGSHIP_BUDGET,
        "implicit": {
            "ok": True,
            "eccentricity": implicit["eccentricity"],
            "distance_histogram": implicit["histogram"],
            "seconds": implicit["seconds"],
            "peak_rss_kib": implicit["peak_rss_kib"],
        },
        "csr": {
            "ok": False,
            "error": csr["error"],
            "seconds": csr["seconds"],
            "peak_rss_kib": csr["peak_rss_kib"],
        },
    }
    reached = sum(int(c) for c in implicit["histogram"].values())
    assert reached == topology.num_nodes, "flagship BFS must reach every node"
    print(
        f"{topology.name}: {topology.num_nodes} nodes — implicit ecc "
        f"{implicit['eccentricity']} in {implicit['seconds']:.1f}s / "
        f"{implicit['peak_rss_kib'] // 1024}MiB; CSR under the same "
        f"{FLAGSHIP_BUDGET >> 20}MiB budget: {csr['error']}"
    )
    return entry


def main(out_path: str = "BENCH_implicit.json", *flags: str) -> dict:
    from repro import __version__

    quick = "--quick" in flags
    report: dict = {
        "generated_by": "benchmarks/bench_implicit.py",
        "repro_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "mode": "quick" if quick else "full",
        "backend_grid": bench_grid(QUICK_GRID if quick else GRID),
    }
    if not quick:
        report["flagship"] = bench_flagship()
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")
    return report


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--measure":
        sys.exit(_child(sys.argv[2:]))
    main(*sys.argv[1:])
