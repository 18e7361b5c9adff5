"""Deterministic counts of the repo benchmark — a noise-free CI gate.

Runs every ``perfbench`` workload once, traced, for one second, and prints
the ``count``-unit per-layer metrics (BFS levels, arcs, flow ticks, route
hops, ...) as sorted JSON.  These depend only on the seed and the program,
never on the host, so CI diffs them against the committed
``.github/perfbench_counts.json``; timings stay advisory.  Run from the
repo root::

    python benchmarks/perfbench_counts.py [--seed 1] > counts.json
    diff counts.json .github/perfbench_counts.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("traffic-uniform", "traffic-hotspot", "fault-diameter", "fault-routing")


def workload_counts(workload: str, seed: int) -> dict[str, float]:
    """The ``count``-unit metrics of one one-second traced run."""
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", "1",
        ],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count"
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    counts = {w: workload_counts(w, args.seed) for w in WORKLOADS}
    report = {"seed": args.seed, "counts": counts}
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
