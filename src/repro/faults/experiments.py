"""Fault-sweep experiment driver (experiment E6, Remark 10).

Sweeps the number of random node faults from 0 up past the guaranteed
tolerance and measures, per fault count over many trials:

* the fraction of (sampled) node pairs that remain connected;
* the success rate and path-length overhead of the paper's
  disjoint-path fault routing versus adaptive BFS rerouting.

The paper's claim has a sharp shape: for fewer than ``m + 4`` faults the
connected fraction is exactly 1.0 (Corollary 1); beyond it, disconnection
becomes possible but stays rare (random faults rarely isolate a node).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.hyperbutterfly import HyperButterfly
from repro.core.resilient import DegradedRouteError, ResilientRouter
from repro.faults.campaigns import healthy_pairs
from repro.faults.model import random_node_faults

__all__ = ["FaultSweepResult", "fault_sweep"]


@dataclass
class FaultSweepResult:
    """Aggregated outcome of one fault count in the sweep."""

    faults: int
    trials: int
    pairs_per_trial: int
    connected_pairs: int = 0
    total_pairs: int = 0
    disjoint_success: int = 0
    disjoint_total_length: int = 0
    adaptive_total_length: int = 0

    @property
    def connected_fraction(self) -> float:
        return self.connected_pairs / self.total_pairs if self.total_pairs else 1.0

    @property
    def disjoint_success_rate(self) -> float:
        return self.disjoint_success / self.total_pairs if self.total_pairs else 1.0

    @property
    def mean_overhead(self) -> float:
        """Mean length ratio disjoint-routing / adaptive over successes."""
        if not self.adaptive_total_length:
            return 1.0
        return self.disjoint_total_length / self.adaptive_total_length


def fault_sweep(
    hb: HyperButterfly,
    fault_counts: Sequence[int],
    *,
    trials: int = 5,
    pairs_per_trial: int = 10,
    seed: int = 0,
) -> list[FaultSweepResult]:
    """Run the E6 sweep; one :class:`FaultSweepResult` per fault count.

    A pair is connected when :meth:`ResilientRouter.route_ex` finds any
    route, and a disjoint success when that route is ``"disjoint"``; its
    overhead is measured against the shortest fault-avoiding path.
    """
    rng = random.Random(seed)
    router = ResilientRouter(hb)
    all_nodes = list(hb.nodes())
    results = []
    for count in fault_counts:
        res = FaultSweepResult(
            faults=count, trials=trials, pairs_per_trial=pairs_per_trial
        )
        for _ in range(trials):
            faults = random_node_faults(hb, count, rng=rng)
            for u, v in healthy_pairs(rng, all_nodes, faults, pairs_per_trial):
                res.total_pairs += 1
                try:
                    outcome = router.route_ex(u, v, node_faults=faults.nodes)
                except DegradedRouteError:
                    continue
                res.connected_pairs += 1
                if outcome.strategy == "disjoint":
                    adaptive = hb.bfs_shortest_path(u, v, blocked=faults.nodes)
                    assert adaptive is not None  # a fault-free route exists
                    res.disjoint_success += 1
                    res.disjoint_total_length += outcome.length
                    res.adaptive_total_length += len(adaptive) - 1
        results.append(res)
    return results
