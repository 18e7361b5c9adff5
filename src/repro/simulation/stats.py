"""Delivery statistics for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LatencyStats"]


@dataclass(frozen=True)
class LatencyStats:
    """Aggregate latency/delivery numbers for a set of packets."""

    injected: int
    delivered: int
    dropped: int
    mean_latency: float
    max_latency: float
    mean_hops: float
    makespan: float  # last delivery time
    retransmissions: int = 0  # reliable transport: total resends
    duplicates: int = 0  # reliable transport: suppressed duplicate arrivals

    @classmethod
    def from_packets(cls, packets: Sequence) -> "LatencyStats":
        delivered = [p for p in packets if p.delivered_at is not None]
        dropped = sum(1 for p in packets if p.dropped)
        latencies = [p.latency for p in delivered]
        hops = [p.hops for p in delivered]
        return cls(
            injected=len(packets),
            delivered=len(delivered),
            dropped=dropped,
            mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
            max_latency=max(latencies) if latencies else 0.0,
            mean_hops=sum(hops) / len(hops) if hops else 0.0,
            makespan=max((p.delivered_at for p in delivered), default=0.0),
            retransmissions=sum(getattr(p, "retransmissions", 0) for p in packets),
            duplicates=sum(getattr(p, "duplicates", 0) for p in packets),
        )

    @classmethod
    def from_arrays(
        cls,
        inject_at: Sequence,
        delivered_at: Sequence,
        hops: Sequence,
        *,
        dropped: int | None = None,
    ) -> "LatencyStats":
        """Bulk ingestion from per-flow arrays (the flow-engine path).

        ``delivered_at[i] < 0`` means flow ``i`` was not delivered.  Sums
        run in int64 — exact, hence bit-equal to :meth:`from_packets` on
        the same integer-tick outcomes.  ``dropped`` defaults to every
        undelivered flow; pass the true count when some are still in
        flight (e.g. a truncated run).
        """
        inject = np.asarray(inject_at, dtype=np.int64)
        done_at = np.asarray(delivered_at, dtype=np.int64)
        hop_arr = np.asarray(hops, dtype=np.int64)
        done = done_at >= 0
        count = int(done.sum())
        latencies = done_at[done] - inject[done]
        return cls(
            injected=len(inject),
            delivered=count,
            dropped=len(inject) - count if dropped is None else dropped,
            mean_latency=int(latencies.sum()) / count if count else 0.0,
            max_latency=float(latencies.max()) if count else 0.0,
            mean_hops=int(hop_arr[done].sum()) / count if count else 0.0,
            makespan=float(done_at[done].max()) if count else 0.0,
        )

    @classmethod
    def merge(cls, parts: Sequence["LatencyStats"]) -> "LatencyStats":
        """Combine per-shard stats as if their packets were one set.

        Counts add, extrema take the max, and the means recombine
        delivered-weighted — so ``merge([from_packets(a), from_packets(b)])
        == from_packets(a + b)`` and the empty sequence is the identity.
        """
        injected = sum(p.injected for p in parts)
        delivered = sum(p.delivered for p in parts)
        latency_total = sum(p.mean_latency * p.delivered for p in parts)
        hops_total = sum(p.mean_hops * p.delivered for p in parts)
        return cls(
            injected=injected,
            delivered=delivered,
            dropped=sum(p.dropped for p in parts),
            mean_latency=latency_total / delivered if delivered else 0.0,
            max_latency=max((p.max_latency for p in parts), default=0.0),
            mean_hops=hops_total / delivered if delivered else 0.0,
            makespan=max((p.makespan for p in parts), default=0.0),
            retransmissions=sum(p.retransmissions for p in parts),
            duplicates=sum(p.duplicates for p in parts),
        )

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.injected if self.injected else 1.0

    def summary(self) -> str:
        return (
            f"{self.delivered}/{self.injected} delivered "
            f"(drop {self.dropped}), mean latency {self.mean_latency:.2f}, "
            f"max {self.max_latency:.2f}, mean hops {self.mean_hops:.2f}, "
            f"makespan {self.makespan:.2f}"
        )
