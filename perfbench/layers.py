"""Per-layer metrics of a traced run, computed from its spans and counters.

:func:`wraps` lists the public functions and methods a traced pass times
from outside; the workloads in :mod:`suite` open the remaining spans
around the calls they make themselves.  A ``*.ms_p50`` metric is the
median over operations of the time the operation spent in that layer (0
when an operation no longer calls it), so a change that removes calls
still reports.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable

from spans import Tracer

MIB = float(1 << 20)

#: span names whose mean self time per call is reported as ``self_ms.<name>``
SELF_TIME_SPANS = (
    "traffic.op",
    "flow.routes_block",
    "cayley.word_table",
    "codecs.inverse_block",
    "codecs.multiply_block",
    "flow.engine_init",
    "flow.engine_run",
    "flow.tick",
    "flow.stats",
    "stats.from_arrays",
    "fault_diameter.op",
    "structures.structure_fault_diameter",
    "fastgraph.masked_source_stats",
    "fault_routing.op",
    "resilient.route_ex",
    "disjoint_paths.family",
    "flows.node_to_set",
)


def wraps() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped library call."""
    from importlib import import_module

    from repro.cayley.graph import DistanceOracle
    from repro.fastgraph.backend import FastGraph
    from repro.fastgraph.codecs import ProductCodec
    from repro.simulation.stats import LatencyStats

    # by module path: repro.core re-exports functions under the module names
    resilient = import_module("repro.core.resilient")
    disjoint_paths = import_module("repro.core.disjoint_paths")
    return [
        (DistanceOracle, "word_table", "cayley.word_table"),
        (ProductCodec, "inverse_block", "codecs.inverse_block"),
        (ProductCodec, "multiply_block", "codecs.multiply_block"),
        (LatencyStats, "from_arrays", "stats.from_arrays"),
        (FastGraph, "masked_source_stats", "fastgraph.masked_source_stats"),
        # looked up through the importing module's namespace
        (resilient, "disjoint_paths", "disjoint_paths.family"),
        (disjoint_paths, "node_to_set_disjoint_paths", "flows.node_to_set"),
    ]


class _View:
    """Span lookups grouped by the root span (operation) they ran under."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counters = tracer.counters
        spans = tracer.spans
        roots: list[int] = []
        for index, span in enumerate(spans):
            roots.append(index if span.parent < 0 else roots[span.parent])
        self._root_name = [spans[r].name for r in roots]
        self._in_root: dict[tuple[int, str], float] = {}
        for index, span in enumerate(spans):
            key = (roots[index], span.name)
            self._in_root[key] = self._in_root.get(key, 0.0) + span.duration
        self._roots = {
            name: [i for i, s in enumerate(spans) if s.parent < 0 and s.name == name]
            for name in {s.name for s in spans if s.parent < 0}
        }
        self._self: dict[str, float] = {}
        for span, own in zip(spans, tracer.self_times(), strict=True):
            self._self[span.name] = self._self.get(span.name, 0.0) + own

    def per_op(self, op: str, name: str) -> list[float]:
        """Seconds each ``op`` root spent in spans called ``name``."""
        return [self._in_root.get((r, name), 0.0) for r in self._roots.get(op, [])]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.tracer.named(name))

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.tracer.named(name)]

    def peak_mib(self, name: str, op: str | None = None) -> float:
        """Largest tracemalloc peak of a ``name`` span (under ``op`` roots only)."""
        peaks = [
            s.peak_bytes
            for s, root in zip(self.tracer.spans, self._root_name, strict=True)
            if s.name == name and op in (None, root)
        ]
        return max(peaks, default=0) / MIB

    def count(self, name: str) -> float:
        return self.counters.get(name, 0)

    def self_ms_per_call(self, name: str) -> float:
        calls = len(self.tracer.named(name))
        return self._self.get(name, 0.0) * 1e3 / calls if calls else 0.0


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _group_ops(v: _View) -> float:
    inverse = v.per_op("traffic.op", "codecs.inverse_block")
    multiply = v.per_op("traffic.op", "codecs.multiply_block")
    return _p50_ms([a + b for a, b in zip(inverse, multiply, strict=True)])


def _mask(v: _View) -> float:
    probe = v.per_op("fault_diameter.op", "structures.structure_fault_diameter")
    bfs = v.per_op("fault_diameter.op", "fastgraph.masked_source_stats")
    return _p50_ms([a - b for a, b in zip(probe, bfs, strict=True)])


#: metric name -> (unit, "lower"/"higher" is better, value from the view)
METRICS: dict[str, tuple[str, str, Callable[[_View], float]]] = {
    "workloads.build_workload.s": ("s", "lower", lambda v: v.total("workloads.build_workload")),
    "workloads.flows_per_s": (
        "flows/s", "higher",
        lambda v: _ratio(v.count("workloads.flows"), v.total("workloads.build_workload")),
    ),
    "cayley.oracle_fill.ms": ("ms", "lower", lambda v: v.total("cayley.oracle_fill") * 1e3),
    "cayley.word_table.ms_p50": (
        "ms", "lower", lambda v: _p50_ms(v.per_op("traffic.op", "cayley.word_table")),
    ),
    "codecs.group_ops.ms_p50": ("ms", "lower", _group_ops),
    "codecs.neighbors_block.ns_per_arc": (
        "ns", "lower",
        lambda v: _ratio(
            _p50_ms(v.durations("codecs.neighbors_block")) * 1e6,
            v.count("codecs.neighbors_block.arcs"),
        ),
    ),
    "flow.routes_block.ms_p50": (
        "ms", "lower", lambda v: _p50_ms(v.per_op("traffic.op", "flow.routes_block")),
    ),
    "flow.routes_block.share": (
        "ratio", "lower", lambda v: _ratio(v.total("flow.routes_block"), v.total("traffic.op")),
    ),
    "flow.route_hops": ("count", "lower", lambda v: v.count("flow.route_hops")),
    "flow.route_bytes": ("B", "lower", lambda v: v.count("flow.route_bytes")),
    "flow.routes_block.peak_mib": ("MiB", "lower", lambda v: v.peak_mib("flow.routes_block")),
    "flow.engine_init.ms_p50": (
        "ms", "lower", lambda v: _p50_ms(v.per_op("traffic.op", "flow.engine_init")),
    ),
    "flow.engine_run.ms_p50": (
        "ms", "lower", lambda v: _p50_ms(v.per_op("traffic.op", "flow.engine_run")),
    ),
    "flow.ticks": ("count", "lower", lambda v: v.count("flow.ticks")),
    "flow.hop_advances": ("count", "lower", lambda v: v.count("flow.hop_advances")),
    "flow.us_per_tick": (
        "us", "lower", lambda v: _ratio(v.total("flow.engine_run") * 1e6, v.count("flow.ticks")),
    ),
    "flow.ns_per_hop": (
        "ns", "lower",
        lambda v: _ratio(v.total("flow.engine_run") * 1e9, v.count("flow.hop_advances")),
    ),
    "flow.engine_run.peak_mib": ("MiB", "lower", lambda v: v.peak_mib("flow.engine_run")),
    "stats.from_arrays.ms_p50": (
        "ms", "lower", lambda v: _p50_ms(v.per_op("traffic.op", "stats.from_arrays")),
    ),
    "structures.structure_fault_diameter.ms_p50": (
        "ms", "lower",
        lambda v: _p50_ms(v.per_op("fault_diameter.op", "structures.structure_fault_diameter")),
    ),
    "structures.mask.ms_p50": ("ms", "lower", _mask),
    "implicit.masked_bfs.ms_p50": (
        "ms", "lower", lambda v: _p50_ms(v.durations("implicit.masked_bfs")),
    ),
    "implicit.nodes_per_s": (
        "nodes/s", "higher",
        lambda v: _ratio(v.count("implicit.reached"), v.total("implicit.masked_bfs")),
    ),
    "implicit.levels": ("count", "lower", lambda v: v.count("implicit.levels")),
    "implicit.arcs": ("count", "lower", lambda v: v.count("implicit.arcs")),
    "implicit.peak_mib": ("MiB", "lower", lambda v: v.peak_mib("implicit.masked_bfs")),
    "resilient.route_ex.ms_p50": (
        "ms", "lower", lambda v: _p50_ms(v.per_op("fault_routing.op", "resilient.route_ex")),
    ),
    "disjoint_paths.family.ms_p50": (
        "ms", "lower", lambda v: _p50_ms(v.per_op("fault_routing.op", "disjoint_paths.family")),
    ),
    "flows.node_to_set.share": (
        "ratio", "lower",
        lambda v: _ratio(
            sum(v.per_op("fault_routing.op", "flows.node_to_set")),
            sum(v.per_op("fault_routing.op", "resilient.route_ex")),
        ),
    ),
    "disjoint_paths.family.peak_mib": (
        "MiB", "lower", lambda v: v.peak_mib("disjoint_paths.family", "fault_routing.op"),
    ),
    "resilient.corner.ms": ("ms", "lower", lambda v: v.total("resilient.corner") * 1e3),
    "resilient.corner.peak_mib": ("MiB", "lower", lambda v: v.peak_mib("resilient.corner")),
    "disjoint_paths.case3_share": (
        "ratio", "lower",
        lambda v: _ratio(v.count("disjoint_paths.case3"), v.count("resilient.routes")),
    ),
    "resilient.disjoint_share": (
        "ratio", "higher",
        lambda v: _ratio(v.count("resilient.disjoint"), v.count("resilient.routes")),
    ),
    "resilient.stretch_mean": (
        "ratio", "lower",
        lambda v: _ratio(v.count("resilient.stretch_sum"), v.count("resilient.routes")),
    ),
}

for _name in SELF_TIME_SPANS:
    METRICS[f"self_ms.{_name}"] = (
        "ms", "lower",
        lambda v, name=_name: v.self_ms_per_call(name),
    )


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every metric of :data:`METRICS` as ``{"value", "unit"}``."""
    view = _View(tracer)
    return {
        name: {"value": float(fn(view)), "unit": unit}
        for name, (unit, _, fn) in METRICS.items()
    }
