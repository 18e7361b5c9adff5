"""Self-test of the benchmark at toy sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def toy_spec(name: str) -> suite.Spec:
    spec = suite.WORKLOADS[name]
    return suite.Spec(build=spec.toy, toy=spec.toy, item=spec.item)


def args(name: str, seed: int = 3) -> argparse.Namespace:
    return argparse.Namespace(workload=name, seed=seed, seconds=0.0, trace=0)


@pytest.fixture(autouse=True)
def trace_dir(monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    """Traced runs write their spans to a temp dir."""
    monkeypatch.setattr(run, "OUT", tmp_path)


def test_benchmark_json_lists_every_workload_and_metric() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    expected = {name: (unit, better) for name, (unit, better, _) in layers.METRICS.items()}
    expected["trace.throughput"] = ("items/s", "higher")
    expected["trace.overhead_ratio"] = ("ratio", "lower")
    assert per_layer == expected


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name: str) -> None:
    metrics, _, outcome, extra = run.untraced(args(name), toy_spec(name))
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == end_to_end
    assert metrics["success_ratio"][0] == 1.0 and not outcome.failed
    assert extra["samples"]["latency"] >= run.MIN_OPS

    metrics, _, outcome, _ = run.traced(args(name), toy_spec(name))
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == per_layer
    assert not outcome.failed


def test_layers_a_workload_does_not_reach_read_zero() -> None:
    metrics, _, _, _ = run.traced(args("traffic-uniform"), toy_spec("traffic-uniform"))
    assert metrics["flow.routes_block.ms_p50"][0] > 0
    for name in ("resilient.route_ex.ms_p50", "implicit.masked_bfs.ms_p50",
                 "codecs.neighbors_block.ns_per_arc", "resilient.corner.ms"):
        assert metrics[name][0] == 0.0


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_self_times_are_within_parent_time(name: str) -> None:
    _, _, _, extra = run.traced(args(name), toy_spec(name))
    spans = json.loads(Path(extra["trace_file"]).read_text())["spans"]
    assert spans
    for span in spans:
        duration = span["end"] - span["start"]
        assert 0.0 <= span["self"] <= duration + 1e-9
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert span["self"] <= parent["end"] - parent["start"]


def test_host_speed_scales_each_interval_by_the_marks_around_it() -> None:
    host = run.HostSpeed()
    host.marks = [0.02] * 4 + [0.5] + [0.02] * 4  # one slow mark
    assert host.scales() == [run.REFERENCE_S / 0.02] * 8
    host.marks = [0.01] * 5 + [0.02] * 10  # the host slows to half speed
    scales = host.scales()
    assert scales[0] == run.REFERENCE_S / 0.01 and scales[-1] == run.REFERENCE_S / 0.02
    assert host.mark() > 0 and len(host.scales()) == len(host.marks) - 1


def _corrupt(out):
    """Damage one operation output so its invariant check must fail."""
    if isinstance(out, tuple):  # traffic: one flow reported undelivered
        out[1].delivered_at[0] = -1
        return out
    if hasattr(out, "path"):  # fault routing: route ends somewhere else
        return dataclasses.replace(out, path=out.path[:-1])
    return dataclasses.replace(out, diameter=1)  # diameter probe: eccentricity too short


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_corrupted_output_lowers_success_ratio(name: str, monkeypatch: pytest.MonkeyPatch) -> None:
    spec = toy_spec(name)
    workload = spec.build(3)
    honest = workload.run_op

    def corrupted(state, i, tracer=None):
        out = honest(state, i, tracer)
        return _corrupt(out) if i == 0 else out

    monkeypatch.setattr(workload, "run_op", corrupted)
    spec = suite.Spec(build=lambda seed: workload, toy=spec.toy, item=spec.item)
    metrics, _, outcome, _ = run.untraced(args(name), spec)
    assert outcome.failed
    assert metrics["success_ratio"][0] < 1.0


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name: str) -> None:
    first, counts_a, _, _ = run.traced(args(name, seed=5), toy_spec(name))
    second, counts_b, _, _ = run.traced(args(name, seed=5), toy_spec(name))
    assert counts_a["counters"] == counts_b["counters"]
    for metric in BENCHMARK["per_layer"]:
        if metric["unit"] == "count":
            assert first[metric["name"]] == second[metric["name"]]
