"""E9 — (ablation) dynamic traffic: HB vs HD in the simulator.

The paper's comparison is static; this bench loads matched instances into
the store-and-forward simulator and reproduces the Figure 1 trade-off
dynamically: HD's shorter diameter shows up as lower mean latency, HB's
regular optimal routing as tighter tail behaviour — while HB keeps its
fault-tolerance edge (E6).  Also measures the two leader-election
algorithms (the companion-paper extension).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro import HyperButterfly, HyperDeBruijn
from repro.fastgraph import codec_for
from repro.simulation import (
    HBObliviousProtocol,
    HDObliviousProtocol,
    NetworkSimulator,
    build_workload,
    flood_max_election,
    tree_based_election,
)


def _pairs(topology, family, count, seed):
    matrix = build_workload(topology, family, count=count, seed=seed)
    return matrix.pairs(codec_for(topology))


def _run(topology, protocol, pairs):
    sim = NetworkSimulator(topology, protocol)
    sim.inject_all(pairs)
    sim.run()
    return sim.stats()


@pytest.fixture(scope="module")
def traffic_rows() -> str:
    hb = HyperButterfly(2, 4)   # 256 nodes
    hd = HyperDeBruijn(3, 5)    # 256 nodes
    lines = ["network   workload      delivered  mean-lat  max-lat  makespan"]
    for label, topo, proto in [
        (hb.name, hb, HBObliviousProtocol(hb)),
        (hd.name, hd, HDObliviousProtocol(hd)),
    ]:
        for workload, pairs in [
            ("uniform", _pairs(topo, "uniform", 400, seed=7)),
            ("permutation", _pairs(topo, "permutation", topo.num_nodes, seed=7)),
        ]:
            stats = _run(topo, proto, pairs)
            lines.append(
                f"{label:9s} {workload:12s} {stats.delivered:9d} "
                f"{stats.mean_latency:9.2f} {stats.max_latency:8.1f} "
                f"{stats.makespan:9.1f}"
            )
    return "\n".join(lines)


def test_traffic_comparison_table(benchmark, traffic_rows):
    emit("E9: dynamic HB vs HD comparison (matched 256-node budget)", traffic_rows)
    hb = HyperButterfly(2, 4)
    pairs = _pairs(hb, "uniform", 200, seed=3)

    def run_sim():
        return _run(hb, HBObliviousProtocol(hb), pairs).delivered

    assert benchmark(run_sim) == 200


def test_everything_delivers(traffic_rows):
    for line in traffic_rows.splitlines()[1:]:
        delivered = int(line.split()[2])
        assert delivered in (400, 256)


def test_leader_election_comparison(benchmark):
    hb = HyperButterfly(2, 4)
    flood = flood_max_election(hb, seed=2)
    tree = tree_based_election(hb, hb.identity_node(), seed=2)
    emit(
        "E9b: leader election (companion-paper extension)",
        f"flood-max : {flood.messages:6d} messages, {flood.rounds} rounds\n"
        f"tree-based: {tree.messages:6d} messages, {tree.rounds} rounds",
    )
    assert flood.leader == tree.leader
    assert tree.messages < flood.messages

    benchmark(lambda: flood_max_election(hb, seed=2).leader)


def test_hd_simulation_kernel(benchmark):
    hd = HyperDeBruijn(3, 5)
    pairs = _pairs(hd, "uniform", 200, seed=3)

    def run_sim():
        return _run(hd, HDObliviousProtocol(hd), pairs).delivered

    assert benchmark(run_sim) == 200
