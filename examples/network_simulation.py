#!/usr/bin/env python
"""Dynamic comparison: HB vs HD under simulated traffic (experiment E9).

The paper's comparison (Figure 2) is static.  This example loads both
families into the discrete-event store-and-forward simulator at a matched
node budget and measures delivered latency under uniform random traffic
and a permutation workload, each using the family's own oblivious routing
scheme (Section 3 for HB; e-cube + de Bruijn shift-in for HD).

Run:  python examples/network_simulation.py
"""

from repro import HyperButterfly, HyperDeBruijn
from repro.fastgraph import codec_for
from repro.simulation import (
    HBObliviousProtocol,
    HDObliviousProtocol,
    NetworkSimulator,
    build_workload,
)


def traffic(topology, family: str, count: int, seed: int) -> list:
    """A rank workload from the zoo, unranked to the simulator's labels."""
    matrix = build_workload(topology, family, count=count, seed=seed)
    return matrix.pairs(codec_for(topology))


def run(topology, protocol, pairs, label: str) -> None:
    sim = NetworkSimulator(topology, protocol)
    sim.inject_all(pairs)
    sim.run()
    stats = sim.stats()
    print(f"  {label:<22} {stats.summary()}")


def main() -> None:
    # HB(1,3) has 48 nodes; HD(2,4) has 64 — the closest small design points.
    hb = HyperButterfly(m=1, n=3)
    hd = HyperDeBruijn(m=2, n=4)
    print(f"{hb.name}: {hb.num_nodes} nodes, degree {hb.degree_formula}")
    print(f"{hd.name}: {hd.num_nodes} nodes, degree "
          f"{hd.min_degree()}..{hd.max_degree()}\n")

    print("uniform random traffic (200 packets):")
    run(hb, HBObliviousProtocol(hb), traffic(hb, "uniform", 200, 3), hb.name)
    run(hd, HDObliviousProtocol(hd), traffic(hd, "uniform", 200, 3), hd.name)

    print("\npermutation traffic (every node sends once):")
    for topo, proto in ((hb, HBObliviousProtocol(hb)), (hd, HDObliviousProtocol(hd))):
        run(topo, proto, traffic(topo, "permutation", topo.num_nodes, 5), topo.name)

    print("\nReading: HD's shift-in routing yields slightly shorter paths")
    print("(diameter m + n vs m + 3n/2), while HB's routing is exactly")
    print("optimal within its topology and the network stays regular —")
    print("the static trade-off of Figure 1, observed dynamically.")


if __name__ == "__main__":
    main()
