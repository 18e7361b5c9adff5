#!/usr/bin/env python
"""Quickstart: build a hyper-butterfly network and use its public API.

Covers the paper's core objects end to end on a laptop-sized instance:
construction (Definition 3), labels and generators (Remark 3), optimal
routing (Section 3), diameter (Theorem 3), disjoint paths (Theorem 5) and
fault-tolerant routing (Remark 10).

Run:  python examples/quickstart.py
"""

from repro import HBRouter, HyperButterfly, ResilientRouter, disjoint_paths

def main() -> None:
    # HB(2, 4): the product of a 2-cube and a wrapped butterfly B_4.
    hb = HyperButterfly(m=2, n=4)
    print(f"{hb.name}: {hb.num_nodes} nodes, {hb.num_edges} edges, "
          f"degree {hb.degree_formula}, diameter {hb.diameter_formula()}")

    # Every node has a two-part label: hypercube bits + butterfly symbols.
    u = hb.identity_node()
    v = (3, (2, 9))  # cube word 11, butterfly (PI=2, CI=1001)
    print(f"\nsource {hb.format_node(u)}   target {hb.format_node(v)}")

    # Optimal point-to-point routing (Section 3): hypercube part first,
    # then the butterfly part; the length equals the exact distance.
    router = HBRouter(hb)
    route = router.route(u, v)
    print(f"optimal route, {route.length} hops "
          f"(= distance {router.distance(u, v)}):")
    for node, gen in zip(route.path, route.generators + [""], strict=True):
        arrow = f"  --{gen}-->" if gen else ""
        print(f"  {hb.format_node(node)}{arrow}")

    # Theorem 5: m + 4 node-disjoint paths between any two nodes.
    family = disjoint_paths(hb, u, v)
    print(f"\n{len(family)} node-disjoint paths (Theorem 5), lengths "
          f"{sorted(len(p) - 1 for p in family)}")

    # Remark 10: with at most m + 3 faults, routing always succeeds.
    faults = [route.path[1], route.path[2]]  # break the optimal route
    detour = ResilientRouter(hb).route(u, v, node_faults=faults)
    print(f"with {len(faults)} faults on the optimal route, the disjoint-"
          f"path scheme still delivers in {len(detour) - 1} hops")

    # Exact diameter via one BFS (vertex transitivity, Remark 7).
    print(f"\nexact diameter {hb.diameter()} vs formula {hb.diameter_formula()}")


if __name__ == "__main__":
    main()
