#!/usr/bin/env python
"""Emulating a hypercube collective on the hyper-butterfly.

The paper's introduction motivates HB by its "ability to emulate most of
existing architectures".  This example emulates the canonical hypercube
collective — all-reduce by recursive doubling — on `HB(m, n)`:

* across the `m` hypercube dimensions the algorithm runs natively
  (HB contains `H_m` copies, Remark 5);
* across the butterfly factor we reduce/broadcast along the Lemma 3
  spanning structure (convergecast + broadcast on the BFS tree of each
  copy), the standard constant-factor emulation.

Every node starts with one value; at the end every node holds the global
sum, and we check the round count against the broadcast lower bound.

Run:  python examples/allreduce_emulation.py
"""

from repro import HyperButterfly
from repro.core.broadcast import broadcast_lower_bound, broadcast_tree


def hb_allreduce(hb: HyperButterfly, values: dict) -> tuple[dict, int]:
    """Sum-all-reduce; returns (final values, synchronous round count)."""
    state = dict(values)
    rounds = 0

    # Phase 1: recursive doubling over hypercube dimensions (m rounds).
    # After round i, partners across bit i have equal partial sums.
    for i in range(hb.m):
        next_state = {}
        for v in hb.nodes():
            partner = (v[0] ^ (1 << i), v[1])
            next_state[v] = state[v] + state[partner]
        state = next_state
        rounds += 1

    # Phase 2: convergecast + broadcast inside every butterfly copy,
    # all copies in parallel (tree depth rounds each way).
    fly_root = hb.butterfly.identity_node()
    parent = broadcast_tree(hb.butterfly, fly_root)
    children: dict = {}
    for child, p in parent.items():
        children.setdefault(p, []).append(child)

    def subtree_sum(copy_word: int, b) -> int:
        total = state[(copy_word, b)]
        for c in children.get(b, []):
            total += subtree_sum(copy_word, c)
        return total

    depth = hb.butterfly.eccentricity(fly_root)
    import sys

    sys.setrecursionlimit(10_000)
    for copy_word in range(1 << hb.m):
        total = subtree_sum(copy_word, fly_root)
        for b in hb.fly_group.elements():
            state[(copy_word, b)] = total
    rounds += 2 * depth  # convergecast up + broadcast down
    return state, rounds


def main() -> None:
    hb = HyperButterfly(m=2, n=3)
    values = {v: i for i, v in enumerate(hb.nodes())}
    expected = sum(values.values())

    state, rounds = hb_allreduce(hb, values)
    assert all(x == expected for x in state.values())

    lower = broadcast_lower_bound(hb)
    print(f"{hb.name}: all-reduce over {hb.num_nodes} nodes")
    print(f"  global sum          {expected} (agreed by every node)")
    print(f"  synchronous rounds  {rounds}")
    print(f"  broadcast lower bd  {lower}  (all-reduce needs >= that)")
    print(f"  ratio               {rounds / lower:.2f}x — the constant-factor")
    print("  hypercube-collective emulation the paper's intro advertises")


if __name__ == "__main__":
    main()
