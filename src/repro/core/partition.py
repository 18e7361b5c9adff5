"""Partitionability and incremental scalability of ``HB(m, n)``.

The paper's title and introduction advertise the family as *scalable* and
*partitionable* (inherited from the hyper-deBruijn design goals of [1]).
This module makes both properties executable:

* **Partitionability** (Remark 5 generalised): fixing any subset of
  hypercube bits splits ``HB(m, n)`` into ``2^j`` vertex-disjoint induced
  copies of ``HB(m-j, n)``; fixing the butterfly part instead yields
  ``n·2^n`` copies of ``H_m``.  Both decompositions come with explicit
  node maps so a workload scheduler can allocate sub-machines.

* **Incremental scalability**: ``HB(m, n)`` is an induced subgraph of
  ``HB(m+1, n)`` (embed with hypercube bit ``m`` = 0), so a machine grows
  by doubling without relabelling; :func:`expansion_embedding` returns the
  witness embedding.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.hyperbutterfly import HBNode, HyperButterfly
from repro.embeddings.base import Embedding
from repro.errors import InvalidParameterError

__all__ = [
    "SubHBPartition",
    "partition_by_cube_bits",
    "partition_member",
    "expansion_embedding",
    "contraction_words",
]


class SubHBPartition:
    """One block of the cube-bit partition: an induced ``HB(m-j, n)`` copy.

    ``fixed_bits`` maps bit positions to their frozen values; the block
    contains exactly the nodes whose hypercube part agrees with them.
    ``project``/``lift`` translate between block-local labels (a node of
    the quotient ``HB(m-j, n)``) and host labels.
    """

    def __init__(self, host: HyperButterfly, fixed_bits: dict[int, int]) -> None:
        for pos, val in fixed_bits.items():
            if not 0 <= pos < host.m:
                raise InvalidParameterError(f"bit {pos} outside H_{host.m}")
            if val not in (0, 1):
                raise InvalidParameterError(f"bit value must be 0/1, got {val}")
        self.host = host
        self.fixed_bits = dict(sorted(fixed_bits.items()))
        self.free_positions = [
            i for i in range(host.m) if i not in self.fixed_bits
        ]
        self.sub = HyperButterfly(len(self.free_positions), host.n)

    @property
    def fixed_word(self) -> int:
        word = 0
        for pos, val in self.fixed_bits.items():
            word |= val << pos
        return word

    def contains(self, node: HBNode) -> bool:
        h = node[0]
        return all((h >> pos) & 1 == val for pos, val in self.fixed_bits.items())

    def lift(self, sub_node: HBNode) -> HBNode:
        """Block-local ``HB(m-j, n)`` label → host label."""
        self.sub.validate_node(sub_node)
        h_small, b = sub_node
        h = self.fixed_word
        for local, pos in enumerate(self.free_positions):
            h |= ((h_small >> local) & 1) << pos
        return (h, b)

    def project(self, node: HBNode) -> HBNode:
        """Host label → block-local label (node must lie in this block)."""
        self.host.validate_node(node)
        if not self.contains(node):
            raise InvalidParameterError(f"{node!r} is not in this partition block")
        h, b = node
        h_small = 0
        for local, pos in enumerate(self.free_positions):
            h_small |= ((h >> pos) & 1) << local
        return (h_small, b)

    def nodes(self) -> Iterator[HBNode]:
        for sub_node in self.sub.nodes():
            yield self.lift(sub_node)

    def as_embedding(self) -> Embedding:
        """The block as a verified subgraph embedding ``HB(m-j,n) → host``."""
        mapping = {v: self.lift(v) for v in self.sub.nodes()}
        return Embedding(guest=self.sub, host=self.host, mapping=mapping)

    def __repr__(self) -> str:
        bits = ", ".join(f"x_{p}={v}" for p, v in self.fixed_bits.items())
        return f"<SubHBPartition {self.sub.name} of {self.host.name} [{bits}]>"


def partition_by_cube_bits(
    hb: HyperButterfly, positions: list[int]
) -> list[SubHBPartition]:
    """Split ``HB(m, n)`` into ``2^j`` disjoint ``HB(m-j, n)`` blocks.

    ``positions`` are the hypercube bit positions to freeze (distinct).
    The blocks partition the node set; each is an induced copy (verified
    in tests via :meth:`SubHBPartition.as_embedding`).
    """
    if len(set(positions)) != len(positions):
        raise InvalidParameterError("positions must be distinct")
    if len(positions) > hb.m:
        raise InvalidParameterError(
            f"cannot freeze {len(positions)} of {hb.m} hypercube bits"
        )
    blocks = []
    for assignment in range(1 << len(positions)):
        fixed = {
            pos: (assignment >> i) & 1 for i, pos in enumerate(positions)
        }
        blocks.append(SubHBPartition(hb, fixed))
    return blocks


def partition_member(
    blocks: list[SubHBPartition], node: HBNode
) -> SubHBPartition:
    """The unique block containing ``node``."""
    for block in blocks:
        if block.contains(node):
            return block
    raise InvalidParameterError(f"{node!r} belongs to no block (invalid partition)")


def expansion_embedding(hb: HyperButterfly) -> Embedding:
    """``HB(m, n)`` as an induced subgraph of ``HB(m+1, n)``.

    The incremental-scalability witness: nodes map to themselves with the
    new top hypercube bit 0, so an installed machine keeps every label
    when it doubles.
    """
    bigger = HyperButterfly(hb.m + 1, hb.n)
    mapping = {v: v for v in hb.nodes()}
    return Embedding(guest=hb, host=bigger, mapping=mapping)


def contraction_words(hb: HyperButterfly, node: HBNode) -> tuple[int, int]:
    """Coordinates of ``node`` under the double decomposition of Remark 5.

    Returns ``(butterfly copy index, hypercube copy index)`` where the
    butterfly copy index is the hypercube part (one ``B_n`` copy per cube
    word) and the hypercube copy index enumerates the butterfly part
    (one ``H_m`` copy per butterfly node) — the bookkeeping a partitioned
    scheduler needs.
    """
    hb.validate_node(node)
    h, (x, c) = node
    return (h, x * (1 << hb.n) + c)
