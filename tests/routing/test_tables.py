"""Routing-table tests (VLSI-oriented, built on vertex transitivity).

A router indexes a table instead of running an algorithm per packet.
Vertex transitivity makes that table node-independent: one map from the
translation ``δ = u⁻¹·v`` to the first generator of a shortest path serves
every source, so one shared ROM of ``N - 1`` entries routes the whole
machine.  The oracle's identity-rooted word tables already hold that map:

* the *full* table is the first generator of every word in
  ``hb.oracle.lifted_word_tables()``;
* the *split* table (Remark 8) is the butterfly factor's
  ``word_table()[0][:, 0]`` (``n·2^n - 1`` entries), with stateless
  ascending e-cube routing for the hypercube part.

:class:`NextHopTable` follows either table greedily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.hyperbutterfly import HBNode, HyperButterfly
from repro.fastgraph.codecs import codec_for
from repro.routing.base import validate_path


def _first_column(words: np.ndarray) -> np.ndarray:
    """Each word's first generator index; ``-1`` for the empty word."""
    if words.shape[1] == 0:
        return np.full(len(words), -1, dtype=words.dtype)
    return words[:, 0]


@dataclass(frozen=True)
class NextHopTable:
    """A shared next-generator table by codec rank (``-1``: no entry)."""

    hb: HyperButterfly
    kind: str  # "full" | "split"
    entries: np.ndarray

    @classmethod
    def full(cls, hb: HyperButterfly) -> "NextHopTable":
        left_words, left_dist, right_words, _ = hb.oracle.lifted_word_tables()
        # HB ranks are cube-major; a word starts in the cube part unless
        # the cube part of the translation is the identity
        entries = np.where(
            left_dist[:, None] > 0,
            _first_column(left_words)[:, None],
            _first_column(right_words)[None, :],
        ).ravel()
        return cls(hb, "full", entries)

    @classmethod
    def split(cls, hb: HyperButterfly) -> "NextHopTable":
        words, _ = hb.butterfly.oracle.word_table()
        return cls(hb, "split", _first_column(words))

    @property
    def num_entries(self) -> int:
        return int(np.count_nonzero(self.entries >= 0))

    def next_hop(self, source: HBNode, target: HBNode) -> HBNode | None:
        """The table-driven next hop (``None`` when already delivered)."""
        hb = self.hb
        if source == target:
            return None
        if self.kind == "full":
            delta = codec_for(hb).rank(hb.group.quotient(source, target))
            return hb.gens.apply(source, int(self.entries[delta]))
        (h1, b1), (h2, b2) = source, target
        if h1 != h2:
            diff = h1 ^ h2
            return (h1 ^ (diff & -diff), b1)
        delta = codec_for(hb.butterfly).rank(hb.fly_group.quotient(b1, b2))
        # butterfly generators sit after the m hypercube generators
        return hb.gens.apply(source, hb.m + int(self.entries[delta]))

    def route(self, source: HBNode, target: HBNode) -> list[HBNode]:
        path = [source]
        while path[-1] != target:
            assert len(path) <= self.hb.diameter_formula(), "route too long"
            path.append(self.next_hop(path[-1], target))
        return path


class TestFullTable:
    @pytest.fixture(scope="class")
    def table(self):
        return NextHopTable.full(HyperButterfly(1, 3))

    def test_entry_count_is_node_count_minus_one(self, table):
        assert table.num_entries == table.hb.num_nodes - 1

    def test_all_pairs_optimal(self, table):
        """One shared table routes every pair optimally."""
        hb = table.hb
        nodes = list(hb.nodes())
        for u in nodes[::3]:
            for v in nodes[::5]:
                path = table.route(u, v)
                validate_path(hb, path, source=u, target=v)
                assert len(path) - 1 == hb.distance(u, v)

    def test_trivial_route(self, table):
        u = table.hb.identity_node()
        assert table.route(u, u) == [u]
        assert table.next_hop(u, u) is None


class TestSplitTable:
    @pytest.fixture(scope="class")
    def table(self):
        return NextHopTable.split(HyperButterfly(2, 3))

    def test_rom_saving(self, table):
        """The split table only stores the butterfly factor."""
        hb = table.hb
        assert table.num_entries == hb.n * 2**hb.n - 1
        full = NextHopTable.full(hb)
        assert full.num_entries == hb.num_nodes - 1
        assert table.num_entries < full.num_entries

    def test_all_pairs_optimal(self, table, rng):
        hb = table.hb
        nodes = list(hb.nodes())
        for _ in range(80):
            u, v = rng.sample(nodes, 2)
            path = table.route(u, v)
            validate_path(hb, path, source=u, target=v)
            assert len(path) - 1 == hb.distance(u, v)

    def test_cube_part_first(self, table):
        u, v = (0, (0, 0)), (3, (1, 0b001))
        hop = table.next_hop(u, v)
        assert hop == (1, u[1])  # lowest differing cube bit, fly part untouched


class TestAgreement:
    def test_full_and_split_same_lengths(self, rng):
        hb = HyperButterfly(1, 4)
        full = NextHopTable.full(hb)
        split = NextHopTable.split(hb)
        nodes = list(hb.nodes())
        for _ in range(60):
            u, v = rng.sample(nodes, 2)
            assert len(full.route(u, v)) == len(split.route(u, v))

    def test_full_table_is_first_generator_of_oracle_word(self):
        hb = HyperButterfly(1, 3)
        full = NextHopTable.full(hb)
        codec = codec_for(hb)
        for delta in hb.nodes():
            word = hb.oracle.generator_word(delta)
            assert full.entries[codec.rank(delta)] == (word[0] if word else -1)
