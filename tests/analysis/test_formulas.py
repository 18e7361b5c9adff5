"""Formula-vs-exact cross-checks: the heart of experiment E1."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.analysis.formulas import (
    butterfly_formulas,
    hyperbutterfly_formulas,
    hypercube_formulas,
    hyperdebruijn_formulas,
)
from repro.core.hyperbutterfly import HyperButterfly
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn


@pytest.mark.parametrize(("m", "n"), [(1, 3), (2, 3), (1, 4)])
class TestFormulasMatchExplicitGraphs:
    def test_hypercube_column(self, m, n):
        f = hypercube_formulas(m, n)
        h = Hypercube(m + n)
        assert f.nodes == h.num_nodes
        assert f.edges == h.num_edges
        assert f.diameter == h.diameter()
        assert (f.degree_min, f.degree_max) == h.degree_stats()

    def test_butterfly_column(self, m, n):
        f = butterfly_formulas(m, n)
        b = CayleyButterfly(m + n)
        assert f.nodes == b.num_nodes
        assert f.edges == b.num_edges
        assert f.diameter == b.diameter()
        assert f.regular and b.is_regular()

    def test_hyperdebruijn_column(self, m, n):
        f = hyperdebruijn_formulas(m, n)
        hd = HyperDeBruijn(m, n)
        assert f.nodes == hd.num_nodes
        assert (f.degree_min, f.degree_max) == hd.degree_stats()
        assert f.diameter == nx.diameter(hd.to_networkx())
        assert not f.regular and not hd.is_regular()

    def test_hyperbutterfly_column(self, m, n):
        f = hyperbutterfly_formulas(m, n)
        hb = HyperButterfly(m, n)
        assert f.nodes == hb.num_nodes
        assert f.edges == hb.num_edges
        assert f.diameter == hb.diameter()
        assert f.fault_tolerance == hb.m + 4


class TestFigure1Orderings:
    """The qualitative Figure 1 story must hold for any valid (m, n)."""

    @pytest.mark.parametrize(("m", "n"), [(2, 3), (3, 8), (5, 6)])
    def test_hb_beats_hd_fault_tolerance(self, m, n):
        assert (
            hyperbutterfly_formulas(m, n).fault_tolerance
            > hyperdebruijn_formulas(m, n).fault_tolerance
        )

    @pytest.mark.parametrize(("m", "n"), [(2, 3), (3, 8)])
    def test_hd_beats_hb_diameter(self, m, n):
        assert (
            hyperdebruijn_formulas(m, n).diameter
            <= hyperbutterfly_formulas(m, n).diameter
        )

    def test_only_hd_is_irregular(self):
        for f in (
            hypercube_formulas(2, 3),
            butterfly_formulas(2, 3),
            hyperbutterfly_formulas(2, 3),
        ):
            assert f.regular
        assert not hyperdebruijn_formulas(2, 3).regular

    def test_hb_is_maximally_fault_tolerant_by_formula(self):
        f = hyperbutterfly_formulas(3, 8)
        assert f.fault_tolerance == f.degree_min == f.degree_max
