"""E2 — regenerate the paper's **Figure 2**: HB(3,8) vs HD(3,11) vs HD(6,8).

The full variant computes every numeric cell exactly at the paper's
16384-node scale: exact diameters (single-BFS eccentricity for the
vertex-transitive HB; batched boolean BFS over all sources for HD) and
sampled Menger witnesses for the fault-tolerance row.  The embedding rows
for HB are backed by live constructions (verified here for the flagship
instance).
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.compare import figure2_table, render_table
from repro.analysis.metrics import exact_diameter
from repro.embeddings.mesh_of_trees import hb_mesh_of_trees_embedding
from repro.embeddings.trees import hb_tree_embedding
from repro.topologies.hyperdebruijn import HyperDeBruijn


def test_figure2_full_table(benchmark):
    table = benchmark.pedantic(
        lambda: figure2_table(exact_diameters=True, connectivity_pairs=3),
        rounds=1,
        iterations=1,
    )
    emit(
        "E2: Figure 2 — exact 16384-node comparison",
        render_table(table),
    )
    # the paper's qualitative claims, now measured:
    assert table["HB(3,8)"]["Regular"].value == "yes"
    assert table["HD(3,11)"]["Regular"].value == "no"
    assert table["HB(3,8)"]["Diameter"].value == 15  # 3 + floor(24/2)
    assert table["HD(3,11)"]["Diameter"].value == 14  # 3 + 11
    assert table["HD(6,8)"]["Diameter"].value == 14  # 6 + 8
    assert table["HB(3,8)"]["Degree"].value == "7"
    assert table["HD(6,8)"]["Degree"].value == "8..10"


def test_figure2_hb_diameter_kernel(benchmark, hb38):
    """The vertex-transitive single-BFS diameter at 16k nodes."""
    diameter = benchmark.pedantic(
        lambda: exact_diameter(hb38), rounds=1, iterations=1
    )
    assert diameter == hb38.diameter_formula() == 15


def test_figure2_hd_diameter_kernel(benchmark):
    """The batched-BFS all-eccentricity diameter for the irregular HD."""
    hd = HyperDeBruijn(3, 11)
    diameter = benchmark.pedantic(
        lambda: exact_diameter(hd), rounds=1, iterations=1
    )
    assert diameter == 14


def test_figure2_embedding_rows_live(benchmark, hb38):
    """The HB(3,8) embedding cells are claims about *this* instance —
    rebuild and verify T(10) and MT(2,256) inside it."""

    def build_and_verify():
        tree = hb_tree_embedding(hb38)
        tree.verify()
        mot = hb_mesh_of_trees_embedding(hb38, 1, 8)
        mot.verify()
        return tree.guest.num_nodes, mot.guest.num_nodes

    tree_nodes, mot_nodes = benchmark.pedantic(
        build_and_verify, rounds=1, iterations=1
    )
    assert tree_nodes == 2**10 - 1
    assert mot_nodes == 3 * 2 * 256 - 2 - 256
