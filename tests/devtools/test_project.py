"""Unit tests for the whole-program graph behind the HB4xx rules."""

from __future__ import annotations

from repro.devtools.reprolint.context import FileContext
from repro.devtools.reprolint.project import (
    LAYERS,
    ProjectGraph,
    layer_of,
    layer_title,
)


def _graph(sources: dict[str, str]) -> ProjectGraph:
    return ProjectGraph(
        [FileContext.from_source(path, text) for path, text in sources.items()]
    )


class TestLayers:
    def test_every_first_level_package_is_mapped(self):
        assert layer_of("repro.topologies.base") == 1
        assert layer_of("repro.fastgraph.csr") == 3
        assert layer_of("repro.cli") == 5
        assert layer_of("repro") == 5  # root facade
        assert layer_of("numpy.random") is None

    def test_dag_orientation(self):
        # foundations strictly below the structures built on them
        assert LAYERS["errors"] < LAYERS["topologies"] < LAYERS["core"]
        assert LAYERS["core"] < LAYERS["fastgraph"] < LAYERS["faults"]
        assert LAYERS["faults"] < LAYERS["cli"]

    def test_layer_titles_exist(self):
        for layer in sorted(set(LAYERS.values())):
            assert layer_title(layer)


class TestImportGraph:
    def test_eager_vs_deferred_vs_type_checking(self):
        graph = _graph(
            {
                "src/repro/a.py": "X = 1\n",
                "src/repro/b.py": (
                    "from typing import TYPE_CHECKING\n"
                    "import repro.a\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.c import Y\n"
                    "def f():\n"
                    "    from repro.c import Y\n"
                    "    return Y\n"
                ),
                "src/repro/c.py": "Y = 2\n",
            }
        )
        edges = {(e.src, e.dst, e.eager, e.type_checking) for e in graph.edges}
        assert ("repro.b", "repro.a", True, False) in edges
        assert ("repro.b", "repro.c", True, True) in edges
        assert ("repro.b", "repro.c", False, False) in edges
        eager = {(e.src, e.dst) for e in graph.eager_edges()}
        assert eager == {("repro.b", "repro.a")}

    def test_relative_import_resolution(self):
        graph = _graph(
            {
                "src/repro/pkg/__init__.py": "",
                "src/repro/pkg/a.py": "X = 1\n",
                "src/repro/pkg/b.py": "from .a import X\n",
            }
        )
        assert {(e.src, e.dst) for e in graph.eager_edges()} == {
            ("repro.pkg.b", "repro.pkg.a")
        }

    def test_cycle_detection(self):
        graph = _graph(
            {
                "src/repro/a.py": "from repro.b import g\n",
                "src/repro/b.py": "from repro.c import h\n",
                "src/repro/c.py": "from repro.a import f\n",
                "src/repro/d.py": "from repro.a import f\n",  # not in the cycle
            }
        )
        assert graph.import_cycles() == [["repro.a", "repro.b", "repro.c"]]

    def test_deferred_import_breaks_cycle(self):
        graph = _graph(
            {
                "src/repro/a.py": "from repro.b import g\n",
                "src/repro/b.py": (
                    "def g():\n    from repro.a import f\n    return f\n"
                ),
            }
        )
        assert graph.import_cycles() == []


class TestRealCodebase:
    """The graph over the actual repo must reflect its architecture."""

    def test_repo_layering_holds(self):
        from repro.devtools.reprolint.engine import _collect_files
        from repro.devtools.reprolint.project import layer_of

        files = []
        for path in _collect_files(["src"]):
            files.append(
                FileContext.from_source(str(path), path.read_text())
            )
        graph = ProjectGraph(files)
        assert graph.import_cycles() == []
        for edge in graph.eager_edges():
            src_layer = layer_of(edge.src)
            dst_layer = layer_of(edge.dst)
            if src_layer is None or dst_layer is None:
                continue
            assert dst_layer <= src_layer, (
                f"{edge.src} (layer {src_layer}) eagerly imports "
                f"{edge.dst} (layer {dst_layer}) at line {edge.lineno}"
            )
