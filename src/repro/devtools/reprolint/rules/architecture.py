"""Architecture/layering rules (HB4xx) — whole-program.

The repo's layer DAG (``docs/architecture.md``) is

``_bits/errors ← topologies/cayley ← routing/core/embeddings ←
fastgraph/analysis ← faults/simulation ← cli/viz``

and the paper's structural guarantees only stay auditable while the code
respects it: a topology that eagerly pulls in the simulation layer can no
longer be reasoned about (or imported) in isolation.  These rules run on
the :class:`~repro.devtools.reprolint.project.ProjectGraph`:

* **HB401** — an eager (import-time) import may only point at the same or
  a lower layer; upward dependencies must be deferred into the function
  that needs them (the sanctioned idiom, see ``faults/campaigns.py``) or
  redesigned away;
* **HB402** — the eager import graph must stay acyclic (a cycle imports
  fine or not depending on which module is hit first — a time bomb);
* **HB403** — a public top-level symbol in a library module that no
  ``__all__`` exports and no linted file references is dead API surface.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.reprolint.context import ProjectContext
from repro.devtools.reprolint.findings import Finding
from repro.devtools.reprolint.project import layer_of, layer_title
from repro.devtools.reprolint.registry import register_rule
from repro.devtools.reprolint.rules.base import ProjectRule

__all__ = ["LayeringRule", "ImportCycleRule", "DeadExportRule"]


@register_rule
class LayeringRule(ProjectRule):
    rule_id = "HB401"
    title = "eager imports must respect the layer DAG"
    rationale = (
        "the architecture's layer DAG (_bits/errors <- topologies/cayley <- "
        "routing/core/embeddings <- fastgraph/analysis <- faults/simulation "
        "<- cli/viz) keeps every layer importable and testable without the "
        "layers above it; an import-time dependency pointing upward couples "
        "the layers — defer it into the function that needs it, or move the "
        "shared code down"
    )

    fixture_hits = {
        "src/repro/topologies/widget.py": (
            "from repro.faults.gadget import inject\n"
            "\n"
            "def build():\n"
            "    return inject()\n"
        ),
        "src/repro/faults/gadget.py": (
            "def inject():\n"
            "    return 1\n"
        ),
    }
    fixture_clean = {
        "src/repro/topologies/widget.py": (
            "def build():\n"
            "    from repro.faults.gadget import inject\n"
            "\n"
            "    return inject()\n"
        ),
        "src/repro/faults/gadget.py": (
            "from repro.topologies.widget import build\n"
            "\n"
            "def inject():\n"
            "    return 1\n"
        ),
    }

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        graph = ctx.graph
        for edge in graph.eager_edges():
            src_layer = layer_of(edge.src)
            dst_layer = layer_of(edge.dst)
            if src_layer is None or dst_layer is None:
                continue
            if dst_layer > src_layer:
                fctx = graph.modules[edge.src].ctx
                yield fctx.finding(
                    self.rule_id,
                    edge.lineno,
                    f"layering violation: {edge.src} "
                    f"({layer_title(src_layer)}) eagerly imports {edge.dst} "
                    f"({layer_title(dst_layer)}, a higher layer); defer the "
                    f"import into the function that needs it",
                )


@register_rule
class ImportCycleRule(ProjectRule):
    rule_id = "HB402"
    title = "the eager import graph must stay acyclic"
    rationale = (
        "a cycle of import-time dependencies works or crashes depending on "
        "which member is imported first (partially-initialised modules), so "
        "the package's import order becomes load-bearing; break the cycle "
        "with a deferred import or by extracting the shared piece"
    )

    fixture_hits = {
        "src/repro/routing/alpha.py": (
            "from repro.routing.beta import b\n"
            "\n"
            "def a():\n"
            "    return b()\n"
        ),
        "src/repro/routing/beta.py": (
            "from repro.routing.alpha import a\n"
            "\n"
            "def b():\n"
            "    return a()\n"
        ),
    }
    fixture_clean = {
        "src/repro/routing/alpha.py": (
            "from repro.routing.beta import b\n"
            "\n"
            "def a():\n"
            "    return b()\n"
        ),
        "src/repro/routing/beta.py": (
            "def b():\n"
            "    return 1\n"
        ),
    }

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        graph = ctx.graph
        for cycle in graph.import_cycles():
            members = set(cycle)
            rendered = " -> ".join(cycle + [cycle[0]])
            for module in cycle:
                edge = next(
                    (
                        e
                        for e in graph.eager_edges()
                        if e.src == module and e.dst in members
                    ),
                    None,
                )
                if edge is None:
                    continue
                fctx = graph.modules[module].ctx
                yield fctx.finding(
                    self.rule_id,
                    edge.lineno,
                    f"import cycle {rendered}; break it with a deferred "
                    f"import or extract the shared code",
                )


@register_rule
class DeadExportRule(ProjectRule):
    rule_id = "HB403"
    title = "no dead public symbols"
    rationale = (
        "a public top-level symbol that no __all__ exports and nothing in "
        "the project references is unreachable API surface: it rots "
        "silently, dodges every test, and misleads readers about what the "
        "module provides — delete it, export it, or underscore it"
    )

    fixture_hits = {
        "src/repro/__init__.py": "",
        "src/repro/analysis/extra.py": (
            "__all__ = ['used']\n"
            "\n"
            "def used():\n"
            "    return 1\n"
            "\n"
            "def orphan():\n"
            "    return 2\n"
        ),
    }
    fixture_clean = {
        "src/repro/__init__.py": "",
        "src/repro/analysis/extra.py": (
            "__all__ = ['used', 'also_exported']\n"
            "\n"
            "def used():\n"
            "    return 1\n"
            "\n"
            "def also_exported():\n"
            "    return used()\n"
            "\n"
            "def _private_helper():\n"
            "    return 3\n"
        ),
    }

    #: names that are structural, not API (dunder config, registrations)
    _STRUCTURAL = {"main"}

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        graph = ctx.graph
        # only meaningful when the whole library is being linted; a partial
        # file set would make everything look unreferenced
        if "repro" not in graph.modules:
            return
        referenced: set[str] = set()
        for fctx in ctx.files:
            for node in fctx.nodes:
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        referenced.add(alias.name.split(".")[0])
                        referenced.add(alias.name.split(".")[-1])
                        if alias.asname:
                            referenced.add(alias.asname)
        exported: set[str] = set()
        for info in graph.modules.values():
            exported.update(info.all_names or ())
        for name, info in sorted(graph.modules.items()):
            if not info.ctx.is_library or info.ctx.is_package_init:
                continue
            for symbol, lineno in sorted(info.public_defs.items()):
                if symbol.startswith("_") or symbol in self._STRUCTURAL:
                    continue
                if symbol in exported or symbol in referenced:
                    continue
                yield info.ctx.finding(
                    self.rule_id,
                    lineno,
                    f"public symbol {symbol!r} in {name} is exported by no "
                    f"__all__ and referenced nowhere in the project; delete "
                    f"it, export it, or rename it with a leading underscore",
                )
