"""Whole-program views: the import graph and per-module symbol tables.

Per-file rules cannot see that ``topologies/`` grew an import on
``simulation/``, or that two modules import each other.  This module
builds the cross-file structures the HB4xx (architecture) rules need:

* a **module-level import graph** over every linted file, with each edge
  classified as *eager* (executed at import time), *deferred* (inside a
  function body) or *type-checking-only* (under ``if TYPE_CHECKING:``);
* **per-module symbol tables** — top-level definitions and ``__all__``
  declarations.

The graph is built lazily by :class:`~repro.devtools.reprolint.context.
ProjectContext` the first time a project rule asks for it, so per-file
rules pay nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.devtools.reprolint.context import FileContext

__all__ = [
    "ImportEdge",
    "ModuleInfo",
    "ProjectGraph",
    "LAYERS",
    "layer_of",
    "layer_title",
]

#: architecture layer of each first-level package under ``repro`` — the
#: DAG ``_bits/errors ← topologies/cayley ← routing/core/embeddings ←
#: fastgraph/analysis ← faults/simulation ← cli/viz`` from
#: ``docs/architecture.md``; higher layers may import lower ones eagerly,
#: never the reverse (upward needs a deferred import or a redesign).
LAYERS: dict[str, int] = {
    "_bits": 0,
    "_mersenne": 0,
    "errors": 0,
    "topologies": 1,
    "cayley": 1,
    "routing": 2,
    "core": 2,
    "embeddings": 2,
    "fastgraph": 3,
    "analysis": 3,
    "faults": 4,
    "simulation": 4,
    "io": 5,
    "viz": 5,
    "cli": 5,
    "__main__": 5,
    "devtools": 5,
}

_LAYER_TITLES = {
    0: "_bits/errors",
    1: "topologies/cayley",
    2: "routing/core/embeddings",
    3: "fastgraph/analysis",
    4: "faults/simulation",
    5: "cli/viz",
}


def layer_of(module: str) -> int | None:
    """Layer index of a dotted ``repro`` module, or ``None`` if unmapped."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return 5  # the root facade re-exports the public API
    return LAYERS.get(parts[1])


def layer_title(layer: int) -> str:
    """Human name of a layer index (for findings)."""
    return _LAYER_TITLES.get(layer, f"layer {layer}")


@dataclass(frozen=True)
class ImportEdge:
    """One ``import`` statement, resolved to an in-project target module."""

    src: str
    dst: str
    lineno: int
    #: executed when ``src`` is imported (module top level, incl. try/if)
    eager: bool
    #: guarded by ``if TYPE_CHECKING:`` — never executed at runtime
    type_checking: bool


@dataclass
class ModuleInfo:
    """Symbol table of one linted module."""

    name: str
    ctx: FileContext
    #: names declared in ``__all__`` (None when no ``__all__`` exists)
    all_names: list[str] | None = None
    #: top-level *definitions* (def/class/assignment) — not import aliases
    public_defs: dict[str, int] = field(default_factory=dict)


def _declared_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    return [
                        el.value
                        for el in value.elts
                        if isinstance(el, ast.Constant) and isinstance(el.value, str)
                    ]
    return None


def _is_type_checking_test(test: ast.expr) -> bool:
    name = None
    if isinstance(test, ast.Name):
        name = test.id
    elif isinstance(test, ast.Attribute):
        name = test.attr
    return name == "TYPE_CHECKING"


def _resolve_relative(module: str, raw: str | None, level: int) -> str | None:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if level == 0:
        return raw
    # package of `module`: drop `level` trailing components (a module's own
    # package is one level up; __init__ module names already lack it)
    base_parts = module.split(".")[:-level]
    if not base_parts:
        return None
    prefix = ".".join(base_parts)
    return f"{prefix}.{raw}" if raw else prefix


class ProjectGraph:
    """Import graph + symbol tables over the linted files."""

    def __init__(self, files: Iterable[FileContext]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.edges: list[ImportEdge] = []
        for ctx in files:
            if ctx.module_name:
                self.modules[ctx.module_name] = ModuleInfo(ctx.module_name, ctx)
        for info in self.modules.values():
            self._scan_module(info)

    # -- construction -------------------------------------------------------

    def _known_module(self, dotted: str | None) -> str | None:
        """``dotted`` itself if it names a linted module, else ``None``."""
        if dotted is not None and dotted in self.modules:
            return dotted
        return None

    def _scan_module(self, info: ModuleInfo) -> None:
        tree = info.ctx.tree
        info.all_names = _declared_all(tree)
        self._scan_imports(info, tree.body, eager=True, type_checking=False)
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                info.public_defs.setdefault(node.name, node.lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        info.public_defs.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                info.public_defs.setdefault(node.target.id, node.lineno)

    def _scan_imports(
        self,
        info: ModuleInfo,
        body: Iterable[ast.stmt],
        *,
        eager: bool,
        type_checking: bool,
    ) -> None:
        """Record in-project import edges, classifying execution context."""
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    dst = self._known_module(alias.name)
                    if dst is not None:
                        self._add_edge(info, dst, node.lineno, eager, type_checking)
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_relative(info.name, node.module, node.level)
                if target is None:
                    continue
                for alias in node.names:
                    # `from a import b` may import module a.b or symbol b of a
                    dst = self._known_module(f"{target}.{alias.name}")
                    if dst is None:
                        dst = self._known_module(target)
                    if dst is not None and target != "__future__":
                        self._add_edge(info, dst, node.lineno, eager, type_checking)
            elif isinstance(node, ast.If):
                guarded = _is_type_checking_test(node.test)
                self._scan_imports(
                    info,
                    node.body,
                    eager=eager,
                    type_checking=type_checking or guarded,
                )
                self._scan_imports(
                    info, node.orelse, eager=eager, type_checking=type_checking
                )
            elif isinstance(node, ast.Try):
                for sub in (node.body, node.orelse, node.finalbody):
                    self._scan_imports(
                        info, sub, eager=eager, type_checking=type_checking
                    )
                for handler in node.handlers:
                    self._scan_imports(
                        info, handler.body, eager=eager, type_checking=type_checking
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_imports(
                    info, node.body, eager=False, type_checking=type_checking
                )
            elif isinstance(node, ast.ClassDef):
                # class bodies execute at import time
                self._scan_imports(
                    info, node.body, eager=eager, type_checking=type_checking
                )
            elif isinstance(node, (ast.With, ast.For, ast.While)):
                self._scan_imports(
                    info, node.body, eager=eager, type_checking=type_checking
                )

    def _add_edge(
        self, info: ModuleInfo, dst: str, lineno: int, eager: bool, tc: bool
    ) -> None:
        if dst != info.name:
            self.edges.append(
                ImportEdge(info.name, dst, lineno, eager=eager, type_checking=tc)
            )

    # -- queries ------------------------------------------------------------

    def eager_edges(self) -> Iterator[ImportEdge]:
        """Edges executed at import time (not deferred, not TYPE_CHECKING)."""
        for edge in self.edges:
            if edge.eager and not edge.type_checking:
                yield edge

    def import_cycles(self) -> list[list[str]]:
        """Strongly connected components (size > 1) of the eager graph."""
        graph: dict[str, set[str]] = {name: set() for name in self.modules}
        for edge in self.eager_edges():
            graph[edge.src].add(edge.dst)
        # iterative Tarjan
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = 0
        for root in sorted(graph):
            if root in index:
                continue
            work: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(graph[root])))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(graph[w]))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))
        return sorted(sccs)
