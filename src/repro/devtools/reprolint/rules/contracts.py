"""API-contract rules (HB2xx).

Cross-layer conventions that keep the three subsystems (topologies,
fastgraph backend, fault machinery) consistent: every concrete topology
family participates in the codec registry (or is explicitly exempted),
intentional errors derive from :mod:`repro.errors`, and package
``__init__`` re-export surfaces match their ``__all__``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.reprolint.context import FileContext, ProjectContext, dotted_name
from repro.devtools.reprolint.findings import Finding
from repro.devtools.reprolint.registry import register_rule
from repro.devtools.reprolint.rules.base import FileRule, ProjectRule

__all__ = [
    "CodecRegistrationRule",
    "ErrorHierarchyRule",
    "AllExportConsistencyRule",
]


def _class_defs(ctx: FileContext) -> Iterator[ast.ClassDef]:
    for node in ctx.nodes:
        if isinstance(node, ast.ClassDef):
            yield node


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        dotted = dotted_name(base)
        if dotted:
            names.append(dotted.split(".")[-1])
    return names


def _is_abstract(node: ast.ClassDef) -> bool:
    if any(name in ("ABC", "ABCMeta") for name in _base_names(node)):
        return True
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in item.decorator_list:
                name = dotted_name(deco)
                if name and name.split(".")[-1] in (
                    "abstractmethod",
                    "abstractproperty",
                ):
                    return True
    return False


@register_rule
class CodecRegistrationRule(ProjectRule):
    rule_id = "HB201"
    title = "every concrete Topology has a fastgraph codec (or exemption)"
    rationale = (
        "the fast backend dispatches by class name through the codec "
        "registry; a family that silently misses registration drops to "
        "O(V)-per-call label BFS, which reads as a perf regression, not a "
        "bug — exempt irregular families explicitly with an inline "
        "suppression on the class line"
    )

    fixture_hits = {
        "src/repro/topologies/frob.py": (
            "from repro.topologies.base import Topology\n"
            "\n"
            "class FrobTopology(Topology):\n"
            "    def num_nodes(self):\n"
            "        return 1\n"
        ),
    }
    fixture_clean = {
        "src/repro/topologies/frob.py": (
            "from repro.topologies.base import Topology\n"
            "\n"
            "class FrobTopology(Topology):\n"
            "    def num_nodes(self):\n"
            "        return 1\n"
        ),
        "src/repro/fastgraph/morecodecs.py": (
            "from repro.fastgraph.codecs import IntRangeCodec, register_codec\n"
            "\n"
            "def _frob_factory(t):\n"
            "    return IntRangeCodec(t.num_nodes)\n"
            "\n"
            "register_codec('FrobTopology', _frob_factory)\n"
        ),
    }

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        # class name -> (defining FileContext, ClassDef, base names)
        classes: dict[str, tuple[FileContext, ast.ClassDef, list[str]]] = {}
        registered: set[str] = set()
        for fctx in ctx.library_files:
            for node in _class_defs(fctx):
                classes[node.name] = (fctx, node, _base_names(node))
            for call in fctx.nodes:
                if not isinstance(call, ast.Call):
                    continue
                callee = dotted_name(call.func)
                if not callee or callee.split(".")[-1] != "register_codec":
                    continue
                if call.args:
                    first = call.args[0]
                    if isinstance(first, ast.Constant) and isinstance(
                        first.value, str
                    ):
                        registered.add(first.value)
                    else:
                        name = dotted_name(first)
                        if name:
                            registered.add(name.split(".")[-1])

        def descends_from_topology(name: str, seen: frozenset[str]) -> bool:
            if name == "Topology":
                return True
            entry = classes.get(name)
            if entry is None or name in seen:
                return False
            return any(
                descends_from_topology(base, seen | {name})
                for base in entry[2]
            )

        def covered(name: str, seen: frozenset[str]) -> bool:
            # a registration on any ancestor covers the subclass through
            # the registry's MRO walk in codec_for()
            if name in registered:
                return True
            entry = classes.get(name)
            if entry is None or name in seen:
                return False
            return any(covered(base, seen | {name}) for base in entry[2])

        for name, (fctx, node, _bases) in sorted(classes.items()):
            if name == "Topology" or not descends_from_topology(name, frozenset()):
                continue
            if _is_abstract(node):
                continue
            if not covered(name, frozenset()):
                yield fctx.finding(
                    self.rule_id,
                    node,
                    f"concrete Topology subclass {name!r} has no fastgraph "
                    f"codec registration; register one (register_codec) or "
                    f"exempt the class line with a justified suppression",
                )


@register_rule
class ErrorHierarchyRule(FileRule):
    rule_id = "HB202"
    title = "library errors derive from repro.errors"
    rationale = (
        "downstream users catch ReproError to separate library failures "
        "from genuine programming errors; raising bare ValueError/"
        "RuntimeError/KeyError punches holes in that contract "
        "(InvalidParameterError *is* a ValueError, so hierarchy-derived "
        "errors stay backwards compatible)"
    )

    _BARE = {"ValueError", "RuntimeError", "KeyError", "IndexError", "Exception"}

    fixture_hits = (
        "def check(n):\n"
        "    if n < 0:\n"
        "        raise ValueError('negative')\n"
    )
    fixture_clean = (
        "from repro.errors import InvalidParameterError\n"
        "\n"
        "def check(n):\n"
        "    if n < 0:\n"
        "        raise InvalidParameterError('negative')\n"
        "    if n > 10:\n"
        "        raise NotImplementedError('large n')\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call):
                name = dotted_name(exc.func)
            elif isinstance(exc, (ast.Name, ast.Attribute)):
                name = dotted_name(exc)
            if name and name.split(".")[-1] in self._BARE:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"raise of bare {name.split('.')[-1]}; raise a "
                    f"repro.errors subclass so callers can catch ReproError",
                )


@register_rule
class AllExportConsistencyRule(FileRule):
    rule_id = "HB203"
    title = "__all__ matches the module's public bindings"
    rationale = (
        "package __init__ files are the library's public API surface; an "
        "__all__ entry with no binding breaks `from repro import *`, and a "
        "public binding missing from __all__ ships an undocumented API"
    )

    fixture_hits = (
        "__all__ = ['present', 'missing']\n"
        "\n"
        "def present():\n"
        "    return 1\n"
    )
    fixture_clean = (
        "__all__ = ['present']\n"
        "\n"
        "def present():\n"
        "    return 1\n"
        "\n"
        "def _private():\n"
        "    return 2\n"
    )

    @staticmethod
    def _declared_all(tree: ast.Module) -> tuple[ast.AST, list[str]] | None:
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
                        names = [
                            el.value
                            for el in value.elts
                            if isinstance(el, ast.Constant)
                            and isinstance(el.value, str)
                        ]
                        return node, names
        return None

    @staticmethod
    def _top_level_bindings(tree: ast.Module) -> dict[str, int]:
        bound: dict[str, int] = {}

        def bind(name: str, lineno: int) -> None:
            bound.setdefault(name, lineno)

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bind(node.name, node.lineno)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bind((alias.asname or alias.name).split(".")[0], node.lineno)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    bind(alias.asname or alias.name, node.lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bind(target.id, node.lineno)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for el in target.elts:
                            if isinstance(el, ast.Name):
                                bind(el.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                bind(node.target.id, node.lineno)
            elif isinstance(node, (ast.If, ast.Try)):
                # common conditional-import pattern: bind everything inside
                for sub in ast.walk(node):
                    if isinstance(sub, ast.ImportFrom):
                        if sub.module == "__future__":
                            continue
                        for alias in sub.names:
                            bind(alias.asname or alias.name, sub.lineno)
                    elif isinstance(sub, ast.Import):
                        for alias in sub.names:
                            bind(
                                (alias.asname or alias.name).split(".")[0],
                                sub.lineno,
                            )
        return bound

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        declared = self._declared_all(ctx.tree)
        if declared is None:
            return
        all_node, listed = declared
        bound = self._top_level_bindings(ctx.tree)
        for name in listed:
            if name not in bound:
                yield ctx.finding(
                    self.rule_id,
                    all_node,
                    f"__all__ lists {name!r} but the module never binds it",
                )
        if ctx.is_package_init:
            listed_set = set(listed)
            for name, lineno in sorted(bound.items(), key=lambda kv: kv[1]):
                if name.startswith("_") or name in listed_set:
                    continue
                yield ctx.finding(
                    self.rule_id,
                    lineno,
                    f"package __init__ binds public name {name!r} missing "
                    f"from __all__ (add it, rename with a leading "
                    f"underscore, or alias the import)",
                )
