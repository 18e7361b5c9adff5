"""Per-file and whole-project views handed to lint rules, and the AST
name helpers (:func:`dotted_name`, :class:`ImportMap`) rules resolve
calls with."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Any, Callable, Iterable, TypeVar

from repro.devtools.reprolint.findings import Finding, Severity
from repro.devtools.reprolint.suppressions import SuppressionIndex, scan_suppressions

if TYPE_CHECKING:  # deferred: project.py needs rules.base which needs us
    from repro.devtools.reprolint.project import ProjectGraph

T = TypeVar("T")


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Resolves local aliases back to canonical module / symbol paths.

    ``import numpy as np`` maps ``np`` → ``numpy``; ``from numpy import
    random as nprand`` maps ``nprand`` → ``numpy.random``; ``from random
    import choice`` maps ``choice`` → ``random.choice``.  Used by rules to
    recognise calls like ``np.random.shuffle`` regardless of aliasing.
    """

    def __init__(self, nodes: Iterable[ast.AST]) -> None:
        self.aliases: dict[str, str] = {}
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import a.b` binds `a`; `import a.b as c` binds full path
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted path of a Name/Attribute chain, or ``None``."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical_head = self.aliases.get(head, head)
        return f"{canonical_head}.{rest}" if rest else canonical_head


@dataclass
class FileContext:
    """One parsed source file plus everything a rule needs to judge it."""

    path: str
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    suppressions: SuppressionIndex = field(default_factory=SuppressionIndex)
    _memo: dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_source(cls, path: str, text: str) -> "FileContext":
        """Parse ``text`` (raises :class:`SyntaxError` on broken files)."""
        lines = text.splitlines()
        return cls(
            path=str(PurePosixPath(path)),
            text=text,
            tree=ast.parse(text, filename=path),
            lines=lines,
            suppressions=scan_suppressions(lines),
        )

    # -- views shared by every rule ------------------------------------------

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree in :func:`ast.walk` order, walked once."""
        return list(ast.walk(self.tree))

    @cached_property
    def imports(self) -> ImportMap:
        """The file's alias map, built once for all rules."""
        return ImportMap(self.nodes)

    def memo(self, key: str, build: Callable[[], T]) -> T:
        """``build()`` once per file, so rules share a derived view."""
        if key not in self._memo:
            self._memo[key] = build()
        result: T = self._memo[key]
        return result

    # -- path classification ------------------------------------------------

    @property
    def parts(self) -> tuple[str, ...]:
        return PurePosixPath(self.path).parts

    @property
    def is_test(self) -> bool:
        """Test modules get looser determinism/contract expectations."""
        name = PurePosixPath(self.path).name
        return "tests" in self.parts or name.startswith(("test_", "conftest"))

    @property
    def is_library(self) -> bool:
        """Whether this file is part of the shipped ``repro`` package."""
        return "repro" in self.parts and not self.is_test

    @property
    def is_package_init(self) -> bool:
        return PurePosixPath(self.path).name == "__init__.py"

    @property
    def module_name(self) -> str:
        """Dotted module path (``src/repro/a/b.py`` → ``repro.a.b``)."""
        parts = list(self.parts)
        if "src" in parts:
            parts = parts[parts.index("src") + 1 :]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    # -- finding construction ----------------------------------------------

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(
        self,
        rule_id: str,
        node: ast.AST | int,
        message: str,
        *,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` (or a line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=rule_id,
            path=self.path,
            line=line,
            col=col,
            message=message,
            severity=severity,
            line_text=self.line_text(line),
            suppressed=self.suppressions.is_suppressed(rule_id, line),
        )


@dataclass
class ProjectContext:
    """All linted files at once — for cross-file rules (e.g. registries)."""

    files: list[FileContext]
    _graph: "ProjectGraph | None" = field(default=None, repr=False, compare=False)

    @property
    def library_files(self) -> list[FileContext]:
        return [f for f in self.files if f.is_library]

    def by_module(self, module_name: str) -> FileContext | None:
        for f in self.files:
            if f.module_name == module_name:
                return f
        return None

    @property
    def graph(self) -> "ProjectGraph":
        """The whole-program graph, built lazily on first access."""
        if self._graph is None:
            from repro.devtools.reprolint.project import ProjectGraph

            self._graph = ProjectGraph(self.files)
        return self._graph
