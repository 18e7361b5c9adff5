"""Rule base classes.

Every rule declares:

* ``rule_id`` — stable id (``HB1xx`` determinism, ``HB2xx`` API contracts,
  ``HB3xx`` numerics) used in reports, suppressions, and baselines;
* ``title`` / ``rationale`` — what is flagged and which paper invariant or
  repo convention it protects;
* fixtures — minimal source snippets the engine's :func:`self-test
  <repro.devtools.reprolint.engine.self_test>` runs every rule against:
  ``fixture_hits`` must produce at least one finding, ``fixture_clean``
  none, and the suppressed variant is *derived automatically* by appending
  an inline ``# reprolint: disable=ID`` to each flagged line, which
  exercises the suppression machinery for every rule for free.

File rules see one :class:`~repro.devtools.reprolint.context.FileContext`
at a time; project rules see the whole
:class:`~repro.devtools.reprolint.context.ProjectContext` once (cross-file
contracts such as registry completeness).  Project-rule fixtures are
``{path: source}`` mappings.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Mapping

from repro.devtools.reprolint.context import FileContext, ProjectContext
from repro.devtools.reprolint.findings import Finding

__all__ = [
    "Rule",
    "FileRule",
    "ProjectRule",
]


class Rule(ABC):
    """Common surface of file- and project-scoped rules."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    @property
    def group(self) -> str:
        """Rule group derived from the id block (1xx … 7xx)."""
        block = self.rule_id[2:3]
        return {
            "1": "determinism",
            "2": "contracts",
            "3": "numerics",
            "4": "architecture",
            "5": "seeding",
            "6": "dtypes",
            "7": "concurrency",
        }.get(block, "other")


class FileRule(Rule):
    """A rule evaluated independently on each file."""

    #: source that must trigger >= 1 finding under a library path
    fixture_hits: str = ""
    #: source that must trigger none
    fixture_clean: str = ""

    @abstractmethod
    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""


class ProjectRule(Rule):
    """A rule evaluated once over all files (cross-file contracts)."""

    fixture_hits: Mapping[str, str] = {}
    fixture_clean: Mapping[str, str] = {}

    @abstractmethod
    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        """Yield findings over the whole project."""
