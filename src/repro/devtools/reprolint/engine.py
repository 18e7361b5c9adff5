"""The lint engine: file collection, rule dispatch, baselines, self-test.

Two entry points:

* :func:`lint_paths` — lint files/directories on disk (what the CLI runs);
* :func:`lint_sources` — lint an in-memory ``{path: source}`` mapping
  (what the fixture tests and the per-rule self-test run).

Findings are never silently dropped: suppressed and baselined findings
stay in the report flagged as such, and only *active* findings drive the
non-zero exit code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Mapping, Sequence

from repro.devtools.reprolint.baseline import load_baseline
from repro.devtools.reprolint.context import FileContext, ProjectContext
from repro.devtools.reprolint.findings import Finding, Severity
from repro.devtools.reprolint.registry import all_rules
from repro.devtools.reprolint.rules.base import FileRule, ProjectRule, Rule
from repro.errors import ReproError

__all__ = [
    "LintReport",
    "SelfTestError",
    "lint_paths",
    "lint_sources",
    "self_test",
    "self_test_rule",
]

#: pseudo-rule id for files the engine cannot parse
PARSE_ERROR_ID = "HB000"

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


class SelfTestError(ReproError):
    """A rule failed its own fixture self-test."""


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    checked_files: int = 0
    rules_run: int = 0

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.active:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    def to_dict(self) -> dict[str, object]:
        return {
            "version": 1,
            "checked_files": self.checked_files,
            "rules_run": self.rules_run,
            "counts": self.counts_by_rule(),
            "findings": [f.to_dict() for f in self.findings],
        }


def _sorted_findings(findings: Iterable[Finding]) -> list[Finding]:
    return sorted(findings, key=Finding.sort_key)


def _run_rules(
    contexts: Sequence[FileContext],
    parse_failures: Sequence[Finding],
    rules: Sequence[Rule],
) -> LintReport:
    findings: list[Finding] = list(parse_failures)
    project_ctx = ProjectContext(files=list(contexts))
    for rule in rules:
        if isinstance(rule, FileRule):
            for ctx in contexts:
                findings.extend(rule.check_file(ctx))
        elif isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(project_ctx))
    return LintReport(
        findings=_sorted_findings(findings),
        checked_files=len(contexts),
        rules_run=len(rules),
    )


def _apply_baseline(report: LintReport, fingerprints: frozenset[str]) -> LintReport:
    if not fingerprints:
        return report
    report.findings = [
        Finding(
            rule_id=f.rule_id,
            path=f.path,
            line=f.line,
            col=f.col,
            message=f.message,
            severity=f.severity,
            line_text=f.line_text,
            suppressed=f.suppressed,
            baselined=f.fingerprint in fingerprints,
        )
        for f in report.findings
    ]
    return report


#: immutable empty default for ``lint_sources`` (no call in the signature)
_NO_BASELINE: frozenset[str] = frozenset()


def lint_sources(
    sources: Mapping[str, str],
    *,
    rules: Sequence[Rule] | None = None,
    baseline_fingerprints: frozenset[str] = _NO_BASELINE,
) -> LintReport:
    """Lint an in-memory ``{path: source}`` mapping."""
    contexts: list[FileContext] = []
    parse_failures: list[Finding] = []
    for path in sorted(sources):
        try:
            contexts.append(
                FileContext.from_source(path, _normalize_source(sources[path]))
            )
        except SyntaxError as exc:
            parse_failures.append(
                Finding(
                    rule_id=PARSE_ERROR_ID,
                    path=str(PurePosixPath(path)),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                    severity=Severity.ERROR,
                    line_text=(exc.text or "").rstrip("\n"),
                )
            )
    report = _run_rules(contexts, parse_failures, rules or all_rules())
    return _apply_baseline(report, baseline_fingerprints)


def _normalize_source(source: str) -> str:
    """Collapse CRLF/CR line endings to LF.

    Finding fingerprints hash the flagged line's text; without this a
    Windows checkout (or ``core.autocrlf``) would produce different
    fingerprints for byte-identical code and silently invalidate a shared
    ``.reprolint-baseline.json``.
    """
    return source.replace("\r\n", "\n").replace("\r", "\n")


#: files whose presence marks the repository root for display paths
_ROOT_MARKERS = ("pyproject.toml", ".git")


def _repo_root(start: Path) -> Path | None:
    for candidate in (start, *start.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return None


def _collect_files(paths: Sequence[str | Path]) -> list[Path]:
    collected: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    collected.append(candidate)
        elif path.suffix == ".py" and path.exists():
            collected.append(path)
        elif not path.exists():
            raise ReproError(f"lint path does not exist: {path}")
    # de-duplicate while keeping order (a file given twice counts once)
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in collected:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _display_path(path: Path) -> str:
    """Stable display form: repo-root-relative POSIX, independent of cwd.

    Fingerprints hash this path, so it must not vary with where the linter
    was invoked from.  Preference order: relative to the repository root
    (nearest ancestor holding a root marker), then relative to the cwd,
    then absolute — always with forward slashes.
    """
    resolved = path.resolve()
    root = _repo_root(resolved.parent)
    if root is not None:
        try:
            return resolved.relative_to(root).as_posix()
        except ValueError:  # pragma: no cover - resolve() makes this unlikely
            pass
    try:
        relative = os.path.relpath(path)
    except ValueError:  # different drive (windows) — keep absolute
        relative = str(path)
    if not relative.startswith(".."):
        return PurePosixPath(Path(relative).as_posix()).as_posix()
    return path.as_posix()


def lint_paths(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[Rule] | None = None,
    baseline_path: str | Path | None = None,
) -> LintReport:
    """Lint files and directories on disk (the CLI entry point)."""
    fingerprints = (
        load_baseline(baseline_path) if baseline_path is not None else frozenset()
    )
    sources: dict[str, str] = {}
    for path in _collect_files(paths):
        sources[_display_path(path)] = path.read_text(encoding="utf-8")
    return lint_sources(
        sources, rules=rules, baseline_fingerprints=fingerprints
    )


# -- per-rule fixture self-test ---------------------------------------------

_FIXTURE_HIT_PATH = "src/repro/_reprolint_fixture.py"
_FIXTURE_CLEAN_PATH = "src/repro/_reprolint_fixture_clean.py"


def _as_sources(fixture: str | Mapping[str, str], default_path: str) -> dict[str, str]:
    if isinstance(fixture, str):
        return {default_path: fixture}
    return dict(fixture)


def _suppress_lines(source: str, rule_id: str, lines: set[int]) -> str:
    out = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        if lineno in lines:
            text = f"{text}  # reprolint: disable={rule_id} -- self-test"
        out.append(text)
    return "\n".join(out) + "\n"


def self_test_rule(rule: Rule) -> None:
    """Run one rule against its own fixtures.

    Checks three properties:

    1. ``fixture_hits`` produces at least one active finding of that rule;
    2. ``fixture_clean`` produces none;
    3. appending an inline suppression to every flagged line of
       ``fixture_hits`` turns every finding inactive (suppression works).

    Raises :class:`SelfTestError` on the first violated property.
    """
    hits = _as_sources(rule.fixture_hits, _FIXTURE_HIT_PATH)
    clean = _as_sources(rule.fixture_clean, _FIXTURE_CLEAN_PATH)
    if not hits or not clean:
        raise SelfTestError(f"{rule.rule_id} is missing self-test fixtures")

    hit_report = lint_sources(hits, rules=[rule])
    mine = [f for f in hit_report.active if f.rule_id == rule.rule_id]
    if not mine:
        raise SelfTestError(f"{rule.rule_id} fixture_hits produced no findings")

    clean_report = lint_sources(clean, rules=[rule])
    if clean_report.active:
        raise SelfTestError(
            f"{rule.rule_id} fixture_clean produced findings: "
            f"{[f.render() for f in clean_report.active]}"
        )

    suppressed_sources = {
        path: _suppress_lines(
            text,
            rule.rule_id,
            {f.line for f in mine if f.path == str(PurePosixPath(path))},
        )
        for path, text in hits.items()
    }
    suppressed_report = lint_sources(suppressed_sources, rules=[rule])
    still_active = [
        f for f in suppressed_report.active if f.rule_id == rule.rule_id
    ]
    if still_active:
        raise SelfTestError(
            f"{rule.rule_id} inline suppression failed: "
            f"{[f.render() for f in still_active]}"
        )


def self_test(rules: Sequence[Rule] | None = None) -> int:
    """Run every rule's fixture self-test; returns the rule count.

    See :func:`self_test_rule` for the per-rule contract.  Raises
    :class:`SelfTestError` on the first violation.
    """
    rules = list(rules or all_rules())
    for rule in rules:
        self_test_rule(rule)
    return len(rules)
