"""reprolint — AST-based lint engine for this repository's paper invariants.

The repo's correctness rests on conventions no generic tool checks:
seeded-only randomness, byte-reproducible JSON artefacts, codec-registry
coverage of every :class:`~repro.topologies.base.Topology` family, a
single error hierarchy, and tolerance-based float comparison.  reprolint
encodes them as AST rules (``hyperbutterfly lint --list-rules``) with
inline suppression (``# reprolint: disable=HB101 -- why``), a baseline
for grandfathered findings, and a per-rule fixture self-test.

Beyond per-file rules, the engine builds a whole-program view
(:mod:`repro.devtools.reprolint.project`): a module import graph and
symbol tables, from which the HB4xx block enforces the layer DAG and
flags import cycles and dead exports.  The rule set is cut to the
defects no cheaper check catches (the catch matrix in
``docs/architecture.md``): exact results are pinned by the tests and
``hyperbutterfly prove``, and ``hyperbutterfly sanitize``
(:mod:`repro.devtools.sanitize`) A/B-runs JSON-emitting targets under two
``PYTHONHASHSEED`` values and under a numpy overflow trap.

Programmatic use::

    from repro.devtools.reprolint import lint_paths

    report = lint_paths(["src", "tests"])
    assert report.exit_code == 0, [f.render() for f in report.active]
"""

from __future__ import annotations

from repro.devtools.reprolint.baseline import (
    DEFAULT_BASELINE,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.devtools.reprolint.context import FileContext, ProjectContext
from repro.devtools.reprolint.engine import (
    LintReport,
    SelfTestError,
    lint_paths,
    lint_sources,
    self_test,
    self_test_rule,
)
from repro.devtools.reprolint.findings import Finding, Severity
from repro.devtools.reprolint.registry import (
    RuleRegistryError,
    all_rules,
    get_rule,
    register_rule,
)
from repro.devtools.reprolint.rules.base import FileRule, ProjectRule, Rule

__all__ = [
    "DEFAULT_BASELINE",
    "BaselineError",
    "FileContext",
    "FileRule",
    "Finding",
    "LintReport",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "RuleRegistryError",
    "SelfTestError",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_sources",
    "load_baseline",
    "register_rule",
    "self_test",
    "self_test_rule",
    "write_baseline",
]
