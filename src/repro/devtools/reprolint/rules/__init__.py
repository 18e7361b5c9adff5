"""Built-in reprolint rules.

Importing this package registers every built-in rule with the registry
(:mod:`repro.devtools.reprolint.registry`); each rule module groups one
theme:

* :mod:`~repro.devtools.reprolint.rules.determinism` — HB101–HB105, HB502
* :mod:`~repro.devtools.reprolint.rules.contracts` — HB201–HB203
* :mod:`~repro.devtools.reprolint.rules.numerics` — HB301–HB302, HB604
* :mod:`~repro.devtools.reprolint.rules.architecture` — HB401–HB403
* :mod:`~repro.devtools.reprolint.rules.concurrency` — HB702, HB703, HB705

The ids are stable (suppressions and baselines name them), so the rules
kept from the retired HB5xx and HB6xx blocks keep their numbers.
"""

from __future__ import annotations

from repro.devtools.reprolint.rules import architecture as architecture
from repro.devtools.reprolint.rules import concurrency as concurrency
from repro.devtools.reprolint.rules import contracts as contracts
from repro.devtools.reprolint.rules import determinism as determinism
from repro.devtools.reprolint.rules import numerics as numerics
from repro.devtools.reprolint.rules.base import FileRule, ProjectRule, Rule

__all__ = [
    "Rule",
    "FileRule",
    "ProjectRule",
    "architecture",
    "concurrency",
    "contracts",
    "determinism",
    "numerics",
]
