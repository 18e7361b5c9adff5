"""Built-in reprolint rules.

Importing this package registers every built-in rule with the registry
(:mod:`repro.devtools.reprolint.registry`); each rule module groups one
id block:

* :mod:`~repro.devtools.reprolint.rules.determinism` — HB101–HB105
* :mod:`~repro.devtools.reprolint.rules.contracts` — HB201–HB203
* :mod:`~repro.devtools.reprolint.rules.numerics` — HB301–HB302
* :mod:`~repro.devtools.reprolint.rules.architecture` — HB401–HB403
* :mod:`~repro.devtools.reprolint.rules.taint` — HB501–HB502
* :mod:`~repro.devtools.reprolint.rules.numerics_flow` — HB601–HB605
* :mod:`~repro.devtools.reprolint.rules.concurrency` — HB701–HB705
"""

from __future__ import annotations

from repro.devtools.reprolint.rules import architecture as architecture
from repro.devtools.reprolint.rules import concurrency as concurrency
from repro.devtools.reprolint.rules import contracts as contracts
from repro.devtools.reprolint.rules import determinism as determinism
from repro.devtools.reprolint.rules import numerics as numerics
from repro.devtools.reprolint.rules import numerics_flow as numerics_flow
from repro.devtools.reprolint.rules import taint as taint
from repro.devtools.reprolint.rules.base import (
    FileRule,
    ImportMap,
    ProjectRule,
    Rule,
    dotted_name,
)

__all__ = [
    "Rule",
    "FileRule",
    "ProjectRule",
    "ImportMap",
    "dotted_name",
    "architecture",
    "concurrency",
    "contracts",
    "determinism",
    "numerics",
    "numerics_flow",
    "taint",
]
