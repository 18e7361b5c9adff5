"""Fault models, dynamic fault injection, and connectivity analysis.

* :mod:`repro.faults.model` — node/link fault sets and random injection.
* :mod:`repro.faults.dynamic` — seeded fail/repair schedules (chaos layer).
* :mod:`repro.faults.structures` — correlated structure faults (stars,
  paths, subcubes, rings), structure-fault diameter, cascading failures.
* :mod:`repro.faults.connectivity` — exact vertex connectivity (Menger),
  connectivity under faults, and maximal-fault-tolerance certificates.
* :mod:`repro.faults.experiments` — fault-sweep experiment driver (E6).
* :mod:`repro.faults.campaigns` — degradation campaigns past the ``m + 3``
  guarantee (``BENCH_faults.json``) and correlated structure-fault
  campaigns (``BENCH_structure.json``).
"""

from repro.faults.campaigns import (
    CampaignConfig,
    StructureCampaignConfig,
    run_campaign,
    run_structure_campaign,
    write_campaign_json,
)
from repro.faults.connectivity import (
    connected_under_faults,
    connectivity_certificate,
    is_maximally_fault_tolerant,
    vertex_connectivity,
)
from repro.faults.dynamic import FaultEvent, FaultSchedule, FaultState
from repro.faults.experiments import FaultSweepResult, fault_sweep
from repro.faults.model import (
    FaultSet,
    LinkFaultSet,
    canonical_link,
    random_link_faults,
    random_node_faults,
    sample_nodes,
)
from repro.faults.structures import (
    CascadeConfig,
    CascadeTrace,
    StructureDiameterResult,
    StructureFault,
    build_structure,
    path_structure,
    random_structures,
    ring_structure,
    run_cascade,
    star_structure,
    structure_fault_diameter,
    structure_kinds,
    subcube_structure,
    union_fault_set,
    union_link_fault_set,
)

__all__ = [
    "FaultSet",
    "LinkFaultSet",
    "canonical_link",
    "sample_nodes",
    "random_node_faults",
    "random_link_faults",
    "FaultEvent",
    "FaultSchedule",
    "FaultState",
    "StructureFault",
    "star_structure",
    "path_structure",
    "subcube_structure",
    "ring_structure",
    "build_structure",
    "structure_kinds",
    "random_structures",
    "union_fault_set",
    "union_link_fault_set",
    "StructureDiameterResult",
    "structure_fault_diameter",
    "CascadeConfig",
    "CascadeTrace",
    "run_cascade",
    "vertex_connectivity",
    "is_maximally_fault_tolerant",
    "connectivity_certificate",
    "connected_under_faults",
    "FaultSweepResult",
    "fault_sweep",
    "CampaignConfig",
    "run_campaign",
    "StructureCampaignConfig",
    "run_structure_campaign",
    "write_campaign_json",
]
