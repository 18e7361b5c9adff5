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

from repro.faults.model import (
    FaultSet,
    LinkFaultSet,
    canonical_link,
    sample_nodes,
    random_node_faults,
    random_link_faults,
)
from repro.faults.dynamic import FaultEvent, FaultSchedule, FaultState
from repro.faults.structures import (
    StructureFault,
    star_structure,
    path_structure,
    subcube_structure,
    ring_structure,
    build_structure,
    structure_kinds,
    random_structures,
    union_fault_set,
    union_link_fault_set,
    StructureDiameterResult,
    structure_fault_diameter,
    CascadeConfig,
    CascadeTrace,
    run_cascade,
)
from repro.faults.connectivity import (
    vertex_connectivity,
    is_maximally_fault_tolerant,
    connectivity_certificate,
    connected_under_faults,
)
from repro.faults.experiments import FaultSweepResult, fault_sweep
from repro.faults.campaigns import (
    CampaignConfig,
    run_campaign,
    StructureCampaignConfig,
    run_structure_campaign,
    write_campaign_json,
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
