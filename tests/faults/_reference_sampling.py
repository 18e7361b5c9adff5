"""Reference fault draws: the per-item Algorithm R reservoir loops.

Verbatim copies of the original :func:`repro.faults.model.sample_nodes`
and :func:`repro.faults.model.random_link_faults` loops, kept as the pin
for the stream replay behind
:func:`~repro.faults.model.reservoir_indices`: for every topology,
``count``, exclusion and ``rng`` state the production functions must
return the same picks in the same order and leave the ``rng`` in the same
state.  Only the ``available`` count of :func:`sample_nodes` differs: it
counts excluded labels that are nodes, as production does (the original
counted every excluded label, so it could refuse a feasible draw).
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable

from repro.errors import InvalidParameterError
from repro.faults.model import LinkFaultSet, canonical_link
from repro.topologies.base import Topology


def reservoir_indices(rng: random.Random, count: int, eligible: int) -> list[int]:
    """The loop over ``range(eligible)`` that both samplers run."""
    reservoir: list[int] = []
    seen = 0
    for i in range(eligible):
        seen += 1
        if len(reservoir) < count:
            reservoir.append(i)
        else:
            j = rng.randrange(seen)
            if j < count:
                reservoir[j] = i
    return reservoir


def sample_nodes(
    topology: Topology,
    count: int,
    *,
    rng: random.Random,
    exclude: Iterable[Hashable] = (),
) -> list[Hashable]:
    excluded = set(exclude)
    available = topology.num_nodes - sum(1 for v in excluded if topology.has_node(v))
    if count < 0 or count > available:
        raise InvalidParameterError(
            f"cannot sample {count} nodes among {available} eligible nodes"
        )
    reservoir: list[Hashable] = []
    seen = 0
    for v in topology.nodes():
        if v in excluded:
            continue
        seen += 1
        if len(reservoir) < count:
            reservoir.append(v)
        else:
            j = rng.randrange(seen)
            if j < count:
                reservoir[j] = v
    return reservoir


def random_link_faults(
    topology: Topology,
    count: int,
    *,
    rng: random.Random | None = None,
    exclude: Iterable[tuple[Hashable, Hashable]] = (),
) -> LinkFaultSet:
    rng = rng or random.Random(0)
    excluded = {canonical_link(u, v) for u, v in exclude}
    if count < 0:
        raise InvalidParameterError(f"cannot place {count} link faults")
    reservoir: list[tuple[Hashable, Hashable]] = []
    seen = 0
    for u, v in topology.edges():
        link = canonical_link(u, v)
        if link in excluded:
            continue
        seen += 1
        if len(reservoir) < count:
            reservoir.append(link)
        else:
            j = rng.randrange(seen)
            if j < count:
                reservoir[j] = link
    if len(reservoir) < count:
        raise InvalidParameterError(
            f"cannot place {count} link faults among {seen} eligible links"
        )
    return LinkFaultSet(topology, reservoir)
