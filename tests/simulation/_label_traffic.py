"""Label pair lists from the rank workload zoo, for event-simulator tests.

Rank ``i`` is the ``i``-th node of ``topology.nodes()`` (pinned by
``tests/fastgraph/test_codecs.py::TestRoundTrip``), so these are the pairs
a seeded draw over the node list would give.
"""

from __future__ import annotations

from repro.fastgraph.codecs import codec_for
from repro.simulation.workloads import TrafficMatrix, build_workload


def labels(topology, ranks):
    """Unrank a ``(sources, targets)`` rank pair to a label pair list."""
    return TrafficMatrix.from_ranks(*ranks).pairs(codec_for(topology))


def workload_labels(topology, family, count, *, seed):
    """``count`` flows of a workload ``family`` as label pairs."""
    return build_workload(topology, family, count=count, seed=seed).pairs(
        codec_for(topology)
    )
