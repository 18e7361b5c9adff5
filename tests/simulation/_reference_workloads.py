"""Reference uniform pair draws: the per-flow ``random.Random.sample`` loop.

A verbatim copy of the workload zoo's original uniform generator, kept as
the pin for the stream replay in :mod:`repro.simulation.workloads`: for
every ``num_nodes``, ``count`` and ``seed`` the production
:func:`~repro.simulation.workloads.uniform_pairs` must return the same
int64 ``(sources, targets)`` arrays.
"""

from __future__ import annotations

import random

import numpy as np


def uniform_pairs(
    num_nodes: int, count: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` successive ``rng.sample(range(num_nodes), 2)`` draws."""
    rng = random.Random(seed)
    population = range(num_nodes)
    sources = np.empty(count, dtype=np.int64)
    targets = np.empty(count, dtype=np.int64)
    for i in range(count):
        s, t = rng.sample(population, 2)
        sources[i] = s
        targets[i] = t
    return sources, targets
