"""Label forms of the rank-level searches of ``routing/flows.py``, and rank
forms of label-level references.

``node_to_set_disjoint_paths`` and ``pruned_shortest_path`` take and return
ranks.  Tests draw labels and compare with label references (the
dict-based ``_reference_menger``, the reference queue BFS, the numpy
kernels), so :func:`node_to_set_on_labels` and
:func:`shortest_path_on_labels` put a label edge on the rank searches, as
``flows.vertex_disjoint_paths`` does on ``vertex_disjoint_ranks``, and the
``*_on_ranks`` wrappers turn a label reference into a rank search that a
test can patch in for the real one.
"""

from __future__ import annotations

from repro.fastgraph.backend import get_fastgraph
from repro.routing import flows


def _codec(topology):
    return get_fastgraph(topology).codec


def node_to_set_on_labels(topology, sources, target, *, blocked=(), to_target=None):
    blocked = list(blocked)
    ranks = flows.rank_labels(topology, [*sources, target, *blocked])
    family = flows.node_to_set_disjoint_paths(
        topology,
        [ranks[s] for s in sources],
        ranks[target],
        blocked=[ranks[x] for x in blocked],
        to_target=to_target,
    )
    unrank = _codec(topology).unrank
    return [[unrank(r) for r in path] for path in family]


def shortest_path_on_labels(topology, source, target, *, blocked=(), to_target=None):
    blocked = list(blocked)
    ranks = flows.rank_labels(topology, [source, target, *blocked])
    path = flows.pruned_shortest_path(
        topology,
        ranks[source],
        ranks[target],
        blocked=[ranks[x] for x in blocked],
        to_target=to_target,
    )
    unrank = _codec(topology).unrank
    return None if path is None else [unrank(r) for r in path]


def node_to_set_on_ranks(label_solver):
    """``label_solver(topology, sources, target, blocked=...)`` on ranks."""

    def solver(topology, sources, target, *, blocked=(), to_target=None):
        codec = _codec(topology)
        family = label_solver(
            topology,
            [codec.unrank(s) for s in sources],
            codec.unrank(target),
            blocked={codec.unrank(x) for x in blocked},
        )
        return [[codec.rank(x) for x in path] for path in family]

    return solver


def vertex_disjoint_on_ranks(label_solver):
    """``label_solver(topology, source, target, blocked=..., **kwargs)`` on ranks."""

    def solver(topology, source, target, *, blocked=(), **kwargs):
        codec = _codec(topology)
        family = label_solver(
            topology,
            codec.unrank(source),
            codec.unrank(target),
            blocked={codec.unrank(x) for x in blocked},
            **kwargs,
        )
        return [[codec.rank(x) for x in path] for path in family]

    return solver


def shortest_path_on_ranks(label_search):
    """``label_search(topology, source, target, blocked)`` on ranks."""

    def search(topology, source, target, *, blocked=(), to_target=None):
        codec = _codec(topology)
        path = label_search(
            topology,
            codec.unrank(source),
            codec.unrank(target),
            frozenset(codec.unrank(x) for x in blocked),
        )
        return None if path is None else [codec.rank(x) for x in path]

    return search
