"""``ResilientRouter.route_ex`` pinned end to end, and the module names the
benchmark's traced run times it through.

The digest covers the Theorem 5 family a route is taken from, the member
the router picks and the adaptive stage past the guarantee, so a change
anywhere under ``route_ex`` that moves a route fails here.
"""

from __future__ import annotations

import hashlib
import importlib
import random

from repro.core.hyperbutterfly import HyperButterfly
from repro.core.resilient import ResilientRouter
from repro.faults.model import sample_nodes

HB47 = HyperButterfly(4, 7)


def _guaranteed_draws(hb, count, seed):
    """``count`` pairs, each with ``m + 3`` node faults off both endpoints."""
    group = hb.m + 3 + 2  # u, v and the faults
    nodes = sample_nodes(hb, count * group, rng=random.Random(seed))
    return [
        (u, v, frozenset(rest))
        for u, v, *rest in (nodes[i * group : (i + 1) * group] for i in range(count))
    ]


def _double_corners(hb, count, seed):
    """Pairs that meet both case-3 corners (``dist(h, h') = 1`` and ``b'``
    next to ``b``), which take the global Menger family, each with
    ``m + 3`` node faults off both endpoints."""
    rng = random.Random(seed)
    draws = []
    for u in sample_nodes(hb, count, rng=rng):
        h = rng.choice(hb.hypercube_neighbors(u))[0]
        v = (h, rng.choice(hb.butterfly_neighbors(u))[1])
        blocked = sample_nodes(hb, hb.m + 3, rng=rng, exclude=(u, v))
        draws.append((u, v, frozenset(blocked)))
    return draws


def _past_the_guarantee(hb, count, seed):
    """Pairs whose whole family is cut, alternately by a node fault and by
    a link fault in the middle of each member, so no member survives and
    the router must fall back to its adaptive search."""
    rng = random.Random(seed)
    nodes = list(hb.nodes())
    draws = []
    for _ in range(count):
        u, v = rng.sample(nodes, 2)
        family = ResilientRouter(hb)._family(u, v)
        node_faults, link_faults = set(), set()
        for i, path in enumerate(family):
            mid = len(path) // 2
            if i % 2 and len(path) > 2:
                node_faults.add(path[mid])  # an interior node
            else:
                link_faults.add((path[mid - 1], path[mid]))
        draws.append((u, v, frozenset(node_faults), frozenset(link_faults)))
    return draws


def test_route_ex_outcomes_are_pinned():
    router = ResilientRouter(HB47)
    h = hashlib.sha256()
    draws = _guaranteed_draws(HB47, 240, seed=36) + _double_corners(HB47, 2, seed=38)
    for u, v, blocked in draws:
        out = router.route_ex(u, v, node_faults=blocked)
        assert out.strategy == "disjoint"
        h.update(repr((out.path, out.strategy)).encode())
    strategies = []
    for u, v, nodes, links in _past_the_guarantee(HB47, 8, seed=37):
        out = ResilientRouter(HB47).route_ex(u, v, node_faults=nodes, link_faults=links)
        strategies.append(out.strategy)
        h.update(repr((out.path, out.strategy)).encode())
    assert strategies == ["adaptive"] * 8
    assert h.hexdigest() == (
        "28a5ba14e6901ceb58c990ca7de5d392d00e40f1c4acf8b191d0be322f4e453d"
    )


def test_route_ex_calls_the_timed_module_names(monkeypatch):
    """The traced benchmark times ``disjoint_paths`` as looked up in
    ``repro.core.resilient`` and the tail solver as looked up in
    ``repro.core.disjoint_paths``; a route on a fresh router must call
    both through those names, or the spans read zero."""
    resilient = importlib.import_module("repro.core.resilient")
    builders = importlib.import_module("repro.core.disjoint_paths")
    calls = {"family": 0, "tails": 0}

    def spy(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(resilient, "disjoint_paths", "family")
    spy(builders, "node_to_set_disjoint_paths", "tails")
    u, v = (0, (0, 0)), (0b0011, (2, 0b1001))  # case 3, no corner
    out = ResilientRouter(HB47).route_ex(u, v, node_faults={(0b0001, (0, 0))})
    assert out.strategy == "disjoint"
    assert calls["family"] == 1
    assert calls["tails"] >= 1
