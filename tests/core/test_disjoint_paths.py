"""Theorem 5 / Corollary 1 tests: the m+4 node-disjoint path families."""

from __future__ import annotations

import contextlib
import random
import sys

import networkx as nx
import numpy as np
import pytest

from repro.core.disjoint_paths import (
    _Case3Builder,
    construction_case,
    disjoint_paths,
    disjoint_paths_with_info,
    verify_disjoint_paths,
)
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidLabelError, InvalidParameterError, RoutingError
from repro.routing.base import paths_internally_disjoint
from repro.routing.flows import distances_to
from repro.fastgraph.backend import FastGraph, get_fastgraph
from repro.fastgraph.kernels import bfs_levels, path_from_parents
from tests.routing import _label_edge, _reference_menger
from tests.topologies import _reference_bfs


class TestCaseClassification:
    def test_cases(self, hb23):
        b = (0, 0)
        assert construction_case((0, b), (1, b)) == 1
        assert construction_case((0, b), (0, (1, 0))) == 2
        assert construction_case((0, b), (1, (1, 0))) == 3

    def test_same_node_rejected(self, hb23):
        with pytest.raises(RoutingError):
            construction_case((0, (0, 0)), (0, (0, 0)))


class TestFamilies:
    @pytest.mark.parametrize(("m", "n"), [(1, 3), (2, 3), (3, 3), (2, 4)])
    def test_random_pairs_give_m_plus_4_disjoint_paths(self, m, n, rng):
        hb = HyperButterfly(m, n)
        nodes = list(hb.nodes())
        for _ in range(20):
            u, v = rng.sample(nodes, 2)
            family = disjoint_paths(hb, u, v)
            verify_disjoint_paths(hb, u, v, family)  # count/validity/disjoint

    def test_case1_explicit(self, hb23):
        u, v = (0, (1, 0b010)), (3, (1, 0b010))
        family, info = disjoint_paths_with_info(hb23, u, v)
        assert info["case"] == 1
        assert info["method"] == "constructive"
        verify_disjoint_paths(hb23, u, v, family)
        # m shortest-family paths stay in the shared butterfly copy
        in_copy = sum(1 for p in family if all(x[1] == u[1] for x in p))
        assert in_copy == hb23.m

    def test_case2_explicit(self, hb23):
        u, v = (2, (0, 0)), (2, (2, 0b110))
        family, info = disjoint_paths_with_info(hb23, u, v)
        assert info["case"] == 2
        assert info["method"] == "constructive"
        verify_disjoint_paths(hb23, u, v, family)
        in_copy = sum(1 for p in family if all(x[0] == u[0] for x in p))
        assert in_copy == 4

    def test_case3_generic_uses_construction(self):
        hb = HyperButterfly(3, 4)
        u = (0, (0, 0))
        v = (0b111, (2, 0b1001))  # distance-3 cube part, non-adjacent fly part
        family, info = disjoint_paths_with_info(hb, u, v)
        assert info["case"] == 3
        assert info["method"] == "constructive"
        verify_disjoint_paths(hb, u, v, family)

    def test_case1_length_bounds(self, hb23, rng):
        """Theorem 5's proof: case 1 paths have length <= m + 2 (cube family)
        and cube-route + 2 (detours)."""
        nodes = [v for v in hb23.nodes()]
        for _ in range(10):
            b = rng.choice(nodes)[1]
            h1, h2 = rng.sample(range(4), 2)
            u, v = (h1, b), (h2, b)
            family, info = disjoint_paths_with_info(hb23, u, v)
            if info["method"] != "constructive":
                continue
            d = (h1 ^ h2).bit_count()
            for p in family:
                assert len(p) - 1 <= d + 2


class TestCornerRepairs:
    def test_dist1_corner_repaired_for_m_ge_2(self):
        hb = HyperButterfly(2, 4)
        u = (0, (0, 0))
        v = (1, (2, 0b0110))  # cube distance exactly 1
        family, info = disjoint_paths_with_info(hb, u, v)
        verify_disjoint_paths(hb, u, v, family)
        assert info["method"] == "constructive"

    def test_adjacent_fly_corner_repaired(self):
        hb = HyperButterfly(2, 4)
        u = (0, (0, 0))
        bj = hb.fly_group.multiply((0, 0), hb.fly_group.g())
        v = (3, bj)  # butterfly parts adjacent, cube distance 2
        family, info = disjoint_paths_with_info(hb, u, v)
        verify_disjoint_paths(hb, u, v, family)
        assert info["method"] == "constructive"

    def test_m1_dist1_corner_falls_back_to_flow(self, hb13):
        u = (0, (0, 0))
        v = (1, (1, 0b001))
        family, info = disjoint_paths_with_info(hb13, u, v)
        verify_disjoint_paths(hb13, u, v, family)
        assert info["method"] == "flow"
        assert "no copy-local repair" in info["fallback_reason"]

    def test_double_corner_falls_back_to_global_family(self):
        """Both corners at once: the repairs compete for v's butterfly
        entries, so the fly tails fail and the global family answers."""
        hb = HyperButterfly(3, 4)
        u = (0, (0, 0))
        h2 = 0b010  # dist(h, h') = 1
        for b2 in hb.butterfly.neighbors(u[1]):
            v = (h2, b2)
            family, info = disjoint_paths_with_info(hb, u, v)
            verify_disjoint_paths(hb, u, v, family)
            assert info["method"] == "flow"
            assert info["fallback_reason"] == "only 2 of 3 node-to-set paths exist"

    def test_constructive_mode_raises_on_unrepairable_corner(self, hb13):
        u = (0, (0, 0))
        v = (1, (1, 0b001))
        with pytest.raises(RoutingError):
            disjoint_paths(hb13, u, v, method="constructive")


def _reference_shortest_path(self, source, target, *, blocked=None, backend=None):
    return _reference_bfs.bfs_shortest_path(
        self.topology, source, target, frozenset(blocked or ())
    )


# the segment search takes and returns ranks: these put a rank edge on the
# label-level reference BFS and kernel
_reference_segment = _label_edge.shortest_path_on_ranks(_reference_bfs.bfs_shortest_path)
_kernel_segment = _label_edge.shortest_path_on_ranks(
    lambda topology, source, target, blocked: topology.bfs_shortest_path(
        source, target, blocked=blocked
    )
)


#: the module that builds the families (``repro.core`` re-exports its name)
_MODULE = sys.modules[_Case3Builder.__module__]


class _ReferenceTies:
    """Reruns a class's tests with every shortest path answered by the
    reference queue BFS, which breaks ties in discovery order (each row in
    generator order) where the kernels break them in rank order: Theorem 5
    families must stay valid whichever shortest segments they are built on.
    ``_fly_segment`` runs its own search, so that is patched as well."""

    @pytest.fixture(autouse=True)
    def _reference_ties(self, monkeypatch):
        monkeypatch.setattr(FastGraph, "shortest_path", _reference_shortest_path)
        monkeypatch.setattr(_MODULE, "pruned_shortest_path", _reference_segment)


class TestFamiliesReferenceTies(_ReferenceTies, TestFamilies):
    def test_segments_follow_the_reference(self, monkeypatch):
        """The patches are live and change segments: the kernels pick
        another tie on some ``B_4`` pairs, and ``_fly_segment`` follows the
        reference too."""
        hb = HyperButterfly(2, 4)
        fly = hb.butterfly
        nodes = list(fly.nodes())
        pairs = [(nodes[0], v) for v in nodes[1:]]
        patched = [fly.bfs_shortest_path(u, v) for u, v in pairs]
        expected = [_reference_bfs.bfs_shortest_path(fly, u, v) for u, v in pairs]
        assert patched == expected
        unrank = get_fastgraph(fly).codec.unrank

        def segments():  # _fly_segment answers in ranks
            return [
                [unrank(r) for r in _Case3Builder(hb, (0, u), (3, v))._fly_segment(frozenset())]
                for u, v in pairs
            ]

        assert segments() == expected
        monkeypatch.undo()
        assert patched != [fly.bfs_shortest_path(u, v) for u, v in pairs]
        assert segments() != expected


class TestCornerRepairsReferenceTies(_ReferenceTies, TestCornerRepairs):
    pass


class TestFlowMethod:
    def test_flow_always_succeeds(self, hb23, rng):
        nodes = list(hb23.nodes())
        for _ in range(8):
            u, v = rng.sample(nodes, 2)
            family = disjoint_paths(hb23, u, v, method="flow")
            verify_disjoint_paths(hb23, u, v, family)

    @pytest.mark.parametrize("method", ["global", "Flow", ""])
    def test_unknown_method_rejected(self, hb23, method):
        u, v = (0, (0, 0)), (1, (0, 0))
        with pytest.raises(InvalidParameterError, match=repr(method)):
            disjoint_paths(hb23, u, v, method=method)
        with pytest.raises(InvalidParameterError, match="expected 'auto'"):
            disjoint_paths_with_info(hb23, u, v, method=method)

    def test_corollary1_connectivity_exact(self, hb13):
        """Corollary 1: kappa(HB) = m + 4 — verified by exact max-flow."""
        assert nx.node_connectivity(hb13.to_networkx()) == hb13.m + 4


class TestVerifier:
    def test_rejects_wrong_count(self, hb23):
        u, v = (0, (0, 0)), (1, (0, 0))
        family = disjoint_paths(hb23, u, v)
        with pytest.raises(RoutingError):
            verify_disjoint_paths(hb23, u, v, family[:-1])

    def test_rejects_shared_interior(self, hb23):
        u, v = (0, (0, 0)), (3, (0, 0))
        family = disjoint_paths(hb23, u, v)
        tampered = [list(p) for p in family]
        tampered[0] = tampered[1]  # duplicate path => shared interiors
        with pytest.raises(RoutingError):
            verify_disjoint_paths(hb23, u, v, tampered)


class TestVerifierChecks:
    """Every check of the per-path validation survives the O(1) hop test."""

    U, V = (0, (0, 0)), (3, (2, 0b010))

    def _family(self, hb23):
        return [list(p) for p in disjoint_paths(hb23, self.U, self.V)]

    @pytest.mark.parametrize(
        ("tamper", "error", "match"),
        [
            (lambda p: p.clear(), RoutingError, "empty path"),
            (lambda p: p.insert(1, (9, (0, 0))), InvalidLabelError, "not a node"),
            (lambda p: p.insert(0, (1, (0, 0))), RoutingError, "path starts at"),
            (lambda p: p.append((1, (0, 0))), RoutingError, "path ends at"),
            (lambda p: p.pop(1), RoutingError, "is not an edge"),
            (lambda p: p.insert(2, p[1]), RoutingError, "is not an edge"),
        ],
    )
    def test_tampered_path_rejected(self, hb23, tamper, error, match):
        family = self._family(hb23)
        longest = max(family, key=len)
        tamper(longest)
        with pytest.raises(error, match=match):
            verify_disjoint_paths(hb23, self.U, self.V, family)

    def test_revisit_rejected(self, hb23):
        family = self._family(hb23)
        path = max(family, key=len)
        path[3:3] = [path[1], path[2]]  # a -> b -> a -> b: every hop an edge
        with pytest.raises(RoutingError, match="revisits a vertex"):
            verify_disjoint_paths(hb23, self.U, self.V, family)

    def test_valid_family_accepted(self, hb23):
        verify_disjoint_paths(hb23, self.U, self.V, self._family(hb23))


def _reference_verify(hb, u, v, paths):
    """The label-level check the rank-level one replaced: ``validate_node``
    per distinct vertex and ``HyperButterfly.adjacent`` per hop."""
    expected = hb.m + 4
    if len(paths) != expected:
        raise RoutingError(f"expected {expected} paths, got {len(paths)}")
    seen: set = set()
    for path in paths:
        if not path:
            raise RoutingError("empty path")
        for x in path:
            if x not in seen:
                hb.validate_node(x)
                seen.add(x)
        if path[0] != u:
            raise RoutingError(f"path starts at {path[0]!r}, expected {u!r}")
        if path[-1] != v:
            raise RoutingError(f"path ends at {path[-1]!r}, expected {v!r}")
        for a, b in zip(path, path[1:], strict=False):
            if not hb.adjacent(a, b):
                raise RoutingError(f"{a!r} -> {b!r} is not an edge of {hb.name}")
        if len(set(path)) != len(path):
            raise RoutingError("path revisits a vertex")
    if not paths_internally_disjoint(paths):
        raise RoutingError("paths are not internally disjoint")


def _verdict(check, *args):
    try:
        check(*args)
    except (RoutingError, InvalidLabelError) as exc:
        return type(exc), str(exc)
    return None


_PATH_TAMPERS = {
    "empty": lambda p, o: p.clear(),
    "non-node": lambda p, o: p.insert(1, (9, (0, 0))),
    "bad fly word": lambda p, o: p.insert(1, (0, (0, 0b1000))),
    "bad level": lambda p, o: p.insert(1, (0, (3, 0))),
    "not a pair": lambda p, o: p.insert(1, "x"),
    "start": lambda p, o: p.insert(0, p[1]),
    "end": lambda p, o: p.append(p[-2]),
    "skipped hop": lambda p, o: p.pop(1),
    "self loop": lambda p, o: p.insert(2, p[1]),
    "revisit": lambda p, o: p.__setitem__(slice(3, 3), [p[1], p[2]]),
    "shared": lambda p, o: p.__setitem__(slice(None), o),
}


_FAULT_KINDS = (
    "paths, got",
    "empty path",
    "is not a node",
    "path starts at",
    "path ends at",
    "is not an edge",
    "revisits a vertex",
    "not internally disjoint",
)


class TestRankLevelVerifier:
    """The rank-level check raises what the label-level one raised, type
    and message, for every single fault."""

    PAIRS = [
        ((0, (0, 0)), (3, (0, 0))),  # case 1
        ((1, (0, 0)), (1, (2, 0b101))),  # case 2
        ((0, (0, 0)), (3, (2, 0b010))),  # case 3
        ((0, (0, 0)), (1, (1, 0b000))),  # double corner: global flow
    ]

    @pytest.mark.parametrize(("u", "v"), PAIRS)
    def test_every_single_fault_matches_the_label_check(self, hb23, u, v):
        family = disjoint_paths(hb23, u, v)
        assert _verdict(verify_disjoint_paths, hb23, u, v, family) is None
        bad = [family[:-1], family + [family[0]]]
        for i in range(len(family)):
            for name, tamper in _PATH_TAMPERS.items():
                tampered = [list(p) for p in family]
                if name != "empty" and len(tampered[i]) < 3:
                    continue  # too short to hold the fault
                tamper(tampered[i], family[i - 1])
                bad.append(tampered)
        kinds = set()
        for tampered in bad:
            want = _verdict(_reference_verify, hb23, u, v, tampered)
            assert want is not None
            assert _verdict(verify_disjoint_paths, hb23, u, v, tampered) == want
            kinds.update(kind for kind in _FAULT_KINDS if kind in want[1])
        assert kinds == set(_FAULT_KINDS)

    def test_equal_endpoints_match_the_label_check(self, hb23):
        """With ``u = v`` a path need not have two distinct ends, so the
        whole-family shortcut for simple, disjoint families does not hold;
        the per-path checks decide, as the label check did."""
        u = (0, (0, 0))
        loops = [[u, a, u] for a in hb23.neighbors(u)[:5]]
        for family in ([[u]] * 6, [[u]] + loops):
            want = _verdict(_reference_verify, hb23, u, u, family)
            assert _verdict(verify_disjoint_paths, hb23, u, u, family) == want


class TestSolverAndSegmentReuse:
    def test_families_identical_with_the_reference_solver(self, monkeypatch, rng):
        """The int-native Menger solver builds every family, corners and
        global fallbacks included, exactly as the dict-based one did."""
        pairs = []
        for hb in (HyperButterfly(1, 3), HyperButterfly(2, 3), HyperButterfly(3, 4)):
            nodes = list(hb.nodes())
            u = nodes[0]
            pairs += [(hb, u, v) for v in hb.neighbors(u)]
            corners = [
                (h[0], b[1])
                for h in hb.hypercube_neighbors(u)
                for b in hb.butterfly_neighbors(u)
            ]
            pairs += [(hb, u, v) for v in corners]
            pairs += [(hb, *rng.sample(nodes, 2)) for _ in range(15)]
        got = [disjoint_paths_with_info(hb, u, v) for hb, u, v in pairs]
        module = sys.modules[_Case3Builder.__module__]
        monkeypatch.setattr(
            module,
            "vertex_disjoint_ranks",
            _label_edge.vertex_disjoint_on_ranks(_reference_menger.vertex_disjoint_paths),
        )
        monkeypatch.setattr(
            module,
            "node_to_set_disjoint_paths",
            _label_edge.node_to_set_on_ranks(_reference_menger.node_to_set_disjoint_paths),
        )
        want = [disjoint_paths_with_info(hb, u, v) for hb, u, v in pairs]
        assert got == want
        assert {info["method"] for _, info in got} == {"constructive", "flow"}

    @pytest.mark.parametrize(
        ("u", "v"),
        [
            ((0, (0, 0)), (0b0011, (2, 0b1001))),  # generic
            ((0, (0, 0)), (0b0001, (2, 0b1001))),  # dist(h, h') = 1
            ((0, (0, 0)), (0b0110, (1, 0b0000))),  # b' adjacent to b
        ],
    )
    def test_cube_first_segments_once_per_block_set(self, monkeypatch, u, v):
        hb = HyperButterfly(4, 4)
        calls = []
        search = _MODULE.pruned_shortest_path

        def counting(*args, **kwargs):
            calls.append(kwargs["blocked"])
            return search(*args, **kwargs)

        monkeypatch.setattr(_MODULE, "pruned_shortest_path", counting)
        builder = _Case3Builder(hb, u, v)
        family = builder.build()  # ranks of hb
        unrank = get_fastgraph(hb).codec.unrank
        verify_disjoint_paths(hb, u, v, [[unrank(r) for r in p] for p in family])
        words = [
            builder.h_fresh if i == builder.i_star else hi
            for i, hi in enumerate(builder.h_neighbors)
        ]
        block_sets = [builder._fly_collision_blocks(hi) for hi in words]
        assert sorted(map(sorted, calls)) == sorted(map(sorted, set(block_sets)))
        assert len(calls) < len(block_sets)  # cube words off every segment share one

        # one kernel BFS per cube-first path gives the same family
        per_path = _Case3Builder(hb, u, v)
        monkeypatch.setattr(
            per_path,
            "_fly_segment",
            lambda blocks: _kernel_segment(hb.butterfly, per_path.y, per_path.y2, blocked=blocks),
        )
        assert per_path.build() == family


def _stub_tails(topology, sources, target, *, blocked=(), to_target=None):
    return [[s, target] for s in sources]


def _segment_queries(monkeypatch, hb, pairs):
    """Every ``(b, b', blocks)`` query ``_fly_segment`` makes while
    building the case-3 pairs among ``pairs``.  The queries never depend on
    the tails or on the segments' answers, so both are stubbed; a pair
    whose real tails fail (a double corner) only adds queries."""
    queries = set()

    def record(topology, source, target, *, blocked=(), to_target=None):
        queries.add((source, target, blocked))
        return [source, target]

    with monkeypatch.context() as patch:
        patch.setattr(_MODULE, "pruned_shortest_path", record)
        patch.setattr(_MODULE, "node_to_set_disjoint_paths", _stub_tails)
        for u, v in pairs:
            if u[0] != v[0] and u[1] != v[1]:  # case 3
                with contextlib.suppress(RoutingError):  # no repair: no segments
                    _Case3Builder(hb, u, v).build()
    return queries


class TestSegmentsEqualTheKernel:
    """``_fly_segment``'s pruned search answers every query as the numpy
    kernels' ``bfs_shortest_path`` would, so every family is the one that
    kernel-built segments give."""

    @pytest.mark.parametrize(("m", "n", "count"), [(2, 3, 200), (3, 4, 200), (4, 7, 300)])
    def test_families_identical_with_kernel_segments(self, monkeypatch, m, n, count):
        hb = HyperButterfly(m, n)
        nodes = list(hb.nodes())
        rng = random.Random(m * 100 + n)
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(count)]
        got = [disjoint_paths_with_info(hb, u, v) for u, v in pairs]
        monkeypatch.setattr(_MODULE, "pruned_shortest_path", _kernel_segment)
        assert got == [disjoint_paths_with_info(hb, u, v) for u, v in pairs]

    @pytest.mark.parametrize(("m", "n"), [(2, 3), (3, 4)])
    def test_every_pair_segment_equals_the_kernel(self, monkeypatch, m, n):
        """Every segment of every pair's family, hence every family.

        The block sets depend on the cube words only through ``h ⊕ h'``
        (cube routes are XOR translates), so the sources ``(0, b)`` issue
        every query that any pair issues; a sample of other sources checks
        that here.
        """
        hb = HyperButterfly(m, n)
        nodes = list(hb.nodes())
        pairs = [(u, v) for u in nodes if u[0] == 0 for v in nodes]
        queries = _segment_queries(monkeypatch, hb, pairs)
        rng = random.Random(n)
        sample = [tuple(rng.sample(nodes, 2)) for _ in range(200)]
        assert _segment_queries(monkeypatch, hb, sample) <= queries
        # one full kernel BFS per (b, blocks) answers every b': a target
        # only stops the kernel after its level, so the parents agree
        # the queries are butterfly ranks
        fly = hb.butterfly
        fast = get_fastgraph(fly)
        to_target = {fast.rank(b2): distances_to(fly, b2) for b2 in fly.nodes()}
        targets: dict = {}
        for b, b2, blocks in queries:
            targets.setdefault((b, blocks), []).append(b2)
        for (b, blocks), b2s in targets.items():
            mask = np.zeros(fast.codec.num_nodes, dtype=bool)
            mask[list(blocks)] = True
            dist, parents = bfs_levels(fast.csr, b, forbidden=mask, want_parents=True)
            kernel = {}
            for b2 in b2s:
                if dist[b2] >= 0:
                    kernel[b2] = [int(r) for r in path_from_parents(parents, b, b2)]
                got = _MODULE.pruned_shortest_path(
                    fly, b, b2, blocked=blocks, to_target=to_target[b2]
                )
                assert got == kernel.get(b2), (b, b2, blocks)
            # the public call runs the same kernel
            public = fly.bfs_shortest_path(
                fast.unrank(b), fast.unrank(b2s[0]), blocked={fast.unrank(x) for x in blocks}
            )
            want = kernel.get(b2s[0])
            assert public == (None if want is None else [fast.unrank(r) for r in want])
