"""Structure faults: generators, lowering, cascades, diameter, campaign."""

from __future__ import annotations

import random

import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.core.resilient import ResilientRouter
from repro.errors import InvalidParameterError
from repro.faults.campaigns import (
    StructureCampaignConfig,
    run_structure_campaign,
    write_campaign_json,
)
from repro.faults.connectivity import connected_under_faults
from repro.faults.model import FaultSet
from repro.faults.structures import (
    CascadeConfig,
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
from repro.topologies.hyperdebruijn import HyperDeBruijn
from tests.topologies import _reference_bfs as reference


@pytest.fixture(scope="module")
def hd23() -> HyperDeBruijn:
    return HyperDeBruijn(2, 3)


def _center(topology):
    return next(iter(topology.nodes()))


class TestGenerators:
    def test_star_radius_zero_is_the_center(self, hb23):
        c = _center(hb23)
        s = star_structure(hb23, c, radius=0)
        assert s.nodes == (c,)
        assert s.kind == "star" and s.center == c

    def test_star_radius_one_is_closed_neighborhood(self, hb23):
        c = _center(hb23)
        s = star_structure(hb23, c, radius=1)
        assert set(s.nodes) == {c, *hb23.neighbors(c)}
        assert s.nodes[0] == c  # center first

    def test_star_balls_are_nested(self, hb23):
        c = _center(hb23)
        small = star_structure(hb23, c, radius=1)
        big = star_structure(hb23, c, radius=2)
        assert small.node_set < big.node_set
        # discovery order: the smaller ball is a prefix of the bigger one
        assert big.nodes[: len(small)] == small.nodes

    def test_path_is_greedy_and_nested(self, cube4):
        c = _center(cube4)
        short = path_structure(cube4, c, length=3)
        long = path_structure(cube4, c, length=5)
        assert long.nodes[:3] == short.nodes
        # consecutive nodes are adjacent
        for a, b in zip(long.nodes, long.nodes[1:], strict=False):
            assert cube4.has_edge(a, b)

    def test_subcube_node_count_and_closure(self, hb23):
        c = _center(hb23)
        s = subcube_structure(hb23, c, dims=2)
        assert len(s) == 4
        # closed under flipping the first two cube bits
        for h, b in s.nodes:
            assert (h ^ 1, b) in s and (h ^ 2, b) in s

    def test_subcube_dims_clamped_to_cube_order(self, hb23):
        c = _center(hb23)
        s = subcube_structure(hb23, c, dims=10)
        assert len(s) == 1 << hb23.m

    def test_subcube_on_plain_hypercube(self, cube4):
        s = subcube_structure(cube4, 0, dims=3)
        assert set(s.nodes) == set(range(8))

    def test_ring_is_the_butterfly_coset(self, hb23):
        c = _center(hb23)
        s = ring_structure(hb23, c)
        assert len(s) == hb23.n
        h0, (_, ci0) = c
        assert all(h == h0 and ci == ci0 for h, (_, ci) in s.nodes)
        # consecutive levels are generator-adjacent, so the coset is a ring
        for a, b in zip(s.nodes, s.nodes[1:], strict=False):
            assert hb23.has_edge(a, b)

    def test_ring_rejects_families_without_butterfly(self, cube4, hd23):
        for topology in (cube4, hd23):
            with pytest.raises(InvalidParameterError):
                ring_structure(topology, _center(topology))

    def test_structure_kinds_per_family(self, hb23, cube4, bf3, hd23):
        assert structure_kinds(hb23) == ("star", "path", "subcube", "ring")
        assert structure_kinds(hd23) == ("star", "path", "subcube")
        assert structure_kinds(cube4) == ("star", "path", "subcube")
        assert structure_kinds(bf3) == ("star", "path", "ring")

    def test_build_structure_rejects_unknown_kind(self, hb23):
        with pytest.raises(InvalidParameterError):
            build_structure(hb23, "blob", _center(hb23))

    def test_generators_validate_the_center(self, hb23):
        from repro.errors import InvalidLabelError

        with pytest.raises(InvalidLabelError):
            star_structure(hb23, ("nope",), radius=1)


class TestLoweringAndPlacement:
    def test_as_fault_set_lowers_to_point_faults(self, hb23):
        s = star_structure(hb23, _center(hb23), radius=1)
        faults = s.as_fault_set()
        assert isinstance(faults, FaultSet)
        assert faults.nodes == s.node_set

    def test_link_lowering_blocks_every_incident_link(self, hb23):
        c = _center(hb23)
        s = star_structure(hb23, c, radius=0)
        links = s.as_link_fault_set()
        assert len(links) == len(list(hb23.neighbors(c)))
        for w in hb23.neighbors(c):
            assert links.blocks(c, w) and links.blocks(w, c)

    def test_boundary_is_sorted_and_healthy(self, hb23):
        s = star_structure(hb23, _center(hb23), radius=1)
        boundary = s.boundary()
        assert list(boundary) == sorted(boundary)
        assert not set(boundary) & s.node_set
        for v in boundary:
            assert any(w in s for w in hb23.neighbors(v))

    def test_random_structures_seeded_and_excluding(self, hb23):
        a = random_structures(hb23, "star", 3, rng=random.Random(7))
        b = random_structures(hb23, "star", 3, rng=random.Random(7))
        c = random_structures(hb23, "star", 3, rng=random.Random(8))
        assert a == b
        assert a != c
        banned = _center(hb23)
        placed = random_structures(
            hb23, "path", 4, size=2, rng=random.Random(1), exclude=[banned]
        )
        assert all(s.center != banned for s in placed)

    def test_union_lowering(self, hb23):
        placed = random_structures(hb23, "ring", 2, rng=random.Random(3))
        faults = union_fault_set(hb23, placed)
        assert faults.nodes == placed[0].node_set | placed[1].node_set
        links = union_link_fault_set(hb23, placed)
        assert links.links == (
            placed[0].as_link_fault_set().links | placed[1].as_link_fault_set().links
        )

    def test_structures_key_caches(self, hb23):
        a = star_structure(hb23, _center(hb23), radius=1)
        b = star_structure(HyperButterfly(2, 3), _center(hb23), radius=1)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestStructureFaultDiameter:
    def test_at_least_fault_free_diameter(self, hb23):
        for kind in structure_kinds(hb23):
            s = build_structure(hb23, kind, _center(hb23), size=1)
            result = structure_fault_diameter(hb23, s)
            assert result.exact and result.connected
            assert result.diameter >= hb23.diameter_formula()
            assert result.survivors == hb23.num_nodes - len(s)
            assert result.sources_examined == result.survivors

    def test_monotone_in_structure_size(self, hb23):
        c = _center(hb23)
        diameters = []
        for radius in (0, 1, 2):
            s = star_structure(hb23, c, radius=radius)
            result = structure_fault_diameter(hb23, s)
            if not result.connected:
                break
            diameters.append(result.diameter)
        assert diameters == sorted(diameters)
        assert len(diameters) >= 2

    @pytest.mark.parametrize("family", ["hb", "hd", "cube"])
    def test_backend_agreement(self, family, hb23, hd23, cube4):
        topology = {"hb": hb23, "hd": hd23, "cube": cube4}[family]
        s = star_structure(topology, _center(topology), radius=1)
        blocked = frozenset(s.nodes)
        dists = [
            reference.bfs_distances(topology, v, blocked)
            for v in topology.nodes()
            if v not in blocked
        ]
        for backend in ("csr", "implicit"):
            result = structure_fault_diameter(topology, s, backend=backend)
            assert result.diameter == max(max(d.values()) for d in dists)
            assert result.connected == all(len(d) == len(dists) for d in dists)
            assert result.survivors == len(dists)

    def test_sampled_mode_is_a_lower_bound(self, hb23):
        s = star_structure(hb23, _center(hb23), radius=1)
        exact = structure_fault_diameter(hb23, s)
        sampled = structure_fault_diameter(hb23, s, source_sample=4)
        assert not sampled.exact
        assert sampled.diameter <= exact.diameter
        assert sampled.sources_examined < exact.sources_examined
        # the boundary hugs the fault, so the bound is tight here
        assert sampled.diameter == exact.diameter

    def test_disconnecting_structure_flagged(self, cube4):
        # failing the full neighborhood ring isolates the antipode-free center
        s = star_structure(cube4, 0, radius=1)
        hollow = [v for v in s.nodes if v != 0]
        carved = FaultSet(cube4, hollow)
        assert not connected_under_faults(cube4, carved)
        from repro.faults.structures import StructureFault

        ring = StructureFault(cube4, "star", hollow[0], hollow)
        result = structure_fault_diameter(cube4, ring)
        assert not result.connected and not result.exact


class TestCascades:
    def test_same_seed_same_trace(self, hb23):
        seeds = random_structures(hb23, "star", 1, rng=random.Random(2))
        config = CascadeConfig(epochs=3, spread=0.4)
        a = run_cascade(hb23, seeds, config, seed=5)
        b = run_cascade(hb23, seeds, config, seed=5)
        assert a.epochs == b.epochs
        c = run_cascade(hb23, seeds, config, seed=6)
        assert a.epochs != c.epochs or a.total_failed == c.total_failed

    def test_zero_spread_never_propagates(self, hb23):
        seeds = random_structures(hb23, "star", 1, rng=random.Random(2))
        trace = run_cascade(hb23, seeds, CascadeConfig(epochs=5, spread=0.0))
        assert len(trace.epochs) == 1
        assert trace.fault_set().nodes == seeds[0].node_set

    def test_full_spread_saturates_unless_capped(self, hb23):
        seeds = [star_structure(hb23, _center(hb23), radius=0)]
        config = CascadeConfig(epochs=2, spread=1.0, max_failed=10)
        trace = run_cascade(hb23, seeds, config)
        assert trace.total_failed >= 10 or len(trace.epochs) == 3

    def test_epoch_prefix_fault_sets_are_monotone(self, hb23):
        seeds = random_structures(hb23, "star", 1, rng=random.Random(2))
        trace = run_cascade(hb23, seeds, CascadeConfig(epochs=3, spread=0.5), seed=1)
        previous = frozenset()
        for i in range(len(trace.epochs)):
            current = trace.fault_set(i).nodes
            assert previous <= current
            previous = current
        assert trace.fault_set().nodes == previous
        assert trace.total_failed == len(previous)

    def test_schedule_lowering_replays_the_trace(self, hb23):
        seeds = random_structures(hb23, "star", 1, rng=random.Random(2))
        config = CascadeConfig(epochs=3, spread=0.5, epoch_time=2.0)
        trace = run_cascade(hb23, seeds, config, seed=1)
        schedule = trace.to_schedule()
        assert len(schedule) == trace.total_failed  # permanent: no repairs
        for i in range(len(trace.epochs)):
            state = schedule.state_at(i * config.epoch_time)
            assert state.faulty_nodes == trace.fault_set(i).nodes

    def test_requires_a_seed_structure(self, hb23):
        with pytest.raises(InvalidParameterError):
            run_cascade(hb23, [], CascadeConfig())

    def test_config_validation(self, hb23):
        seeds = [star_structure(hb23, _center(hb23), radius=0)]
        with pytest.raises(InvalidParameterError):
            run_cascade(hb23, seeds, CascadeConfig(spread=1.5))
        with pytest.raises(InvalidParameterError):
            run_cascade(hb23, seeds, CascadeConfig(epoch_time=0.0))

    def test_schedule_merge_overlays_background_noise(self, hb23):
        from repro.faults.dynamic import FaultSchedule

        seeds = random_structures(hb23, "star", 1, rng=random.Random(2))
        trace = run_cascade(hb23, seeds, CascadeConfig(epochs=2, spread=0.3), seed=1)
        noise = FaultSchedule.generate(
            hb23, rate=0.2, horizon=10.0, seed=3, mode="transient"
        )
        merged = trace.to_schedule().merge(noise)
        assert len(merged) == len(trace.to_schedule()) + len(noise)
        times = [e.time for e in merged]
        assert times == sorted(times)
        other = HyperDeBruijn(2, 3)
        foreign = FaultSchedule(other, ())
        with pytest.raises(InvalidParameterError):
            merged.merge(foreign)


class TestStructureCampaign:
    @pytest.fixture(scope="class")
    def quick_results(self):
        config = StructureCampaignConfig.quick(2, 3, seed=0)
        return run_structure_campaign(config)

    def test_shape(self, quick_results):
        names = [n["name"] for n in quick_results["networks"]]
        assert names == ["HB(2,3)", "HD(2,3)", "H_7"]
        for network in quick_results["networks"]:
            kinds = {row["kind"] for row in network["rows"]}
            assert len(kinds) >= 3  # >= 3 structure types everywhere
            for row in network["rows"]:
                assert row["mean_faulted"] >= 1
                assert 0.0 <= row["connected_fraction"] <= 1.0
        assert quick_results["cascade"]["epochs"][0]["epoch"] == 0
        assert set(quick_results["cascade"]["transport_replay"]) == {
            "no_retry",
            "retry",
        }
        assert quick_results["structure_fault_diameter"]

    def test_hb_rows_report_disjoint_share(self, quick_results):
        hb_rows = quick_results["networks"][0]["rows"]
        assert all(row["disjoint_share"] is not None for row in hb_rows)

    def test_diameter_probe_row(self, quick_results):
        row = quick_results["structure_fault_diameter"][0]
        assert row["structure_fault_diameter"] >= row["fault_free_diameter"]
        assert row["exact"] and row["connected"]

    def test_byte_identical_reruns(self, tmp_path, quick_results):
        config = StructureCampaignConfig.quick(2, 3, seed=0)
        again = run_structure_campaign(config)
        first = write_campaign_json(quick_results, tmp_path / "a.json")
        second = write_campaign_json(again, tmp_path / "b.json")
        assert first == second
        shifted = run_structure_campaign(
            StructureCampaignConfig.quick(2, 3, seed=1)
        )
        assert write_campaign_json(shifted, tmp_path / "c.json") != first


class TestResilientStandingFaults:
    def test_apply_faults_invalidates_in_the_same_call(self, hb23):
        router = ResilientRouter(hb23)
        nodes = list(hb23.nodes())
        u, v = nodes[0], nodes[-1]
        # cut the middle of every disjoint-family member: one fault per
        # path (6 > the m+3 guarantee) forces the adaptive stage
        cut = frozenset(p[len(p) // 2] for p in router._family(u, v))
        assert len(cut) > router.max_guaranteed_faults()
        before = router.route_ex(u, v, node_faults=cut)
        assert before.strategy == "adaptive"
        assert router._adaptive  # adaptive result cached
        ticks = router.invalidations
        # the regression: a whole fault set applied in one call must
        # invalidate without any per-event listener tick firing
        router.apply_faults(node_faults=cut)
        assert router.invalidations == ticks + 1
        assert not router._adaptive
        after = router.route_ex(u, v)  # standing faults, no per-call faults
        assert not set(after.path) & cut
        assert after.path == before.path

    def test_standing_faults_merge_with_per_call(self, hb23):
        router = ResilientRouter(hb23)
        structure = ring_structure(hb23, _center(hb23))
        router.apply_faults(node_faults=structure.node_set)
        nodes = list(hb23.nodes())
        u = next(v for v in nodes if v not in structure)
        v = next(w for w in reversed(nodes) if w not in structure and w != u)
        extra = next(
            w
            for w in hb23.neighbors(u)
            if w not in structure and w not in (u, v)
        )
        outcome = router.route_ex(u, v, node_faults=[extra])
        assert not set(outcome.path) & structure.node_set
        assert extra not in outcome.path
        report = router.reachability(u)
        assert report.node_faults == len(structure.node_set)
        router.clear_faults()
        assert router.standing_node_faults == frozenset()
        clean = router.route_ex(u, v)
        assert clean.length <= outcome.length

    def test_simulator_accepts_equal_topology_by_name(self, hb23):
        from repro.simulation.network import NetworkSimulator
        from repro.simulation.protocols import HBObliviousProtocol

        seeds = random_structures(hb23, "star", 1, rng=random.Random(2))
        trace = run_cascade(
            hb23, seeds, CascadeConfig(epochs=1, spread=0.2), seed=1
        )
        twin = HyperButterfly(2, 3)  # same name, different instance
        sim = NetworkSimulator(
            twin, HBObliviousProtocol(twin), schedule=trace.to_schedule(), seed=0
        )
        sim.inject(*random.Random(0).sample(list(twin.nodes()), 2), at=0.0)
        sim.run()
        assert sim.stats().injected == 1
