"""Tests for the runtime prover behind ``hyperbutterfly prove``.

Covers the three contract layers: per-family proving (clean families
prove, deliberately broken fixture topologies and codecs produce
concrete counterexample witnesses, at exhaustive and at live large
points), the whole-registry ledger (deterministic, committed at the repo
root, matches a fresh run, flags codec families with no spec), and the
CLI surface (exit codes, JSON output, --family filtering).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.cli import main
from repro.devtools.reprolint.prove import (
    DEFAULT_MAX_BITS,
    INVARIANTS,
    LARGE_NODE_CAP,
    LEDGER_PATH,
    prove,
    prove_family,
)
from repro.fastgraph import codecs
from repro.topologies import invariants
from repro.topologies.invariants import InvariantSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class _Ringlet:
    """A k-cycle: the minimal correct topology fixture."""

    def __init__(self, k):
        self.k = k

    @property
    def num_nodes(self):
        return self.k

    def nodes(self):
        return iter(range(self.k))

    def has_node(self, v):
        return isinstance(v, int) and 0 <= v < self.k

    def neighbors(self, v):
        return [(v + 1) % self.k, (v - 1) % self.k]


class _RingletCodec:
    """The matching correct codec: identity ranks, successor/predecessor rows."""

    def __init__(self, k):
        self.k = k
        self.num_nodes = k

    def rank(self, label):
        return label

    def unrank(self, idx):
        return idx

    def supports_implicit(self):
        return True

    def neighbors_block(self, idx):
        return np.column_stack([(idx + 1) % self.k, (idx - 1) % self.k])


@pytest.fixture
def ringlet_codec(monkeypatch):
    """Register a codec class for ``_Ringlet`` for the test's duration."""

    def register(codec_cls):
        monkeypatch.setitem(codecs._REGISTRY, "_Ringlet", lambda t: codec_cls(t.k))

    return register


def _spec(build, **overrides) -> InvariantSpec:
    fields = dict(
        family=build.__name__,
        params=("k",),
        build=build,
        small=((5,), (8,)),
        degree="2",
    )
    fields.update(overrides)
    return InvariantSpec(**fields)


class TestProveFamily:
    def test_clean_family_proves_topology_invariants(self):
        entry = prove_family(_spec(_Ringlet))
        inv = entry["invariants"]
        for name in ("neighbor-symmetry", "degree-formula", "label-safety"):
            assert inv[name]["status"] == "proved"
            assert inv[name]["exhaustive_points"] == 2
        # no codec registered for the fixture: codec invariants skip
        assert inv["codec-bijectivity"]["status"] == "skipped"
        assert inv["scalar-block-agreement"]["status"] == "skipped"

    def test_self_loop_counterexample_witness(self):
        class _Looped(_Ringlet):
            def neighbors(self, v):
                return [(v + 1) % self.k, v]

        entry = prove_family(_spec(_Looped))
        safety = entry["invariants"]["label-safety"]
        assert safety["status"] == "failed"
        assert safety["witness"]["kind"] == "self-loop"
        assert safety["witness"]["params"] == [5]

    def test_asymmetry_counterexample_witness(self):
        class _OneWay(_Ringlet):
            def neighbors(self, v):
                return [(v + 1) % self.k]

        entry = prove_family(_spec(_OneWay, degree="1"))
        sym = entry["invariants"]["neighbor-symmetry"]
        assert sym["status"] == "failed"
        assert sym["witness"]["kind"] == "asymmetric-edge"

    def test_degree_counterexample_witness(self):
        entry = prove_family(_spec(_Ringlet, degree="3"))
        deg = entry["invariants"]["degree-formula"]
        assert deg["status"] == "failed"
        assert deg["witness"]["kind"] == "degree-out-of-bounds"
        assert deg["witness"]["degree"] == 2
        assert deg["witness"]["expected_min"] == 3

    def test_invalid_label_counterexample_witness(self):
        class _Phantom(_Ringlet):
            def neighbors(self, v):
                return [(v + 1) % self.k, self.k + 7]

        entry = prove_family(_spec(_Phantom))
        safety = entry["invariants"]["label-safety"]
        assert safety["status"] == "failed"
        assert safety["witness"]["kind"] == "invalid-label"

    def test_irregular_family_with_mixed_degrees(self):
        class _Star(_Ringlet):
            def neighbors(self, v):
                if v == 0:
                    return list(range(1, self.k))
                return [0]

        regular = prove_family(_spec(_Star, degree=None))
        assert regular["invariants"]["degree-formula"]["status"] == "failed"
        assert (
            regular["invariants"]["degree-formula"]["witness"]["kind"]
            == "not-regular"
        )
        ranged = prove_family(
            _spec(
                _Star,
                degree=None,
                regular=False,
                degree_min="1",
                degree_max="k - 1",
            )
        )
        assert ranged["invariants"]["degree-formula"]["status"] == "proved"

    def test_out_of_cap_points_are_not_enumerated(self):
        class _Huge(_Ringlet):
            def nodes(self):  # pragma: no cover — must never be called
                raise AssertionError("enumerated a point past the cap")

            neighbors = nodes

        entry = prove_family(
            _spec(_Huge, small=((1 << 20,),)), max_bits=DEFAULT_MAX_BITS
        )
        assert entry["points"]["exhaustive"] == []
        assert entry["points"]["out_of_cap"] == [[1 << 20]]

    def test_clean_codec_proves_every_invariant(self, ringlet_codec):
        ringlet_codec(_RingletCodec)
        entry = prove_family(_spec(_Ringlet, large=((1 << 20,),)))
        assert entry["points"]["large"] == [[1 << 20]]
        for name in INVARIANTS:
            assert entry["invariants"][name]["status"] == "proved", name
        assert entry["invariants"]["label-safety"]["large_points"] == 1
        assert entry["invariants"]["degree-formula"]["large_points"] == 1

    def test_rank_collision_witness(self, ringlet_codec):
        class _Folding(_RingletCodec):
            def rank(self, label):
                return label % (self.k - 1)

        ringlet_codec(_Folding)
        bij = prove_family(_spec(_Ringlet))["invariants"]["codec-bijectivity"]
        assert bij["status"] == "failed"
        assert bij["witness"]["kind"] == "rank-collision"
        assert bij["witness"]["idx"] == 0

    def test_round_trip_witness(self, ringlet_codec):
        class _Shifted(_RingletCodec):
            def unrank(self, idx):
                return (idx + 1) % self.k

        ringlet_codec(_Shifted)
        bij = prove_family(_spec(_Ringlet))["invariants"]["codec-bijectivity"]
        assert bij["status"] == "failed"
        assert bij["witness"]["kind"] == "round-trip-broken"
        assert bij["witness"]["unrank"] == "1"

    def test_block_scalar_divergence_witness(self, ringlet_codec):
        class _Swapped(_RingletCodec):
            def neighbors_block(self, idx):
                return super().neighbors_block(idx)[:, ::-1]

        ringlet_codec(_Swapped)
        agree = prove_family(_spec(_Ringlet))["invariants"]["scalar-block-agreement"]
        assert agree["status"] == "failed"
        assert agree["witness"]["kind"] == "block-scalar-divergence"
        assert agree["witness"]["block_row"] == [4, 1]
        assert agree["witness"]["scalar_ranks"] == [1, 4]

    def test_out_of_range_rank_witness_at_live_large_point(self, ringlet_codec):
        class _NoWrap(_RingletCodec):
            def neighbors_block(self, idx):
                return np.column_stack([idx + 1, (idx - 1) % self.k])

        ringlet_codec(_NoWrap)
        k = 1 << 20
        entry = prove_family(_spec(_Ringlet, small=(), large=((k,),)))
        safety = entry["invariants"]["label-safety"]
        assert safety["status"] == "failed"
        assert safety["witness"] == {
            "params": [k],
            "kind": "out-of-range-rank",
            "idx": k - 1,
            "entry": k,
        }
        # the same rows are still two wide with no padding
        assert entry["invariants"]["degree-formula"]["status"] == "proved"

    def test_padded_row_witness_at_live_large_point(self, ringlet_codec):
        class _Padded(_RingletCodec):
            def neighbors_block(self, idx):
                rows = super().neighbors_block(idx)
                rows[idx == self.k // 2, 1] = -1
                return rows

        ringlet_codec(_Padded)
        k = 1 << 20
        entry = prove_family(_spec(_Ringlet, small=(), large=((k,),)))
        degree = entry["invariants"]["degree-formula"]
        assert degree["status"] == "failed"
        assert degree["witness"] == {
            "params": [k],
            "kind": "padded-row",
            "idx": k // 2,
        }
        assert entry["invariants"]["label-safety"]["status"] == "proved"

    def test_over_cap_large_point_is_not_run(self, ringlet_codec):
        class _Untouchable(_RingletCodec):
            def neighbors_block(self, idx):  # pragma: no cover — must not run
                raise AssertionError("ran a large point past the cap")

        ringlet_codec(_Untouchable)
        over = LARGE_NODE_CAP + 1
        entry = prove_family(_spec(_Ringlet, small=(), large=((over,),)))
        assert entry["points"]["large"] == []
        assert entry["points"]["out_of_cap"] == [[over]]
        assert entry["invariants"]["label-safety"]["status"] == "skipped"


class TestProveRegistry:
    @pytest.fixture(scope="class")
    def ledger(self):
        return prove()

    def test_every_family_every_invariant_holds(self, ledger):
        assert ledger["summary"]["failed"] == 0
        for family, entry in ledger["families"].items():
            for name in INVARIANTS:
                status = entry["invariants"][name]["status"]
                assert status in ("proved", "skipped"), (
                    family,
                    name,
                    entry["invariants"][name],
                )

    def test_paper_families_prove_exhaustively(self, ledger):
        for family in (
            "HyperButterfly",
            "Hypercube",
            "WrappedButterfly",
            "CayleyButterfly",
            "DeBruijn",
            "HyperDeBruijn",
        ):
            inv = ledger["families"][family]["invariants"]
            for name in INVARIANTS:
                assert inv[name]["status"] == "proved", (family, name)

    def test_large_grids_checked_live(self, ledger):
        # HB(8,10) has 2.6M nodes — past enumeration, inside the live cap;
        # HB(5,16) has 33.5M nodes and is past both
        hb = ledger["families"]["HyperButterfly"]
        assert hb["points"]["large"] == [[8, 10]]
        assert hb["points"]["out_of_cap"] == [[5, 16]]
        assert hb["invariants"]["label-safety"]["large_points"] == 1
        assert hb["invariants"]["degree-formula"]["large_points"] == 1
        live = [
            (family, point)
            for family, entry in ledger["families"].items()
            for point in entry["points"]["large"]
        ]
        assert len(live) == 8

    def test_family_filter_and_unknown_family(self, ledger):
        subset = prove(["Hypercube"])
        assert list(subset["families"]) == ["Hypercube"]
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            prove(["NoSuchFamily"])

    def test_committed_ledger_matches_fresh_run(self, ledger):
        committed = json.loads((REPO_ROOT / LEDGER_PATH).read_text())
        assert committed == ledger

    def test_ledger_is_deterministic(self, ledger):
        again = prove()
        assert json.dumps(again, sort_keys=True) == json.dumps(
            ledger, sort_keys=True
        )


class TestProveCLI:
    def test_exit_zero_and_json_shape(self, capsys):
        rc = main(["prove", "--family", "Hypercube", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["failed"] == 0
        assert list(payload["families"]) == ["Hypercube"]

    def test_output_writes_ledger(self, tmp_path, capsys):
        out = tmp_path / "ledger.json"
        rc = main(
            ["prove", "--family", "Cycle", "--output", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["families"]["Cycle"]["invariants"]
        assert payload["version"] == 2

    def test_codec_without_spec_fails(self, monkeypatch, capsys):
        # a two-family registry keeps the whole-registry run cheap
        monkeypatch.setattr(
            invariants, "_SPECS", {"Cycle": invariants.invariant_spec("Cycle")}
        )
        monkeypatch.setattr(
            codecs,
            "_REGISTRY",
            {"Cycle": codecs._REGISTRY["Cycle"], "Phantom": lambda t: None},
        )
        ledger = prove()
        phantom = ledger["families"]["Phantom"]["invariants"]
        assert {inv["status"] for inv in phantom.values()} == {"failed"}
        assert phantom["codec-bijectivity"]["witness"]["kind"] == (
            "missing-invariant-spec"
        )
        assert ledger["summary"]["failed"] == len(INVARIANTS)
        # a --family filter proves only what it names
        assert list(prove(["Cycle"])["families"]) == ["Cycle"]
        assert main(["prove"]) == 1
        assert "Phantom" in capsys.readouterr().out

    def test_unknown_family_exits_two(self, capsys):
        rc = main(["prove", "--family", "NoSuchFamily"])
        assert rc == 2
        assert "unknown families" in capsys.readouterr().err
