"""Invariant prover behind ``hyperbutterfly prove``.

The one checker of the paper's structural invariants.  For every
registered :class:`~repro.topologies.invariants.InvariantSpec` it runs
the real topology and codec objects:

* the ``small`` parameter grids are swept **exhaustively** — every
  vertex, every codec index — against five paper invariants (codec
  bijectivity, neighbor symmetry, the paper degree formula,
  self-loop/label-range safety, scalar-vs-block agreement);
* the ``large`` grids up to :data:`LARGE_NODE_CAP` nodes are checked
  **live**: the codec's ``neighbors_block`` runs over the whole rank
  range ``[0, N)`` in chunks of :data:`LARGE_CHUNK` ranks, checking that
  every neighbor rank lies in ``[-1, N)`` (label safety) and, for
  regular families, that every row is exactly the paper degree wide with
  no ``-1`` padding (degree formula).  Larger points are listed as out
  of cap.

Run over the whole registry (no family filter), it also joins the codec
registry against the spec registry: a codec-registered family with no
invariant spec fails every invariant, since none of them is ever checked.

The result is a deterministic *proof ledger* (no timestamps, sorted
keys) suitable for committing — ``.reprolint-proofs.json`` at the repo
root — and diffing in CI.  Statuses per (family, invariant):

* ``proved``  — verified at >= 1 exhaustive or large point
* ``failed``  — a concrete counterexample witness was found
* ``skipped`` — out of model (no codec, no implicit support, …)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from repro.topologies.base import Topology
    from repro.topologies.invariants import InvariantSpec

__all__ = [
    "DEFAULT_MAX_BITS",
    "INVARIANTS",
    "LARGE_NODE_CAP",
    "LEDGER_PATH",
    "prove",
    "prove_family",
    "render_text",
    "configure_parser",
    "run",
]

#: exhaustive sweeps are capped at ``2**max_bits`` nodes per point
DEFAULT_MAX_BITS = 13

#: large points are checked live up to this many nodes
LARGE_NODE_CAP = 1 << 22

#: ranks per ``neighbors_block`` call in a live check (HB(8,10): ~25 MB)
LARGE_CHUNK = 1 << 18

#: the default ledger location, committed at the repo root
LEDGER_PATH = ".reprolint-proofs.json"

#: the five paper invariants, in ledger order
INVARIANTS = (
    "codec-bijectivity",
    "degree-formula",
    "label-safety",
    "neighbor-symmetry",
    "scalar-block-agreement",
)


class _Tally:
    """Per-invariant accumulator across a family's parameter points."""

    __slots__ = ("exhaustive", "large", "skips", "witness")

    def __init__(self) -> None:
        self.exhaustive: list[tuple[int, ...]] = []
        self.large: list[tuple[int, ...]] = []
        self.skips: list[str] = []
        self.witness: dict[str, Any] | None = None

    @property
    def status(self) -> str:
        if self.witness is not None:
            return "failed"
        if self.exhaustive or self.large:
            return "proved"
        return "skipped"

    def fail(self, point: tuple[int, ...], **detail: Any) -> None:
        if self.witness is None:
            self.witness = {"params": list(point), **detail}

    def to_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "status": self.status,
            "exhaustive_points": len(self.exhaustive),
            "large_points": len(self.large),
        }
        if self.witness is not None:
            entry["witness"] = self.witness
        if self.status == "skipped" and self.skips:
            entry["reasons"] = sorted(set(self.skips))
        return entry


# -- exhaustive sweeps (small grids) ----------------------------------------


def _check_exhaustive(
    spec: "InvariantSpec",
    point: tuple[int, ...],
    topo: "Topology",
    tallies: dict[str, _Tally],
) -> None:
    nodes = list(topo.nodes())
    n = topo.num_nodes
    _check_bijectivity(spec, point, topo, nodes, n, tallies["codec-bijectivity"])
    adjacency = {v: list(topo.neighbors(v)) for v in nodes}
    _check_symmetry(point, adjacency, tallies["neighbor-symmetry"])
    _check_degree(spec, point, adjacency, tallies["degree-formula"])
    _check_label_safety(point, topo, adjacency, n, tallies["label-safety"])
    _check_scalar_block(point, topo, adjacency, n, tallies["scalar-block-agreement"])


def _check_bijectivity(
    spec: "InvariantSpec",
    point: tuple[int, ...],
    topo: "Topology",
    nodes: list,
    n: int,
    tally: _Tally,
) -> None:
    if tally.witness is not None:
        return
    if len(nodes) != n:
        tally.fail(point, kind="node-count-mismatch", nodes=len(nodes), num_nodes=n)
        return
    from repro.fastgraph.codecs import codec_for

    codec = codec_for(topo)
    if codec is None:
        tally.skips.append("no registered codec")
        return
    seen: dict[int, Any] = {}
    for v in nodes:
        idx = codec.rank(v)
        if not isinstance(idx, int) or not 0 <= idx < n:
            tally.fail(point, kind="rank-out-of-range", label=repr(v), idx=repr(idx))
            return
        if idx in seen:
            tally.fail(
                point,
                kind="rank-collision",
                idx=idx,
                labels=[repr(seen[idx]), repr(v)],
            )
            return
        seen[idx] = v
        if codec.unrank(idx) != v:
            tally.fail(
                point,
                kind="round-trip-broken",
                label=repr(v),
                idx=idx,
                unrank=repr(codec.unrank(idx)),
            )
            return
    tally.exhaustive.append(point)


def _check_symmetry(
    point: tuple[int, ...], adjacency: dict, tally: _Tally
) -> None:
    if tally.witness is not None:
        return
    for v, nbrs in adjacency.items():
        for u in nbrs:
            back = adjacency.get(u)
            if back is not None and v not in back:
                tally.fail(point, kind="asymmetric-edge", v=repr(v), u=repr(u))
                return
    tally.exhaustive.append(point)


def _check_degree(
    spec: "InvariantSpec",
    point: tuple[int, ...],
    adjacency: dict,
    tally: _Tally,
) -> None:
    if tally.witness is not None:
        return
    lo, hi = spec.degree_bounds_at(point)
    degrees = set()
    for v, nbrs in adjacency.items():
        deg = len(nbrs)
        degrees.add(deg)
        if (lo is not None and deg < lo) or (hi is not None and deg > hi):
            tally.fail(
                point,
                kind="degree-out-of-bounds",
                v=repr(v),
                degree=deg,
                expected_min=lo,
                expected_max=hi,
            )
            return
    if spec.regular and len(degrees) > 1:
        tally.fail(point, kind="not-regular", degrees_seen=sorted(degrees))
        return
    tally.exhaustive.append(point)


def _check_label_safety(
    point: tuple[int, ...],
    topo: "Topology",
    adjacency: dict,
    n: int,
    tally: _Tally,
) -> None:
    if tally.witness is not None:
        return
    for v, nbrs in adjacency.items():
        for u in nbrs:
            if u == v:
                tally.fail(point, kind="self-loop", v=repr(v))
                return
            if not topo.has_node(u):
                tally.fail(point, kind="invalid-label", v=repr(v), u=repr(u))
                return
    for row, entries in _block_rows(topo, n):
        for entry in entries:
            if entry < -1 or entry >= n:
                tally.fail(
                    point, kind="out-of-range-rank", idx=row, entry=int(entry)
                )
                return
    tally.exhaustive.append(point)


def _check_scalar_block(
    point: tuple[int, ...],
    topo: "Topology",
    adjacency: dict,
    n: int,
    tally: _Tally,
) -> None:
    if tally.witness is not None:
        return
    from repro.fastgraph.codecs import codec_for

    codec = codec_for(topo)
    if codec is None:
        tally.skips.append("no registered codec")
        return
    if not codec.supports_implicit():
        tally.skips.append("codec does not support implicit adjacency")
        return
    for idx, entries in _block_rows(topo, n):
        block = [int(e) for e in entries if e >= 0]
        scalar = [codec.rank(u) for u in adjacency[codec.unrank(idx)]]
        if block != scalar:
            tally.fail(
                point,
                kind="block-scalar-divergence",
                idx=idx,
                block_row=block,
                scalar_ranks=scalar,
            )
            return
    tally.exhaustive.append(point)


def _block_rows(topo: "Topology", n: int) -> Iterable[tuple[int, list]]:
    """``(idx, row)`` pairs of the codec's implicit adjacency, if any."""
    from repro.fastgraph.codecs import codec_for

    codec = codec_for(topo)
    if codec is None or not codec.supports_implicit():
        return
    import numpy as np

    rows = codec.neighbors_block(np.arange(n, dtype=np.int64))
    for idx in range(n):
        yield idx, list(rows[idx])


# -- live checks (large grids) ---------------------------------------------


def _check_large(
    spec: "InvariantSpec",
    point: tuple[int, ...],
    topo: "Topology",
    tallies: dict[str, _Tally],
) -> None:
    """Run ``neighbors_block`` over the whole rank range, chunk by chunk.

    Checks two facts at every rank: each neighbor rank lies in
    ``[-1, N)`` (label safety), and — for regular families — the row is
    exactly the paper degree wide with no ``-1`` padding (degree formula).
    """
    import numpy as np

    from repro.fastgraph.codecs import codec_for

    safety = tallies["label-safety"]
    degree = tallies["degree-formula"]
    codec = codec_for(topo)
    if codec is None or not codec.supports_implicit():
        safety.skips.append("no implicit codec for the large-point check")
        return
    n = topo.num_nodes
    expected = spec.degree_at(point) if spec.regular else None
    safe = safety.witness is None
    exact = degree.witness is None and expected is not None
    for start in range(0, n, LARGE_CHUNK):
        if not (safe or exact):
            break
        idx = np.arange(start, min(start + LARGE_CHUNK, n), dtype=np.int64)
        rows = codec.neighbors_block(idx)
        lo, hi = int(rows.min()), int(rows.max())
        if safe and (lo < -1 or hi >= n):
            row, col = (int(x) for x in np.argwhere((rows < -1) | (rows >= n))[0])
            safety.fail(
                point,
                kind="out-of-range-rank",
                idx=start + row,
                entry=int(rows[row, col]),
            )
            safe = False
        if exact and rows.shape[1] != expected:
            degree.fail(
                point, kind="block-width", width=int(rows.shape[1]), expected=expected
            )
            exact = False
        elif exact and lo < 0:
            row = int(np.flatnonzero((rows < 0).any(axis=1))[0])
            degree.fail(point, kind="padded-row", idx=start + row)
            exact = False
    if safe:
        safety.large.append(point)
    if exact:
        degree.large.append(point)


# -- per-family and whole-registry drivers ----------------------------------


def prove_family(
    spec: "InvariantSpec",
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> dict[str, Any]:
    """Prove one family's invariants; returns its ledger entry."""
    node_cap = 1 << max_bits
    tallies = {name: _Tally() for name in INVARIANTS}
    swept: list[tuple[int, ...]] = []
    large: list[tuple[int, ...]] = []
    out_of_cap: list[tuple[int, ...]] = []
    for point in spec.small:
        topo = spec.build_instance(point)
        if topo.num_nodes > node_cap:
            out_of_cap.append(point)
            continue
        swept.append(point)
        _check_exhaustive(spec, point, topo, tallies)
    for point in spec.large:
        topo = spec.build_instance(point)
        if topo.num_nodes > LARGE_NODE_CAP:
            out_of_cap.append(point)
            continue
        large.append(point)
        _check_large(spec, point, topo, tallies)
    return {
        "params": list(spec.params),
        "paper": spec.paper,
        "points": {
            "exhaustive": [list(p) for p in swept],
            "large": [list(p) for p in large],
            "out_of_cap": [list(p) for p in out_of_cap],
        },
        "invariants": {name: tallies[name].to_dict() for name in INVARIANTS},
    }


def prove(
    families: Iterable[str] | None = None,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> dict[str, Any]:
    """Prove every registered family (or a subset); returns the ledger.

    Without a ``families`` filter, codec-registered families that have no
    spec are listed too, failing every invariant.
    """
    import repro  # noqa: F401  — registers every family's invariant spec
    from repro.errors import InvalidParameterError
    from repro.fastgraph.codecs import registered_codec_families
    from repro.topologies.invariants import all_invariant_specs

    specs = all_invariant_specs()
    if families is not None:
        wanted = list(families)
        unknown = sorted(set(wanted) - set(specs))
        if unknown:
            raise InvalidParameterError(
                f"unknown families {unknown}; registered: {sorted(specs)}"
            )
        specs = {name: specs[name] for name in sorted(wanted)}
    entries = {
        name: prove_family(spec, max_bits=max_bits) for name, spec in specs.items()
    }
    if families is None:
        for name in sorted(set(registered_codec_families()) - set(specs)):
            entries[name] = _missing_spec_entry()
    counts = {"proved": 0, "failed": 0, "skipped": 0}
    for entry in entries.values():
        for inv in entry["invariants"].values():
            counts[inv["status"]] += 1
    return {
        "version": 2,
        "max_bits": max_bits,
        "families": dict(sorted(entries.items())),
        "summary": {"families": len(entries), **counts},
    }


def _missing_spec_entry() -> dict[str, Any]:
    """The ledger entry of a codec-registered family with no spec."""
    witness = {"kind": "missing-invariant-spec", "params": []}
    return {
        "params": [],
        "paper": "",
        "points": {"exhaustive": [], "large": [], "out_of_cap": []},
        "invariants": {
            name: {
                "status": "failed",
                "exhaustive_points": 0,
                "large_points": 0,
                "witness": witness,
            }
            for name in INVARIANTS
        },
    }


# -- rendering and CLI ------------------------------------------------------


def render_text(ledger: dict[str, Any]) -> str:
    lines = []
    for family in sorted(ledger["families"]):
        entry = ledger["families"][family]
        params = ", ".join(entry["params"])
        paper = f"  [{entry['paper']}]" if entry["paper"] else ""
        lines.append(f"{family}({params}){paper}")
        points = entry["points"]
        lines.append(
            f"  points: {len(points['exhaustive'])} exhaustive, "
            f"{len(points['large'])} large, "
            f"{len(points['out_of_cap'])} out of cap"
        )
        for name in INVARIANTS:
            inv = entry["invariants"][name]
            detail = ""
            if inv["status"] == "failed":
                detail = f"  {json.dumps(inv['witness'], sort_keys=True)}"
            elif inv["status"] == "skipped" and inv.get("reasons"):
                detail = f"  ({'; '.join(inv['reasons'])})"
            lines.append(f"  {name:<24} {inv['status']}{detail}")
    summary = ledger["summary"]
    lines.append(
        f"{summary['families']} families: {summary['proved']} proved, "
        f"{summary['failed']} failed, {summary['skipped']} skipped"
    )
    return "\n".join(lines)


def write_ledger(ledger: dict[str, Any], path: str | pathlib.Path) -> None:
    pathlib.Path(path).write_text(
        json.dumps(ledger, indent=2, sort_keys=True) + "\n"
    )


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="NAME",
        help="prove only this family (repeatable; default: all registered)",
    )
    parser.add_argument(
        "--max-bits",
        type=int,
        default=DEFAULT_MAX_BITS,
        help=f"exhaustive-sweep cap: at most 2**MAX_BITS nodes per point "
        f"(default {DEFAULT_MAX_BITS}; larger small points are out of cap)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=f"also write the proof ledger as sorted JSON (e.g. {LEDGER_PATH})",
    )


def run(args: argparse.Namespace) -> int:
    """CLI entry point; exit 0 proved / 1 counterexample (``cli.main``
    turns a library error into exit 2)."""
    ledger = prove(args.family, max_bits=args.max_bits)
    if args.fmt == "json":
        print(json.dumps(ledger, indent=2, sort_keys=True))
    else:
        print(render_text(ledger))
    if args.output is not None:
        write_ledger(ledger, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    return 1 if ledger["summary"]["failed"] else 0
