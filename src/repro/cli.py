"""Command-line interface: ``python -m repro`` / ``hyperbutterfly``.

Subcommands:

* ``info M N``            — closed-form + exact properties of ``HB(M, N)``.
* ``route M N SRC DST``   — shortest route between two formatted labels.
* ``figure1 M N``         — regenerate the paper's Figure 1 at ``(M, N)``.
* ``figure2``             — regenerate the paper's Figure 2 (large; minutes).
* ``faults M N K``        — fault-sweep experiment with up to ``K`` faults.
* ``faults-campaign M N`` — degradation campaign past the ``m + 3``
  guarantee (static sweep on HB/HD/hypercube + transient transport
  comparison), emitting ``BENCH_faults.json``.
* ``structure-campaign M N`` — correlated structure-fault campaign
  (kind × size × count sweep on HB/HD/hypercube, seeded cascade with
  retry-vs-no-retry transport replay, structure-fault diameter probes),
  emitting ``BENCH_structure.json``.
* ``traffic-campaign M N`` — latency-vs-load traffic campaign through the
  vectorized flow engine (workload families × offered loads on
  HB/HD/hypercube with native oblivious routes), emitting
  ``BENCH_traffic.json``.
* ``broadcast M N``       — broadcast round counts under all three models.
* ``metrics FAMILY M [N]`` — exact distance metrics (diameter, average
  distance, full histogram) via the cheapest valid engine: product
  decomposition, single transitive BFS, or the all-sources sweep
  (``--force-bfs`` pins the sweep, ``--backend`` pins the BFS substrate
  — csr or implicit — ``--jobs`` pools it, ``--output`` writes
  sorted JSON).
* ``prove``               — verify the paper invariants of every registered
  family: exhaustive sweeps at the small parameter grids, live
  ``neighbors_block`` range checks at the large ones (``--family``,
  ``--max-bits``, ``--format text|json``, ``--output`` for the proof
  ledger); exit 0 proved / 1 counterexample / 2 error.
* ``lint [PATHS]``        — run the reprolint paper-invariant checks
  (``--format text|json``, ``--baseline``, ``--self-test``,
  ``--list-rules``); exit 0 clean / 1 findings / 2 linter error.
* ``sanitize``            — dynamic determinism check: run JSON-emitting
  targets twice under different ``PYTHONHASHSEED`` values and structurally
  diff the artefacts; exit 0 reproducible / 1 divergent / 2 error.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, TypeVar

from repro import __version__

if TYPE_CHECKING:  # runtime imports stay lazy per subcommand
    from repro.faults.campaigns import CampaignConfig, StructureCampaignConfig
    from repro.topologies.base import Topology

_FaultConfig = TypeVar("_FaultConfig", "CampaignConfig", "StructureCampaignConfig")

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbutterfly",
        description="Hyper-Butterfly Network (Shi & Srimani, IPPS 1998) toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="properties of HB(m, n)")
    p_info.add_argument("m", type=int)
    p_info.add_argument("n", type=int)
    p_info.add_argument(
        "--exact", action="store_true", help="also compute the exact diameter"
    )

    p_route = sub.add_parser("route", help="shortest route between two labels")
    p_route.add_argument("m", type=int)
    p_route.add_argument("n", type=int)
    p_route.add_argument("source", help="label like '(01;abc)'")
    p_route.add_argument("target", help="label like '(10;Bca)'")

    p_f1 = sub.add_parser("figure1", help="regenerate Figure 1 at (m, n)")
    p_f1.add_argument("m", type=int)
    p_f1.add_argument("n", type=int)
    p_f1.add_argument("--verify", action="store_true")

    p_f2 = sub.add_parser("figure2", help="regenerate Figure 2 (slow)")
    p_f2.add_argument(
        "--fast", action="store_true", help="formula diameters instead of exact"
    )

    p_faults = sub.add_parser("faults", help="fault sweep on HB(m, n)")
    p_faults.add_argument("m", type=int)
    p_faults.add_argument("n", type=int)
    p_faults.add_argument("max_faults", type=int)
    p_faults.add_argument("--trials", type=int, default=5)

    p_fc = sub.add_parser(
        "faults-campaign",
        help="degradation campaign past the m+3 guarantee (JSON output)",
    )
    p_fc.add_argument("m", type=int)
    p_fc.add_argument("n", type=int)
    p_fc.add_argument("--seed", type=int, default=0)
    p_fc.add_argument("--trials", type=int, default=None)
    p_fc.add_argument("--pairs", type=int, default=None)
    p_fc.add_argument(
        "--output", default="BENCH_faults.json", help="JSON output path"
    )
    p_fc.add_argument(
        "--quick",
        action="store_true",
        help="seconds-scale sweep (smoke tests / CI)",
    )

    p_sc = sub.add_parser(
        "structure-campaign",
        help="correlated structure-fault campaign: kind x size x count sweep, "
        "cascade replay, structure-fault diameter probes (JSON output)",
    )
    p_sc.add_argument("m", type=int)
    p_sc.add_argument("n", type=int)
    p_sc.add_argument("--seed", type=int, default=0)
    p_sc.add_argument("--trials", type=int, default=None)
    p_sc.add_argument("--pairs", type=int, default=None)
    p_sc.add_argument(
        "--output", default="BENCH_structure.json", help="JSON output path"
    )
    p_sc.add_argument(
        "--quick",
        action="store_true",
        help="seconds-scale sweep (smoke tests / CI)",
    )

    p_tc = sub.add_parser(
        "traffic-campaign",
        help="latency-vs-load traffic sweep through the vectorized flow "
        "engine: workload families x offered loads on HB/HD/hypercube "
        "(JSON output)",
    )
    p_tc.add_argument("m", type=int)
    p_tc.add_argument("n", type=int)
    p_tc.add_argument("--seed", type=int, default=0)
    p_tc.add_argument(
        "--families", default=None, help="comma-separated workload families"
    )
    p_tc.add_argument(
        "--flows-target", type=int, default=None, help="min flows per row"
    )
    p_tc.add_argument(
        "--output", default="BENCH_traffic.json", help="JSON output path"
    )
    p_tc.add_argument(
        "--quick",
        action="store_true",
        help="seconds-scale sweep (smoke tests / CI)",
    )

    p_bc = sub.add_parser("broadcast", help="broadcast rounds on HB(m, n)")
    p_bc.add_argument("m", type=int)
    p_bc.add_argument("n", type=int)

    p_metrics = sub.add_parser(
        "metrics",
        help="exact distance metrics (decomposition / transitive / BFS sweep)",
    )
    p_metrics.add_argument(
        "family", choices=("hb", "hd", "hypercube", "butterfly", "debruijn")
    )
    p_metrics.add_argument("m", type=int, help="first order parameter")
    p_metrics.add_argument(
        "n",
        type=int,
        nargs="?",
        default=None,
        help="second order parameter (hb/hd only)",
    )
    p_metrics.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="process count for the all-sources sweep (default: 1)",
    )
    p_metrics.add_argument(
        "--force-bfs",
        action="store_true",
        help="bypass the decomposition/transitive fast paths (cross-check)",
    )
    p_metrics.add_argument(
        "--backend",
        choices=("auto", "csr", "implicit"),
        default="auto",
        help="pin the BFS substrate (default auto; csr/implicit also "
        "bypass the BFS-free decomposition so the engine actually runs)",
    )
    p_metrics.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the payload as sorted JSON",
    )

    p_prove = sub.add_parser(
        "prove",
        help="verify paper invariants: exhaustive small grids, live "
        "neighbors_block checks at large ones",
    )
    from repro.devtools.reprolint.prove import configure_parser as _configure_prove

    _configure_prove(p_prove)

    p_lint = sub.add_parser(
        "lint", help="run the reprolint paper-invariant static checks"
    )
    from repro.devtools.reprolint.cli import configure_parser as _configure_lint

    _configure_lint(p_lint)

    p_san = sub.add_parser(
        "sanitize",
        help="dynamic determinism check: A/B runs under two PYTHONHASHSEEDs",
    )
    from repro.devtools.sanitize import configure_parser as _configure_sanitize

    _configure_sanitize(p_san)
    return parser


def _cmd_info(args: argparse.Namespace) -> int:
    from repro import HyperButterfly

    hb = HyperButterfly(args.m, args.n)
    print(f"{hb.name}: the hyper-butterfly graph H_{args.m} x B_{args.n}")
    print(f"  nodes            {hb.num_nodes}")
    print(f"  edges            {hb.num_edges}")
    print(f"  degree           {hb.degree_formula} (regular, Cayley)")
    print(f"  diameter         {hb.diameter_formula()} (m + floor(3n/2))")
    print(f"  fault tolerance  {hb.fault_tolerance_formula()} (maximal)")
    if args.exact:
        print(f"  exact diameter   {hb.diameter()} (BFS from identity)")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro import HBRouter, HyperButterfly, parse_hb_node

    hb = HyperButterfly(args.m, args.n)
    source = parse_hb_node(args.source, args.m, args.n)
    target = parse_hb_node(args.target, args.m, args.n)
    result = HBRouter(hb).route(source, target)
    print(f"distance {result.length}")
    for node, gen in zip(result.path, result.generators + [""], strict=True):
        suffix = f"  --{gen}-->" if gen else ""
        print(f"  {hb.format_node(node)}{suffix}")
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.analysis.compare import figure1_table, render_table

    table = figure1_table(args.m, args.n, verify=args.verify)
    print(render_table(table, title=f"Figure 1 at (m={args.m}, n={args.n})"))
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.analysis.compare import figure2_table, render_table

    table = figure2_table(exact_diameters=not args.fast)
    print(render_table(table, title="Figure 2: HB(3,8) vs HD(3,11) vs HD(6,8)"))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro import HyperButterfly
    from repro.faults.experiments import fault_sweep

    hb = HyperButterfly(args.m, args.n)
    results = fault_sweep(
        hb, list(range(args.max_faults + 1)), trials=args.trials
    )
    print(f"fault sweep on {hb.name} (guaranteed tolerance {hb.m + 3} faults)")
    print("faults  connected  disjoint-ok  overhead")
    for r in results:
        print(
            f"{r.faults:6d}  {r.connected_fraction:9.3f}  "
            f"{r.disjoint_success_rate:11.3f}  {r.mean_overhead:8.3f}"
        )
    return 0


def _fault_campaign_config(
    config_cls: type[_FaultConfig], args: argparse.Namespace
) -> _FaultConfig:
    """The quick or full fault-campaign config, with --trials/--pairs."""
    import dataclasses

    if args.quick:
        config = config_cls.quick(args.m, args.n, seed=args.seed)
    else:
        config = config_cls(m=args.m, n=args.n, seed=args.seed)
    overrides = {
        key: getattr(args, key)
        for key in ("trials", "pairs")
        if getattr(args, key) is not None
    }
    return dataclasses.replace(config, **overrides)


def _cmd_faults_campaign(args: argparse.Namespace) -> int:
    from repro.faults.campaigns import (
        CampaignConfig,
        run_campaign,
        write_campaign_json,
    )

    results = run_campaign(_fault_campaign_config(CampaignConfig, args))
    write_campaign_json(results, args.output)
    for network in results["networks"]:
        print(
            f"{network['name']}: {network['num_nodes']} nodes, "
            f"guarantee {network['guaranteed_tolerance']} faults, "
            f"breaking point {network['breaking_point']}"
        )
        print("  faults  delivery  stretch  disjoint-share")
        for row in network["curve"]:
            delivery, stretch, share = (
                float("nan") if row[key] is None else row[key]
                for key in ("delivery_ratio", "mean_stretch", "disjoint_share")
            )
            print(
                f"  {row['faults']:6d}  {delivery:8.3f}  "
                f"{stretch:7.3f}  {share:14.3f}"
            )
    print(f"transient transport on {results['transient']['network']}:")
    print("  rate    no-retry  retry     mean-rexmit")
    for row in results["transient"]["curve"]:
        print(
            f"  {row['rate']:5.2f}  {row['no_retry_delivery']:8.3f}  "
            f"{row['retry_delivery']:8.3f}  {row['mean_retransmissions']:11.3f}"
        )
    print(f"wrote {args.output}")
    return 0


def _cmd_structure_campaign(args: argparse.Namespace) -> int:
    from repro.faults.campaigns import (
        StructureCampaignConfig,
        run_structure_campaign,
        write_campaign_json,
    )

    results = run_structure_campaign(
        _fault_campaign_config(StructureCampaignConfig, args)
    )
    write_campaign_json(results, args.output)
    for network in results["networks"]:
        print(f"{network['name']}: {network['num_nodes']} nodes ({network['scheme']})")
        print("  kind     size  count  faulted  delivery  connected")
        for row in network["rows"]:
            delivery = row["delivery_ratio"]
            print(
                f"  {row['kind']:<8} {row['size']:4d}  {row['count']:5d}  "
                f"{row['mean_faulted']:7.1f}  "
                f"{delivery if delivery is not None else float('nan'):8.3f}  "
                f"{row['connected_fraction']:9.3f}"
            )
    cascade = results["cascade"]
    replay = cascade["transport_replay"]
    print(
        f"cascade on {cascade['network']}: {cascade['total_failed']} failed over "
        f"{len(cascade['epochs'])} epochs; delivery "
        f"no-retry {replay['no_retry']['delivery']:.3f} "
        f"vs retry {replay['retry']['delivery']:.3f}"
    )
    print("structure-fault diameter probes:")
    for row in results["structure_fault_diameter"]:
        mode = "exact" if row["exact"] else "lower bound"
        print(
            f"  {row['name']} ({row['num_nodes']} nodes, {row['backend']}): "
            f"{row['kind']} -> {row['structure_fault_diameter']} "
            f"(fault-free {row['fault_free_diameter']}, {mode})"
        )
    print(f"wrote {args.output}")
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    from repro.devtools.reprolint.prove import run

    return run(args)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.reprolint.cli import run

    return run(args)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.devtools.sanitize import run

    return run(args)


def _metrics_topology(args: argparse.Namespace) -> "Topology":
    """Instantiate the requested family, validating the parameter count."""
    from repro.errors import InvalidParameterError

    if args.family in ("hb", "hd"):
        if args.n is None:
            raise InvalidParameterError(
                f"family {args.family!r} needs both m and n"
            )
        if args.family == "hb":
            from repro import HyperButterfly

            return HyperButterfly(args.m, args.n)
        from repro.topologies.hyperdebruijn import HyperDeBruijn

        return HyperDeBruijn(args.m, args.n)
    if args.n is not None:
        raise InvalidParameterError(
            f"family {args.family!r} takes a single order parameter"
        )
    if args.family == "hypercube":
        from repro.topologies.hypercube import Hypercube

        return Hypercube(args.m)
    if args.family == "butterfly":
        from repro.topologies.butterfly_cayley import CayleyButterfly

        return CayleyButterfly(args.m)
    from repro.topologies.debruijn import DeBruijn

    return DeBruijn(args.m)


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.decompose import leaf_factors
    from repro.analysis.distance_stats import pair_distance_counts
    topology = _metrics_topology(args)
    pinned = args.backend != "auto"
    if args.force_bfs:
        engine = "bfs-sweep"
    elif not pinned and leaf_factors(topology) is not None:
        engine = "decomposition"
    elif topology.is_vertex_transitive:
        engine = "transitive-bfs"
    else:
        engine = "bfs-sweep"
    counts = pair_distance_counts(
        topology,
        jobs=args.jobs,
        force_generic=args.force_bfs,
        backend=args.backend,
    )
    total = sum(counts.values())
    distinct = total - topology.num_nodes
    average = (
        sum(d * c for d, c in counts.items()) / distinct if distinct > 0 else 0.0
    )
    payload = {
        "name": topology.name,
        "family": args.family,
        "engine": engine,
        "backend": args.backend,
        "jobs": args.jobs,
        "num_nodes": topology.num_nodes,
        "diameter": max(counts),
        "average_distance": average,
        "distance_histogram": {str(d): c for d, c in counts.items()},
    }
    print(f"{payload['name']}: exact distance metrics ({engine})")
    print(f"  nodes             {payload['num_nodes']}")
    print(f"  diameter          {payload['diameter']}")
    print(f"  average distance  {payload['average_distance']:.6f}")
    if args.output is not None:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    return 0


def _cmd_traffic_campaign(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.simulation.campaign import (
        TrafficCampaignConfig,
        run_traffic_campaign,
        write_campaign_json,
    )

    if args.quick:
        config = TrafficCampaignConfig.quick(args.m, args.n, seed=args.seed)
    else:
        config = TrafficCampaignConfig(m=args.m, n=args.n, seed=args.seed)
    overrides: dict = {}
    if args.families is not None:
        overrides["families"] = tuple(args.families.split(","))
    if args.flows_target is not None:
        overrides["flows_target"] = args.flows_target
    if overrides:
        config = dataclasses.replace(config, **overrides)
    results = run_traffic_campaign(config)
    write_campaign_json(results, args.output)
    for network in results["networks"]:
        print(f"{network['name']}: {network['num_nodes']} nodes")
        print("  family        saturation  at-load   peak-latency")
        for fam in network["families"]:
            worst = max(row["mean_latency"] for row in fam["curve"])
            print(
                f"  {fam['family']:<12}  {fam['saturation_throughput']:10.4f}  "
                f"{fam['saturation_offered_load']:7.3f}  {worst:12.2f}"
            )
    print(f"wrote {args.output}")
    return 0


def _cmd_broadcast(args: argparse.Namespace) -> int:
    from repro import HyperButterfly, broadcast_rounds
    from repro.core.broadcast import broadcast_lower_bound

    hb = HyperButterfly(args.m, args.n)
    root = hb.identity_node()
    print(f"broadcast on {hb.name} from {hb.format_node(root)}")
    print(f"  lower bound        {broadcast_lower_bound(hb)}")
    print(f"  all-port flooding  {broadcast_rounds(hb, root, model='all-port')}")
    print(f"  single-port greedy {broadcast_rounds(hb, root, model='single-port')}")
    print(f"  structured scheme  {broadcast_rounds(hb, root, model='structured')}")
    return 0


_HANDLERS = {
    "info": _cmd_info,
    "route": _cmd_route,
    "figure1": _cmd_figure1,
    "figure2": _cmd_figure2,
    "faults": _cmd_faults,
    "faults-campaign": _cmd_faults_campaign,
    "structure-campaign": _cmd_structure_campaign,
    "traffic-campaign": _cmd_traffic_campaign,
    "broadcast": _cmd_broadcast,
    "metrics": _cmd_metrics,
    "prove": _cmd_prove,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a library error prints ``<command>: error: …``
    and exits 2."""
    from repro.errors import ReproError
    from repro.fastgraph.guard import install_errstate_from_env

    install_errstate_from_env()  # sanitize --mode overflow trap, else no-op
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
