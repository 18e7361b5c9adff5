"""Dynamic determinism sanitizer: ``hyperbutterfly sanitize``.

Static rules cannot see through dynamic dispatch, C extensions, or
hash-order leaks that only manifest at runtime.  This module checks the
artefacts themselves: it runs a JSON-emitting
target command **twice in subprocesses under different
``PYTHONHASHSEED`` values** and structurally diffs the two artefacts.  Any
divergence means some output is a function of Python's per-process hash
seed (set iteration order, dict fallback ordering, ``hash()`` leaking into
values) rather than of the experiment's declared seed — exactly the class
of bug that silently invalidates every benchmark comparison in
``BENCH_fastgraph.json`` / ``BENCH_faults.json``.

Default targets:

* the HB(2,3) faults campaign (``faults-campaign 2 3 --quick``), the
  artefact CI smokes;
* a fastgraph metrics dump on HB(2,3) (:func:`metrics_probe` run via
  ``python -c``), covering the analysis/fastgraph layers;
* the metrics CLI on HB(3,5) with ``--force-bfs --jobs 2``, on the CSR
  and on the implicit payload, covering the process-pool sweep path end
  to end (chunked reduction must not leak pool scheduling into the
  artefact).  HB(3,5) has 1,280 nodes, more than one
  :data:`~repro.fastgraph.parallel.DEFAULT_BATCH` chunk, so the pool
  really starts.

A target writes its artefact to the path substituted for ``{out}`` in its
argv; a target with no ``{out}`` placeholder must print JSON on stdout.

``--mode overflow`` runs a different dynamic probe over the same targets:
each is run once clean and once with ``$REPRO_NUMPY_ERRSTATE`` exporting
``over=raise,invalid=raise`` — the CLI entry point, :func:`metrics_probe`,
and every pool-worker initializer install the trap via
:func:`repro.fastgraph.guard.install_errstate_from_env`, so numpy
overflow/invalid warnings that are silently swallowed in stock runs
become hard failures (and the trapped artefact must still be bit-identical
to the clean one).  Array *integer* wraparound stays silent by numpy
design — that class is caught by the tests that pin the sweep's
histograms and eccentricities.

Exit codes mirror ``lint``: ``0`` reproducible, ``1`` divergent (first
divergent JSON path reported) or overflow trapped, ``2`` the sanitizer
itself failed (target crashed outside the trap, output was not JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError

__all__ = [
    "SanitizeError",
    "SanitizeTarget",
    "default_targets",
    "structural_diff",
    "run_target",
    "sanitize",
    "sanitize_overflow",
    "metrics_probe",
    "configure_parser",
    "run",
]

#: hash seeds used when the caller does not override them — different on
#: purpose, so str/bytes hash order differs between the two runs
DEFAULT_HASH_SEEDS = ("0", "1")

#: the ``--mode overflow`` numpy error-state spec (see fastgraph.guard)
OVERFLOW_ERRSTATE = "over=raise,invalid=raise"

_PROBE_SNIPPET = (
    "from repro.devtools.sanitize import metrics_probe; "
    "metrics_probe({out!r}, 2, 3)"
)


class SanitizeError(ReproError):
    """The sanitizer could not run or parse a target."""


@dataclass(frozen=True)
class SanitizeTarget:
    """One JSON-emitting command to check for hash-seed independence."""

    name: str
    #: argv with an optional ``{out}`` placeholder for the artefact path
    argv: tuple[str, ...]

    @property
    def uses_stdout(self) -> bool:
        return not any("{out}" in a for a in self.argv)


def default_targets() -> list[SanitizeTarget]:
    """The stock targets: faults campaign, metrics dump, pooled metrics CLI
    on both the CSR and the implicit (CSR-free) BFS substrates."""
    py = sys.executable
    return [
        SanitizeTarget(
            name="faults-campaign-hb23",
            argv=(
                py, "-m", "repro", "faults-campaign", "2", "3",
                "--quick", "--trials", "1", "--pairs", "4",
                "--output", "{out}",
            ),
        ),
        SanitizeTarget(
            name="structure-campaign-hb23",
            argv=(
                py, "-m", "repro", "structure-campaign", "2", "3",
                "--quick", "--trials", "1", "--pairs", "4",
                "--output", "{out}",
            ),
        ),
        SanitizeTarget(
            name="traffic-campaign-hb23",
            argv=(
                py, "-m", "repro", "traffic-campaign", "2", "3",
                "--quick", "--flows-target", "200",
                "--output", "{out}",
            ),
        ),
        SanitizeTarget(
            name="fastgraph-metrics-hb23",
            argv=(py, "-c", _PROBE_SNIPPET.format(out="{out}")),
        ),
        SanitizeTarget(
            name="metrics-cli-hb35",
            argv=(
                py, "-m", "repro", "metrics", "hb", "3", "5",
                "--force-bfs", "--jobs", "2", "--output", "{out}",
            ),
        ),
        SanitizeTarget(
            name="metrics-cli-implicit-hb35",
            argv=(
                py, "-m", "repro", "metrics", "hb", "3", "5",
                "--backend", "implicit", "--force-bfs", "--jobs", "2",
                "--output", "{out}",
            ),
        ),
    ]


def metrics_probe(out_path: str, m: int, n: int) -> None:
    """Write a fastgraph/analysis metrics dump for ``HB(m, n)`` as JSON.

    Runs inside the sanitizer's subprocesses; everything in the payload
    must be a pure function of ``(m, n)``.
    """
    from repro.fastgraph.guard import install_errstate_from_env

    install_errstate_from_env()  # --mode overflow trap, no-op otherwise
    from repro.analysis.distance_stats import distance_profile
    from repro.analysis.metrics import average_distance, exact_diameter
    from repro.core.hyperbutterfly import HyperButterfly

    hb = HyperButterfly(m, n)
    profile = distance_profile(hb)
    payload = {
        "name": hb.name,
        "num_nodes": hb.num_nodes,
        "num_edges": hb.num_edges,
        "exact_diameter": exact_diameter(hb),
        "average_distance": average_distance(hb, seed=0),
        "distance_histogram": {
            str(d): c for d, c in sorted(profile.histogram.items())
        },
        "diameter_formula": hb.diameter_formula(),
    }
    Path(out_path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


# -- structural JSON diff ----------------------------------------------------


def structural_diff(a: object, b: object, path: str = "$") -> str | None:
    """First divergent JSON path between two parsed documents, or ``None``.

    Comparison is exact (floats included): the repo's claim is *bit*
    reproducibility of artefacts, not tolerance-level agreement.
    """
    if type(a) is not type(b) and not (
        isinstance(a, (int, float))
        and isinstance(b, (int, float))
        and not isinstance(a, bool)
        and not isinstance(b, bool)
    ):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        assert isinstance(b, dict)
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key}: missing on the left"
            if key not in b:
                return f"{path}.{key}: missing on the right"
            hit = structural_diff(a[key], b[key], f"{path}.{key}")
            if hit is not None:
                return hit
        return None
    if isinstance(a, list):
        assert isinstance(b, list)
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b, strict=True)):
            hit = structural_diff(x, y, f"{path}[{i}]")
            if hit is not None:
                return hit
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


# -- running targets ---------------------------------------------------------


def _subprocess_env(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    # make `repro` importable in the child even without an installed package
    src_dir = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
        )
    return env


def run_target(
    target: SanitizeTarget,
    hash_seed: str,
    *,
    timeout: float = 600.0,
    extra_env: dict[str, str] | None = None,
) -> object:
    """Run ``target`` once under ``PYTHONHASHSEED=hash_seed``; parsed JSON.

    ``extra_env`` entries are layered on top (``--mode overflow`` uses it
    to export the numpy error-state trap).
    """
    with tempfile.TemporaryDirectory(prefix="sanitize-") as tmp:
        out_path = os.path.join(tmp, "artefact.json")
        argv = [a.replace("{out}", out_path) for a in target.argv]
        env = _subprocess_env(hash_seed)
        if extra_env:
            env.update(extra_env)
        try:
            proc = subprocess.run(
                argv,
                env=env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise SanitizeError(
                f"target {target.name} failed to run: {exc}"
            ) from exc
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
            raise SanitizeError(
                f"target {target.name} exited {proc.returncode} under "
                f"PYTHONHASHSEED={hash_seed}: " + " | ".join(tail)
            )
        raw = (
            proc.stdout
            if target.uses_stdout
            else _read_artefact(target, out_path)
        )
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SanitizeError(
                f"target {target.name} produced invalid JSON: {exc}"
            ) from exc


def _read_artefact(target: SanitizeTarget, out_path: str) -> str:
    try:
        return Path(out_path).read_text()
    except OSError as exc:
        raise SanitizeError(
            f"target {target.name} wrote no artefact at its {{out}} path: {exc}"
        ) from exc


def sanitize(
    targets: Sequence[SanitizeTarget],
    *,
    hash_seeds: tuple[str, str] = DEFAULT_HASH_SEEDS,
    timeout: float = 600.0,
    echo: bool = True,
) -> int:
    """Run each target under both hash seeds and diff; exit-code semantics."""
    if hash_seeds[0] == hash_seeds[1]:
        raise SanitizeError(
            f"hash seeds must differ to prove anything, got {hash_seeds}"
        )
    divergent = 0
    for target in targets:
        first = run_target(target, hash_seeds[0], timeout=timeout)
        second = run_target(target, hash_seeds[1], timeout=timeout)
        hit = structural_diff(first, second)
        if hit is None:
            if echo:
                print(
                    f"sanitize: {target.name}: reproducible under "
                    f"PYTHONHASHSEED {hash_seeds[0]} vs {hash_seeds[1]}"
                )
        else:
            divergent += 1
            if echo:
                print(
                    f"sanitize: {target.name}: DIVERGENT — first divergent "
                    f"path {hit}"
                )
    return 1 if divergent else 0


def sanitize_overflow(
    targets: Sequence[SanitizeTarget],
    *,
    hash_seed: str = DEFAULT_HASH_SEEDS[0],
    errstate: str = OVERFLOW_ERRSTATE,
    timeout: float = 600.0,
    echo: bool = True,
) -> int:
    """Run each target clean and under the numpy error-state trap.

    A target that crashes only under the trap hit a real numpy
    overflow/invalid the stock run swallowed as a warning; a target whose
    trapped artefact differs from the clean one proves the error state
    leaked into values.  Either counts as a finding (exit ``1``).
    """
    from repro.fastgraph.guard import ERRSTATE_ENV

    findings = 0
    for target in targets:
        clean = run_target(target, hash_seed, timeout=timeout)
        try:
            trapped = run_target(
                target,
                hash_seed,
                timeout=timeout,
                extra_env={ERRSTATE_ENV: errstate},
            )
        except SanitizeError as exc:
            findings += 1
            if echo:
                print(f"sanitize: {target.name}: OVERFLOW TRAPPED — {exc}")
            continue
        hit = structural_diff(clean, trapped)
        if hit is not None:
            findings += 1
            if echo:
                print(
                    f"sanitize: {target.name}: DIVERGENT under the "
                    f"overflow trap — first divergent path {hit}"
                )
        elif echo:
            print(
                f"sanitize: {target.name}: no numpy overflow/invalid "
                f"under {errstate}"
            )
    return 1 if findings else 0


# -- CLI wiring --------------------------------------------------------------


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Add ``sanitize`` arguments onto a (sub)parser."""
    parser.add_argument(
        "--mode",
        choices=("hashseed", "overflow"),
        default="hashseed",
        help=(
            "hashseed: A/B runs under different PYTHONHASHSEED values; "
            "overflow: clean vs numpy over=raise,invalid=raise trap "
            "(default: hashseed)"
        ),
    )
    parser.add_argument(
        "--seeds",
        nargs=2,
        default=list(DEFAULT_HASH_SEEDS),
        metavar=("A", "B"),
        help="the two PYTHONHASHSEED values (default: 0 1)",
    )
    parser.add_argument(
        "--target",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named stock target (repeatable)",
    )
    parser.add_argument(
        "--cmd",
        default=None,
        metavar="COMMAND",
        help=(
            "custom shell-style command to sanitize instead of the stock "
            "targets; write the artefact to the substituted {out} path, or "
            "print JSON on stdout when no {out} appears"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="per-run subprocess timeout in seconds (default: 600)",
    )
    parser.add_argument(
        "--list-targets",
        action="store_true",
        help="print the stock targets and exit",
    )


def _selected_targets(args: argparse.Namespace) -> list[SanitizeTarget]:
    if args.cmd is not None:
        import shlex

        argv = tuple(shlex.split(args.cmd))
        if not argv:
            raise SanitizeError("--cmd is empty")
        return [SanitizeTarget(name="custom", argv=argv)]
    stock = default_targets()
    if not args.target:
        return stock
    by_name = {t.name: t for t in stock}
    missing = [n for n in args.target if n not in by_name]
    if missing:
        raise SanitizeError(
            f"unknown sanitize target(s) {missing}; "
            f"known: {sorted(by_name)}"
        )
    return [by_name[n] for n in args.target]


def run(args: argparse.Namespace) -> int:
    """Execute the sanitize subcommand; returns the process exit code."""
    try:
        if args.list_targets:
            for target in default_targets():
                print(f"{target.name}: {' '.join(target.argv)}")
            return 0
        targets = _selected_targets(args)
        if args.mode == "overflow":
            return sanitize_overflow(
                targets, hash_seed=args.seeds[0], timeout=args.timeout
            )
        return sanitize(
            targets,
            hash_seeds=(args.seeds[0], args.seeds[1]),
            timeout=args.timeout,
        )
    except ReproError as exc:
        print(f"sanitize: error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.devtools.sanitize``)."""
    parser = argparse.ArgumentParser(
        prog="sanitize",
        description="dynamic determinism sanitizer (PYTHONHASHSEED A/B runs)",
    )
    configure_parser(parser)
    return run(parser.parse_args(list(argv) if argv is not None else None))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
