"""Benchmark of the hyper-butterfly reproduction: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload traffic-uniform --seed 1 --seconds 10 --trace 0

The program under test is imported from ``src/`` next to this directory.
Everything runs in this one process on one thread.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` makes a separate traced run that
reports the per-layer metrics, self times and the tracing overhead, and
writes its spans to ``.perfbench_out/``.  The last line of standard
output is the result object; the line before it holds provenance,
deterministic counts and timings, kept apart.  Untraced timings are
scaled to a host of fixed speed by a reference loop timed next to each
operation and set-up (:class:`HostSpeed`); the raw figures are printed
with the timings.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fewest timed operations per run, so p90 has at least 10 samples above it
MIN_OPS = 100
#: fresh set-ups per run (at least this many, and until SETUP_BUDGET_S has
#: passed, at most SETUP_MAX); ``setup_s`` is their median
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0
SETUP_MAX = 25
#: single-thread pins for the numeric libraries, applied before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: seconds the reference work takes on the nominal host; untraced timings
#: are scaled to that host (see :class:`HostSpeed`)
REFERENCE_S = 0.010


class HostSpeed:
    """Scales timings to a host of fixed speed.

    A shared host runs the same code up to ~40% faster or slower for
    tens of seconds to minutes at a time, and moves a fixed reference loop
    alike.  The reference work (interpreter dict updates and small numpy
    calls, the mix the workloads' Python-level overhead is made of) runs
    between timed intervals: :meth:`mark` times it once and returns the
    seconds it took.  :meth:`scales` then gives each interval a factor of
    ``REFERENCE_S`` over the median reference time of the marks around
    it, so a single slow mark does not move an interval.  The work never
    touches the program, so a change to the program moves the scaled time
    as it moves the raw one.
    """

    #: marks on each side of an interval that its factor takes the median of
    WINDOW = 3

    def __init__(self) -> None:
        import numpy

        self._block = numpy.arange(4096, dtype=numpy.int64)
        self._unique = numpy.unique
        self.marks: list[float] = []

    def mark(self) -> float:
        """Time the fixed reference work once; returns its seconds."""
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(5000):
            acc[i & 255] = acc.get(i & 255, 0) + i
        for _ in range(50):
            self._unique((self._block * 7) % 977)
        self.marks.append(time.perf_counter() - t0)
        return self.marks[-1]

    def scales(self) -> list[float]:
        """One factor per interval between consecutive marks."""
        w = self.WINDOW
        return [
            REFERENCE_S / statistics.median(self.marks[max(0, i + 1 - w) : i + 1 + w])
            for i in range(len(self.marks) - 1)
        ]


@dataclass
class Outcome:
    """Checked outputs of a run: how many were attempted, how many failed."""

    attempted: int
    failed: int


@dataclass
class Loop:
    """Outcome of timed passes over a workload's input pool."""

    pool: int  # operations per pass
    latencies: list[float] = field(default_factory=list)  # scaled, if a HostSpeed is given
    raw: list[float] = field(default_factory=list)  # as measured, if scaled
    failed: set[int] = field(default_factory=set)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def pass_times(self) -> list[float]:
        """Operation seconds of each whole pass."""
        return [sum(self.latencies[k : k + self.pool]) for k in range(0, self.ops, self.pool)]


def run_passes(wl: Any, state: Any, *, seconds: float = 0.0, min_ops: int = 0,
               passes: int | None = None, tracer: Any = None,
               host: HostSpeed | None = None) -> Loop:
    """Cycle whole passes over ``state.pool`` until ``passes`` are done, or
    else until ``seconds`` have elapsed and ``min_ops`` ops have run.

    Only the operation is timed.  With a ``host``, the reference work is
    marked before the first operation and after each one, and the times
    are scaled once the loop ends (``loop.raw`` keeps them as measured).
    Each output is checked right after its operation; an exception or a
    failed check marks the op failed and the run goes on.
    """
    from spans import maybe_span

    loop = Loop(len(state.pool))
    if host is not None:
        host.mark()
    started = time.perf_counter()
    while True:
        for i in range(loop.pool):
            op = loop.ops
            out = None
            with maybe_span(tracer, wl.root):
                t0 = time.perf_counter()
                try:
                    out = wl.run_op(state, i, tracer)
                except Exception:  # a failing op is a result, not a crash
                    traceback.print_exc(file=sys.stderr)
                t1 = time.perf_counter()
            if host is not None:
                host.mark()
            loop.latencies.append(t1 - t0)
            try:
                ok = out is not None and wl.check(state, op, i, out)
                if ok and tracer is not None:
                    wl.account(state, i, out, tracer)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                loop.failed.add(op)
        if passes is not None:
            if loop.ops >= passes * loop.pool:
                break
        elif time.perf_counter() - started >= seconds and loop.ops >= min_ops:
            break
    if host is not None:
        loop.raw = loop.latencies
        loop.latencies = [t * k for t, k in zip(loop.raw, host.scales(), strict=True)]
    return loop


def crosscheck(wl: Any, state: Any, loop: Loop) -> None:
    try:
        loop.failed |= wl.crosscheck(state)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        loop.failed |= set(range(loop.ops))


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def throughput(wl: Any, state: Any, loop: Loop) -> float:
    """Items per second of operation time: the median over whole passes,
    each of which has the same composition, so a pass slowed by a burst
    of outside load does not move it."""
    items = wl.items_per_op * len(state.pool)
    return statistics.median(items / t for t in loop.pass_times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_revision() -> str:
    """HEAD of the checkout read from ``.git``, without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable: unresolved " + name


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args: argparse.Namespace, cleared: list[str], backends: dict) -> dict:
    import networkx
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ[name] for name in THREAD_VARS},
        "repro_env_cleared": cleared,
        "backends": backends,
    }


def untraced(args: argparse.Namespace, spec: Any) -> tuple[dict, dict, Outcome, dict]:
    toy = spec.toy(args.seed)
    run_passes(toy, toy.setup(), passes=1)  # warm imports and first-call paths
    wl = spec.build(args.seed)
    raw_setups: list[float] = []
    state = None
    setup_host = HostSpeed()
    while len(raw_setups) < SETUP_MAX and (
        len(raw_setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_BUDGET_S
    ):
        state = None
        gc.collect()
        setup_host.mark()
        t0 = time.perf_counter()
        state = wl.setup()
        raw_setups.append(time.perf_counter() - t0)
    setup_host.mark()
    setups = [t * k for t, k in zip(raw_setups, setup_host.scales(), strict=True)]
    loop_host = HostSpeed()
    loop = run_passes(wl, state, seconds=args.seconds, min_ops=MIN_OPS, host=loop_host)
    rss = peak_rss_mib()
    crosscheck(wl, state, loop)
    metrics = {
        "throughput": (throughput(wl, state, loop), "items/s"),
        "latency_ms_p50": (quantile(loop.latencies, 50) * 1e3, "ms"),
        "latency_ms_p90": (quantile(loop.latencies, 90) * 1e3, "ms"),
        "peak_rss_mib": (rss, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "success_ratio": ((loop.ops - len(loop.failed)) / loop.ops, "ratio"),
    }
    counts = {"pool": len(state.pool), "item": spec.item, "items_per_op": wl.items_per_op}
    samples = {"latency": loop.ops, "passes": len(loop.pass_times), "setup": len(setups)}
    timings = {"setup_s_each": setups, "pass_s_each": loop.pass_times,
               "reference_s": {"nominal": REFERENCE_S,
                               "setup_median": statistics.median(setup_host.marks),
                               "loop_median": statistics.median(loop_host.marks)},
               "raw": {"setup_s_median": statistics.median(raw_setups),
                       "latency_ms_p50": quantile(loop.raw, 50) * 1e3,
                       "latency_ms_p90": quantile(loop.raw, 90) * 1e3,
                       "op_s_total": sum(loop.raw)}}
    extra = {"samples": samples, "timings": timings, "backends": wl.backends(state)}
    return metrics, counts, Outcome(loop.ops, len(loop.failed)), extra


def traced(args: argparse.Namespace, spec: Any) -> tuple[dict, dict, Outcome, dict]:
    import layers
    from spans import Tracer

    toy = spec.toy(args.seed)
    run_passes(toy, toy.setup(), passes=1)  # warm imports and first-call paths
    wl = spec.build(args.seed)
    state = wl.setup()
    plain = run_passes(wl, state, passes=1)
    crosscheck(wl, state, plain)

    tracer = Tracer()
    with tracer.active(layers.wraps()):
        with tracer.span("setup"):
            traced_state = wl.setup(tracer)
        loop = run_passes(wl, traced_state, passes=1, tracer=tracer)
        probed = wl.probe(traced_state, tracer)
    crosscheck(wl, traced_state, loop)

    metrics = {name: (m["value"], m["unit"]) for name, m in layers.layer_metrics(tracer).items()}
    traced_tp = throughput(wl, traced_state, loop)
    metrics["trace.throughput"] = (traced_tp, "items/s")
    metrics["trace.overhead_ratio"] = (throughput(wl, state, plain) / traced_tp, "ratio")

    # checked outputs: the untraced pass, the traced pass and the probes
    total = Outcome(plain.ops + loop.ops + len(probed),
                    len(plain.failed) + len(loop.failed) + probed.count(False))
    counts = {"pool": len(traced_state.pool), "item": spec.item, "items_per_op": wl.items_per_op,
              "ops_untraced": plain.ops, "ops_traced": loop.ops, "probe_outputs": len(probed),
              "spans": len(tracer.spans), "counters": dict(tracer.counters)}
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(str(trace_path), {"workload": args.workload, "seed": args.seed})
    extra = {"timings": {"untraced_throughput": throughput(wl, state, plain)},
             "backends": wl.backends(traced_state), "trace_file": str(trace_path)}
    return metrics, counts, total, extra


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate_environment() -> list[str]:
    """Pin one thread per numeric library and unset every ``REPRO_*`` knob,
    so the program runs on its defaults; returns the knobs that were set."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cleared = isolate_environment()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import suite

    spec = suite.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(suite.WORKLOADS)})", file=sys.stderr)
        return 2
    measure = traced if args.trace else untraced
    metrics, counts, outcome, extra = measure(args, spec)
    info = {"provenance": provenance(args, cleared, extra.pop("backends")),
            "counts": counts, **extra}
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
