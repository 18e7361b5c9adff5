"""Concurrency / fork-safety rules (HB7xx).

``fastgraph/parallel.py`` promises bit-identical pooled sweeps for any
job count.  Unpicklable payloads and workers that read a module-level
RNG break that promise loudly: the pool tests fail.  These rules keep
the hazards no test run can see:

* HB702 — worker functions must not mutate module-level state (the
  write stays in the child and diverges from the parent's copy);
* HB703 — executors/pools must be closed via a context manager;
* HB705 — process pools must pin an explicit ``mp_context`` (fork and
  spawn default differently per platform).

All three are file-scoped and library-only, and share one pool scan per
file (:meth:`FileContext.memo <repro.devtools.reprolint.context.
FileContext.memo>`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.devtools.reprolint.context import FileContext
from repro.devtools.reprolint.findings import Finding
from repro.devtools.reprolint.registry import register_rule
from repro.devtools.reprolint.rules.base import FileRule

__all__ = [
    "WorkerGlobalMutationRule",
    "ExecutorContextRule",
    "ExplicitMpContextRule",
]

#: canonical constructors of process-backed pools (fork semantics apply)
_PROCESS_POOLS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

#: all pool constructors (process + thread) for lifecycle rules
_ALL_POOLS = _PROCESS_POOLS | frozenset(
    {
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.pool.ThreadPool",
        "multiprocessing.dummy.Pool",
    }
)

#: pool methods whose first argument is a worker payload
_SUBMIT_METHODS = frozenset(
    {
        "map",
        "submit",
        "imap",
        "imap_unordered",
        "apply",
        "apply_async",
        "starmap",
        "starmap_async",
        "map_async",
    }
)

#: methods that mutate their receiver in place
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "setdefault",
        "insert",
        "remove",
        "discard",
        "clear",
        "pop",
        "popitem",
    }
)


@dataclass
class _PoolScan:
    """Everything the HB7xx rules need to know about one file's pools."""

    #: pool constructor calls: (call node, canonical name)
    constructors: list[tuple[ast.Call, str]] = field(default_factory=list)
    #: ids of the constructor calls opened by a ``with`` item
    with_opened: set[int] = field(default_factory=set)
    #: local names bound to a pool (with ... as p / p = Executor())
    pool_names: set[str] = field(default_factory=set)
    #: payload expressions handed to pools: (expr, how it got there)
    payloads: list[tuple[ast.expr, str]] = field(default_factory=list)
    #: top-level function defs by name
    top_functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: module-level assigned data names (mutation targets for HB702)
    module_names: set[str] = field(default_factory=set)

    def submitted_workers(self) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
        """Top-level functions that run inside pool workers."""
        workers: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for payload, _how in self.payloads:
            if isinstance(payload, ast.Name) and payload.id in self.top_functions:
                workers[payload.id] = self.top_functions[payload.id]
        return workers


def _scan(ctx: FileContext) -> _PoolScan:
    return ctx.memo("pool_scan", lambda: _build_scan(ctx))


def _build_scan(ctx: FileContext) -> _PoolScan:
    scan = _PoolScan()
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan.top_functions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    scan.module_names.add(target.id)

    # breadth-first: a `with` item or an assignment is seen before the
    # constructor call it holds, and before the calls of the block below it
    bound: dict[int, list[ast.expr]] = {}
    for node in ctx.nodes:
        if isinstance(node, ast.withitem):
            scan.with_opened.add(id(node.context_expr))
            if node.optional_vars is not None:
                bound[id(node.context_expr)] = [node.optional_vars]
            continue
        if isinstance(node, ast.Assign):
            bound[id(node.value)] = node.targets
            continue
        if not isinstance(node, ast.Call):
            continue
        canonical = ctx.imports.resolve(node.func)
        if canonical in _ALL_POOLS:
            scan.constructors.append((node, canonical))
            for kw in node.keywords:
                if kw.arg == "initializer":
                    scan.payloads.append((kw.value, "initializer"))
            for target in bound.get(id(node), ()):
                if isinstance(target, ast.Name):
                    scan.pool_names.add(target.id)
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SUBMIT_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in scan.pool_names
            and node.args
        ):
            scan.payloads.append((node.args[0], node.func.attr))
    return scan


@register_rule
class WorkerGlobalMutationRule(FileRule):
    rule_id = "HB702"
    title = "worker functions must not mutate module globals"
    rationale = (
        "a pool worker runs in a child process: writes to module-level "
        "state stay in the child (and under fork silently diverge from "
        "the parent's copy), so results depend on which worker ran which "
        "chunk; pass state through arguments/initargs and return results"
    )

    fixture_hits = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "_cache = {}\n"
        "\n"
        "def chunk(b):\n"
        "    _cache['last'] = b\n"
        "    return b * 2\n"
        "\n"
        "def sweep(bounds):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(chunk, bounds))\n"
    )
    fixture_clean = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def chunk(b):\n"
        "    local = {'last': b}\n"
        "    return local['last'] * 2\n"
        "\n"
        "def sweep(bounds):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(chunk, bounds))\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        scan = _scan(ctx)
        for name, fn in scan.submitted_workers().items():
            local_names = {a.arg for a in _fn_args(fn)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"worker {name!r} rebinds module globals "
                        f"({', '.join(node.names)}); the write stays in "
                        "the child process — return the value instead",
                    )
                    continue
                target = _mutated_module_name(node, scan.module_names)
                if target is not None and target not in local_names:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"worker {name!r} mutates module-level "
                        f"{target!r}; the mutation stays in the child "
                        "process — pass state via initargs and return "
                        "results",
                    )


def _fn_args(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    args = fn.args
    out = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    if args.vararg:
        out.append(args.vararg)
    if args.kwarg:
        out.append(args.kwarg)
    return out


def _mutated_module_name(node: ast.AST, module_names: set[str]) -> str | None:
    """Module-level name this statement mutates, if any."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            base: ast.expr = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if (
                base is not target
                and isinstance(base, ast.Name)
                and base.id in module_names
            ):
                return base.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATING_METHODS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in module_names
    ):
        return node.func.value.id
    return None


@register_rule
class ExecutorContextRule(FileRule):
    rule_id = "HB703"
    title = "executors must be closed via a context manager"
    rationale = (
        "an executor without `with` leaks worker processes on the error "
        "path and makes shutdown timing (and thus artefact completeness) "
        "nondeterministic; `with Executor(...) as pool:` joins workers "
        "deterministically on every exit"
    )

    fixture_hits = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def sweep(bounds, chunk):\n"
        "    pool = ProcessPoolExecutor()\n"
        "    return list(pool.map(chunk, bounds))\n"
    )
    fixture_clean = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def sweep(bounds, chunk):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(chunk, bounds))\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        scan = _scan(ctx)
        for call, canonical in scan.constructors:
            if id(call) in scan.with_opened:
                continue
            yield ctx.finding(
                self.rule_id,
                call,
                f"{canonical.rsplit('.', 1)[-1]} created outside a `with` "
                "block; worker shutdown is then nondeterministic — use "
                "`with ...(...) as pool:`",
            )


@register_rule
class ExplicitMpContextRule(FileRule):
    rule_id = "HB705"
    title = "process pools must pin an explicit start method"
    rationale = (
        "the default multiprocessing start method differs per platform "
        "(fork on Linux, spawn on macOS/Windows) and forked workers "
        "inherit live module state spawn workers rebuild — the same sweep "
        "can differ across machines; pass "
        "mp_context=multiprocessing.get_context('spawn') (or pin fork "
        "deliberately and test the assumption)"
    )

    fixture_hits = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def sweep(bounds, chunk):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(chunk, bounds))\n"
    )
    fixture_clean = (
        "import multiprocessing as mp\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def sweep(bounds, chunk):\n"
        "    context = mp.get_context('spawn')\n"
        "    with ProcessPoolExecutor(mp_context=context) as pool:\n"
        "        return list(pool.map(chunk, bounds))\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        scan = _scan(ctx)
        for call, canonical in scan.constructors:
            if canonical not in _PROCESS_POOLS:
                continue
            kwargs = {kw.arg for kw in call.keywords}
            if "mp_context" in kwargs or "context" in kwargs:
                continue
            yield ctx.finding(
                self.rule_id,
                call,
                f"{canonical.rsplit('.', 1)[-1]} without an explicit "
                "mp_context: the start method (and thus worker state "
                "inheritance) follows the platform default; pass "
                "mp_context=multiprocessing.get_context(...)",
            )
