"""Determinism rules (HB1xx).

Every artefact this repo emits — BENCH JSON files, campaign curves, figure
tables — must be byte-reproducible from a seed, because the paper's claims
(degree ``m+4`` regularity, ``m+3`` fault tolerance, Figure 1/2 numbers)
are verified by diffing regenerated outputs.  These rules ban the
classic leaks: ambient RNG state, wall-clock reads, unordered-set
iteration feeding serialisation, unseedable entropy, and (HB502)
generators seeded from the wall clock.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.reprolint.context import FileContext
from repro.devtools.reprolint.findings import Finding
from repro.devtools.reprolint.registry import register_rule
from repro.devtools.reprolint.rules.base import FileRule

__all__ = [
    "UnseededRandomRule",
    "WallClockRule",
    "JsonSortKeysRule",
    "SetIterationOrderRule",
    "EntropySourceRule",
    "WallClockSeedRule",
]

#: constructors on the random / numpy.random modules that take a seed and
#: therefore are the *sanctioned* way to get randomness
_SEEDABLE_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.MT19937",
    "numpy.random.PCG64",
    "numpy.random.Philox",
}

#: clock reads that make a seed unrecordable (HB502)
_WALL_CLOCK_SEEDS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
}


def _is_module_rng_call(canonical: str) -> bool:
    if canonical in _SEEDABLE_CONSTRUCTORS:
        return False
    return canonical.startswith(("random.", "numpy.random."))


@register_rule
class UnseededRandomRule(FileRule):
    rule_id = "HB101"
    title = "no module-level RNG calls"
    rationale = (
        "calls like random.shuffle() or numpy.random.rand() draw from hidden "
        "global state, so campaign/benchmark artefacts stop being a pure "
        "function of their declared seed; construct random.Random(seed) or "
        "numpy.random.default_rng(seed) and pass it down"
    )

    fixture_hits = (
        "import random\n"
        "import numpy as np\n"
        "x = random.random()\n"
        "random.seed(7)\n"
        "y = np.random.rand(3)\n"
    )
    fixture_clean = (
        "import random\n"
        "import numpy as np\n"
        "rng = random.Random(7)\n"
        "gen = np.random.default_rng(7)\n"
        "bits = np.random.MT19937(7)\n"
        "x = rng.random()\n"
        "y = gen.random(3)\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.resolve(node.func)
            if canonical and _is_module_rng_call(canonical):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"module-level RNG call {canonical}() draws from global "
                    f"state; use a seeded random.Random / "
                    f"numpy.random.default_rng instance",
                )


@register_rule
class WallClockRule(FileRule):
    rule_id = "HB102"
    title = "no wall-clock reads in library code"
    rationale = (
        "time.time() / datetime.now() timestamps leak into campaign and "
        "benchmark JSON, breaking byte-for-byte reproducibility of emitted "
        "artefacts; time.perf_counter() (monotonic interval timing) stays "
        "legal for measuring durations"
    )

    _FORBIDDEN = {
        "time.time": "time.time()",
        "time.time_ns": "time.time_ns()",
        "datetime.datetime.now": "datetime.now()",
        "datetime.datetime.utcnow": "datetime.utcnow()",
        "datetime.datetime.today": "datetime.today()",
        "datetime.date.today": "date.today()",
    }

    fixture_hits = (
        "import time\n"
        "import datetime\n"
        "stamp = time.time()\n"
        "when = datetime.datetime.now()\n"
    )
    fixture_clean = (
        "import time\n"
        "elapsed_start = time.perf_counter()\n"
        "elapsed = time.perf_counter() - elapsed_start\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        imports = ctx.imports
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.resolve(node.func)
            if canonical in self._FORBIDDEN:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"wall-clock read {self._FORBIDDEN[canonical]} in library "
                    f"code; emitted artefacts must be reproducible from their "
                    f"seed (use perf_counter for durations)",
                )


@register_rule
class JsonSortKeysRule(FileRule):
    rule_id = "HB103"
    title = "json.dump(s) must pin key order"
    rationale = (
        "benchmark artefacts (BENCH_*.json) are diffed across runs and "
        "machines; without sort_keys=True the serialised key order follows "
        "dict insertion history, so refactors churn the artefact"
    )

    fixture_hits = (
        "import json\n"
        "text = json.dumps({'b': 1, 'a': 2})\n"
    )
    fixture_clean = (
        "import json\n"
        "text = json.dumps({'b': 1, 'a': 2}, sort_keys=True)\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.resolve(node.func)
            if canonical not in ("json.dump", "json.dumps"):
                continue
            sort_kw = next(
                (kw for kw in node.keywords if kw.arg == "sort_keys"), None
            )
            if sort_kw is None:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{canonical.split('.', 1)[1]}() without sort_keys=True; "
                    f"artefact key order must not depend on dict insertion "
                    f"history",
                )
            elif (
                isinstance(sort_kw.value, ast.Constant)
                and sort_kw.value.value is False
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "sort_keys=False explicitly unpins JSON key order",
                )


@register_rule
class SetIterationOrderRule(FileRule):
    rule_id = "HB104"
    title = "no order-dependent iteration over fresh sets"
    rationale = (
        "iterating a set literal / set(...) call, or materialising one with "
        "list()/tuple(), produces hash-seed-dependent order; sort first "
        "(sorted(...)) when the order can reach output, sampling, or "
        "serialisation"
    )

    fixture_hits = (
        "items = list(set([3, 1, 2]))\n"
        "for x in {'b', 'a'}:\n"
        "    print(x)\n"
    )
    fixture_clean = (
        "items = sorted(set([3, 1, 2]))\n"
        "for x in sorted({'b', 'a'}):\n"
        "    print(x)\n"
        "present = 3 in {1, 2, 3}\n"
    )

    @staticmethod
    def _is_fresh_set(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.For) and self._is_fresh_set(node.iter):
                yield ctx.finding(
                    self.rule_id,
                    node.iter,
                    "for-loop over an unordered fresh set; wrap in sorted() "
                    "if order can become observable",
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    if self._is_fresh_set(gen.iter):
                        yield ctx.finding(
                            self.rule_id,
                            gen.iter,
                            "comprehension over an unordered fresh set; wrap "
                            "in sorted() if order can become observable",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and self._is_fresh_set(node.args[0])
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{node.func.id}(set(...)) materialises hash-order; use "
                    f"sorted(...) instead",
                )


@register_rule
class EntropySourceRule(FileRule):
    rule_id = "HB105"
    title = "no unseedable entropy sources"
    rationale = (
        "uuid4 / os.urandom / secrets / random.SystemRandom cannot be seeded "
        "at all, so no suppression-free use can ever be reproducible; derive "
        "identifiers from the experiment's declared seed instead"
    )

    _FORBIDDEN_PREFIXES = ("secrets.",)
    _FORBIDDEN = {"uuid.uuid4", "os.urandom", "random.SystemRandom"}

    fixture_hits = (
        "import uuid\n"
        "import os\n"
        "run_id = uuid.uuid4()\n"
        "blob = os.urandom(16)\n"
    )
    fixture_clean = (
        "import uuid\n"
        "run_id = uuid.UUID(int=42)\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.resolve(node.func)
            if canonical is None:
                continue
            if canonical in self._FORBIDDEN or canonical.startswith(
                self._FORBIDDEN_PREFIXES
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{canonical}() is unseedable entropy; derive values from "
                    f"the experiment seed",
                )


@register_rule
class WallClockSeedRule(FileRule):
    rule_id = "HB502"
    title = "no wall-clock-seeded generators"
    rationale = (
        "seeding from time.time()/datetime.now() records the seed nowhere, "
        "so a failing campaign, test, or benchmark run can never be "
        "replayed; unlike HB102 this applies outside library code too — a "
        "flaky time-seeded test is exactly as undebuggable as a "
        "time-seeded benchmark"
    )

    fixture_hits = (
        "import random\n"
        "import time\n"
        "rng = random.Random(time.time())\n"
    )
    fixture_clean = (
        "import random\n"
        "rng = random.Random(12345)\n"
    )

    @staticmethod
    def _seed_exprs(node: ast.Call) -> Iterator[ast.expr]:
        yield from node.args
        for kw in node.keywords:
            if kw.arg in ("seed", "x"):
                yield kw.value

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.resolve(node.func)
            if canonical not in _SEEDABLE_CONSTRUCTORS:
                continue
            for seed in self._seed_exprs(node):
                for sub in ast.walk(seed):
                    if (
                        isinstance(sub, ast.Call)
                        and imports.resolve(sub.func) in _WALL_CLOCK_SEEDS
                    ):
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            f"{canonical}() seeded from the wall clock; the "
                            f"effective seed is unrecorded, so the run can "
                            f"never be replayed — use an explicit constant "
                            f"or derived seed",
                        )
