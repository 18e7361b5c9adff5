"""Judgement tests for the HB604 dtype rule and the HB7xx concurrency rules.

The generic fixture harness in ``test_rules.py`` proves each rule fires on
its own hit fixture and stays quiet on its clean one; these tests pin the
*specific* decisions — which dtypes, pool lifecycles and worker bodies
count as hazards, and which nearby look-alikes must not.
"""

from __future__ import annotations

from repro.devtools.reprolint import Finding, get_rule, lint_sources

LIB_PATH = "src/repro/_flow_fixture.py"


def _active(
    rule_id: str, source: str, path: str = LIB_PATH
) -> list[Finding]:
    report = lint_sources({path: source}, rules=[get_rule(rule_id)])
    return [f for f in report.findings if f.rule_id == rule_id and f.active]


NP = "import numpy as np\n"
POOL = "from concurrent.futures import ProcessPoolExecutor\n"


class TestPlatformWidth:
    def test_platform_dtype_flagged_in_library(self):
        src = NP + "def f(n):\n    return np.zeros(n, dtype=np.intp)\n"
        assert len(_active("HB604", src)) == 1

    def test_fixed_width_clean(self):
        src = NP + "def f(n):\n    return np.zeros(n, dtype=np.int64)\n"
        assert _active("HB604", src) == []

    def test_tests_are_exempt(self):
        src = NP + "def f(n):\n    return np.zeros(n, dtype=np.intp)\n"
        assert _active("HB604", src, path="tests/test_fixture.py") == []


class TestWorkerGlobals:
    def test_global_statement_in_worker_flagged(self):
        src = POOL + (
            "_COUNT = 0\n"
            "def work(x):\n"
            "    global _COUNT\n"
            "    _COUNT += 1\n"
            "    return x\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, xs))\n"
        )
        assert len(_active("HB702", src)) >= 1

    def test_pure_worker_clean(self):
        src = POOL + (
            "def work(x):\n"
            "    return x * 2\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, xs))\n"
        )
        assert _active("HB702", src) == []


class TestExecutorContext:
    def test_bare_executor_flagged(self):
        src = POOL + (
            "def work(x):\n"
            "    return x\n"
            "def run(xs):\n"
            "    pool = ProcessPoolExecutor()\n"
            "    return list(pool.map(work, xs))\n"
        )
        assert len(_active("HB703", src)) == 1

    def test_with_block_clean(self):
        src = POOL + (
            "def work(x):\n"
            "    return x\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, xs))\n"
        )
        assert _active("HB703", src) == []


class TestExplicitContext:
    def test_missing_mp_context_flagged(self):
        src = POOL + (
            "def run():\n"
            "    with ProcessPoolExecutor(max_workers=2) as pool:\n"
            "        pass\n"
        )
        assert len(_active("HB705", src)) == 1

    def test_mp_context_clean(self):
        src = (
            "import multiprocessing\n"
            + POOL
            + "def run():\n"
            "    ctx = multiprocessing.get_context('spawn')\n"
            "    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:\n"
            "        pass\n"
        )
        assert _active("HB705", src) == []

    def test_thread_pool_exempt(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def run():\n"
            "    with ThreadPoolExecutor(max_workers=2) as pool:\n"
            "        pass\n"
        )
        assert _active("HB705", src) == []
