"""Fixture-driven tests for every reprolint rule.

The generic harness runs each registered rule's own ``fixture_hits`` /
``fixture_clean`` sources through :func:`lint_sources` (what the engine's
``--self-test`` does internally); the per-rule classes then pin down the
specific judgements each rule must make beyond "fires somewhere".
"""

from __future__ import annotations

import pytest

from repro.devtools.reprolint import (
    FileRule,
    Finding,
    all_rules,
    get_rule,
    lint_sources,
    self_test,
)

LIB_PATH = "src/repro/_fixture.py"
TEST_PATH = "tests/test_fixture.py"


def _lint_one(rule_id: str, source: str, path: str = LIB_PATH) -> list[Finding]:
    report = lint_sources({path: source}, rules=[get_rule(rule_id)])
    return [f for f in report.findings if f.rule_id == rule_id]


def _active(rule_id: str, source: str, path: str = LIB_PATH) -> list[Finding]:
    return [f for f in _lint_one(rule_id, source, path) if f.active]


class TestGenericFixtureContract:
    """Every rule must fire on its hit fixture and stay quiet on its clean one."""

    @pytest.mark.parametrize("rule", all_rules(), ids=lambda r: r.rule_id)
    def test_hit_fixture_fires(self, rule):
        if isinstance(rule, FileRule):
            sources = {LIB_PATH: rule.fixture_hits}
        else:
            sources = dict(rule.fixture_hits)
        report = lint_sources(sources, rules=[rule])
        assert any(f.rule_id == rule.rule_id for f in report.active)

    @pytest.mark.parametrize("rule", all_rules(), ids=lambda r: r.rule_id)
    def test_clean_fixture_quiet(self, rule):
        if isinstance(rule, FileRule):
            sources = {LIB_PATH: rule.fixture_clean}
        else:
            sources = dict(rule.fixture_clean)
        report = lint_sources(sources, rules=[rule])
        assert [f for f in report.findings if f.rule_id == rule.rule_id] == []

    def test_engine_self_test(self):
        assert self_test() >= 10

    def test_rule_metadata_complete(self):
        for rule in all_rules():
            assert rule.rule_id.startswith("HB")
            assert rule.title and rule.rationale
            assert rule.group in {
                "determinism",
                "contracts",
                "numerics",
                "architecture",
                "seeding",
                "dtypes",
                "concurrency",
            }


class TestUnseededRandom:
    def test_module_level_call_flagged(self):
        src = "import random\nx = random.random()\n"
        assert len(_active("HB101", src)) == 1

    def test_seeded_constructor_allowed(self):
        src = "import random\nrng = random.Random(42)\nx = rng.random()\n"
        assert _active("HB101", src) == []

    def test_numpy_alias_resolved(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert len(_active("HB101", src)) == 1

    def test_default_rng_allowed(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert _active("HB101", src) == []


class TestWallClock:
    def test_time_time_flagged_in_library(self):
        src = "import time\nt = time.time()\n"
        assert len(_active("HB102", src)) == 1

    def test_perf_counter_allowed(self):
        src = "import time\nt = time.perf_counter()\n"
        assert _active("HB102", src) == []

    def test_tests_are_out_of_scope(self):
        src = "import time\nt = time.time()\n"
        assert _active("HB102", src, path=TEST_PATH) == []


class TestJsonSortKeys:
    def test_dumps_without_sort_keys(self):
        src = "import json\ns = json.dumps({'a': 1})\n"
        assert len(_active("HB103", src)) == 1

    def test_sort_keys_true_allowed(self):
        src = "import json\ns = json.dumps({'a': 1}, sort_keys=True)\n"
        assert _active("HB103", src) == []

    def test_explicit_false_flagged(self):
        src = "import json\ns = json.dumps({'a': 1}, sort_keys=False)\n"
        assert len(_active("HB103", src)) == 1


class TestSetIterationOrder:
    def test_for_over_set_literal(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert len(_active("HB104", src)) == 1

    def test_list_of_set_call(self):
        src = "xs = list(set([3, 1, 2]))\n"
        assert len(_active("HB104", src)) == 1

    def test_sorted_set_allowed(self):
        src = "xs = sorted({3, 1, 2})\n"
        assert _active("HB104", src) == []


class TestEntropySource:
    def test_uuid4_flagged(self):
        src = "import uuid\nident = uuid.uuid4()\n"
        assert len(_active("HB105", src)) == 1

    def test_uuid5_allowed(self):
        src = "import uuid\nident = uuid.uuid5(uuid.NAMESPACE_DNS, 'x')\n"
        assert _active("HB105", src) == []


class TestCodecRegistration:
    def test_unregistered_subclass_flagged(self):
        sources = {
            "src/repro/topologies/base.py": "class Topology:\n    pass\n",
            "src/repro/topologies/ring.py": (
                "from repro.topologies.base import Topology\n"
                "class Ring(Topology):\n"
                "    pass\n"
            ),
        }
        findings = [
            f
            for f in lint_sources(
                sources, rules=[get_rule("HB201")]
            ).active
            if f.rule_id == "HB201"
        ]
        assert len(findings) == 1
        assert "Ring" in findings[0].message

    def test_registration_covers_subclasses_via_mro(self):
        sources = {
            "src/repro/topologies/base.py": "class Topology:\n    pass\n",
            "src/repro/topologies/ring.py": (
                "from repro.topologies.base import Topology\n"
                "class Ring(Topology):\n"
                "    pass\n"
                "class FancyRing(Ring):\n"
                "    pass\n"
            ),
            "src/repro/fastgraph/codecs.py": (
                "def register_codec(name, factory):\n"
                "    pass\n"
                "register_codec('Ring', lambda t: None)\n"
            ),
        }
        report = lint_sources(sources, rules=[get_rule("HB201")])
        assert [f for f in report.active if f.rule_id == "HB201"] == []

    def test_abstract_subclass_exempt(self):
        sources = {
            "src/repro/topologies/base.py": (
                "import abc\n"
                "class Topology:\n"
                "    pass\n"
                "class ProductBase(Topology, abc.ABC):\n"
                "    pass\n"
            ),
        }
        report = lint_sources(sources, rules=[get_rule("HB201")])
        assert [f for f in report.active if f.rule_id == "HB201"] == []


class TestErrorHierarchy:
    def test_bare_valueerror_flagged(self):
        src = "def f(x):\n    raise ValueError('bad')\n"
        assert len(_active("HB202", src)) == 1

    def test_repro_error_allowed(self):
        src = (
            "from repro.errors import InvalidParameterError\n"
            "def f(x):\n"
            "    raise InvalidParameterError('bad')\n"
        )
        assert _active("HB202", src) == []

    def test_reraise_allowed(self):
        src = "def f(x):\n    try:\n        g(x)\n    except KeyError:\n        raise\n"
        assert _active("HB202", src) == []


class TestAllExports:
    def test_unbound_name_in_all(self):
        src = "__all__ = ['missing']\n"
        assert len(_active("HB203", src)) == 1

    def test_package_init_requires_listing(self):
        src = "def helper():\n    pass\n__all__ = []\n"
        findings = _active("HB203", src, path="src/repro/sub/__init__.py")
        assert len(findings) == 1
        assert "helper" in findings[0].message

    def test_future_import_not_a_binding(self):
        src = "from __future__ import annotations\n__all__ = []\n"
        assert _active("HB203", src, path="src/repro/sub/__init__.py") == []


class TestFloatEquality:
    def test_float_literal_equality(self):
        src = "def f(x):\n    return x == 1.5\n"
        assert len(_active("HB301", src)) == 1

    def test_isclose_allowed(self):
        src = "import math\ndef f(x):\n    return math.isclose(x, 1.5)\n"
        assert _active("HB301", src) == []

    def test_integer_equality_allowed(self):
        src = "def f(x):\n    return x == 2\n"
        assert _active("HB301", src) == []


class TestDivisionEquality:
    def test_division_compared_flagged(self):
        src = "def f(a, b, c):\n    return a / b == c\n"
        assert len(_active("HB302", src)) == 1

    def test_floor_division_allowed(self):
        src = "def f(a, b, c):\n    return a // b == c\n"
        assert _active("HB302", src) == []


def _lint_project(rule_id: str, sources: dict[str, str]) -> list[Finding]:
    report = lint_sources(sources, rules=[get_rule(rule_id)])
    return [f for f in report.active if f.rule_id == rule_id]


class TestLayering:
    def test_upward_eager_import_flagged_at_import_line(self):
        findings = _lint_project(
            "HB401",
            {
                "src/repro/topologies/widget.py": (
                    "from repro.simulation.engine import run\n"
                ),
                "src/repro/simulation/engine.py": "def run():\n    pass\n",
            },
        )
        assert len(findings) == 1
        assert findings[0].path == "src/repro/topologies/widget.py"
        assert findings[0].line == 1

    def test_downward_and_same_layer_allowed(self):
        findings = _lint_project(
            "HB401",
            {
                "src/repro/faults/model.py": (
                    "from repro.topologies.base import Topology\n"
                    "from repro.simulation.engine import run\n"
                ),
                "src/repro/topologies/base.py": "class Topology:\n    pass\n",
                "src/repro/simulation/engine.py": "def run():\n    pass\n",
            },
        )
        assert findings == []

    def test_type_checking_import_allowed(self):
        findings = _lint_project(
            "HB401",
            {
                "src/repro/topologies/widget.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.simulation.engine import run\n"
                ),
                "src/repro/simulation/engine.py": "def run():\n    pass\n",
            },
        )
        assert findings == []


class TestImportCycle:
    def test_every_cycle_member_reported_once(self):
        findings = _lint_project(
            "HB402",
            {
                "src/repro/routing/alpha.py": "from repro.routing.beta import b\n",
                "src/repro/routing/beta.py": "from repro.routing.alpha import a\n",
            },
        )
        assert {f.path for f in findings} == {
            "src/repro/routing/alpha.py",
            "src/repro/routing/beta.py",
        }

    def test_deferred_back_edge_is_fine(self):
        findings = _lint_project(
            "HB402",
            {
                "src/repro/routing/alpha.py": "from repro.routing.beta import b\n",
                "src/repro/routing/beta.py": (
                    "def b():\n"
                    "    from repro.routing.alpha import a\n"
                    "    return a\n"
                ),
            },
        )
        assert findings == []


class TestDeadExport:
    ROOT = "src/repro/__init__.py"

    def test_unreferenced_unexported_symbol_flagged(self):
        findings = _lint_project(
            "HB403",
            {
                self.ROOT: "",
                "src/repro/core/stuff.py": (
                    "__all__ = ['used']\n"
                    "def used():\n"
                    "    return 1\n"
                    "def orphan():\n"
                    "    return 2\n"
                ),
            },
        )
        assert len(findings) == 1
        assert "orphan" in findings[0].message

    def test_referenced_symbol_not_dead(self):
        findings = _lint_project(
            "HB403",
            {
                self.ROOT: "",
                "src/repro/core/stuff.py": (
                    "__all__ = []\n"
                    "def helper():\n"
                    "    return 1\n"
                ),
                "src/repro/core/user.py": (
                    "__all__ = []\n"
                    "from repro.core.stuff import helper\n"
                    "x = helper()\n"
                ),
            },
        )
        assert findings == []

    def test_private_names_ignored(self):
        findings = _lint_project(
            "HB403",
            {
                self.ROOT: "",
                "src/repro/core/stuff.py": (
                    "__all__ = []\n"
                    "def _internal():\n"
                    "    return 1\n"
                ),
            },
        )
        assert findings == []


class TestWallClockSeed:
    def test_time_seeded_rng_flagged_even_in_tests(self):
        src = "import random\nimport time\nrng = random.Random(time.time())\n"
        assert len(_active("HB502", src)) == 1
        assert len(_active("HB502", src, path=TEST_PATH)) == 1

    def test_constant_seed_allowed(self):
        src = "import random\nrng = random.Random(42)\n"
        assert _active("HB502", src) == []
