"""Tests for the dynamic determinism sanitizer (PYTHONHASHSEED A/B runs).

The subprocess tests use tiny ``python -c`` targets rather than the stock
targets so the suite stays fast; the stock targets themselves are
exercised by the CI smoke step (``hyperbutterfly sanitize``).
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.devtools.sanitize import (
    OVERFLOW_ERRSTATE,
    SanitizeError,
    SanitizeTarget,
    default_targets,
    metrics_probe,
    run_target,
    sanitize,
    sanitize_overflow,
    structural_diff,
)
from repro.fastgraph.guard import ERRSTATE_ENV
from repro.fastgraph.parallel import DEFAULT_BATCH


class TestStructuralDiff:
    def test_identical_documents(self):
        doc = {"a": [1, {"b": 2.5}], "c": None}
        assert structural_diff(doc, json.loads(json.dumps(doc, sort_keys=True))) is None

    def test_first_divergent_path_nested(self):
        a = {"runs": [{"ok": True}, {"ratio": 0.5}]}
        b = {"runs": [{"ok": True}, {"ratio": 0.75}]}
        hit = structural_diff(a, b)
        assert hit == "$.runs[1].ratio: 0.5 != 0.75"

    def test_missing_key_reported(self):
        assert "missing on the right" in structural_diff({"k": 1}, {})
        assert "missing on the left" in structural_diff({}, {"k": 1})

    def test_list_length_mismatch(self):
        assert "length 2 != 3" in structural_diff({"x": [1, 2]}, {"x": [1, 2, 3]})

    def test_type_mismatch(self):
        assert "type" in structural_diff({"x": "1"}, {"x": 1})

    def test_int_float_cross_type_compares_by_value(self):
        # json round-trips may turn 1.0 into 1; that is not a divergence
        assert structural_diff({"x": 1}, {"x": 1.0}) is None
        assert structural_diff({"x": 1}, {"x": 1.5}) is not None

    def test_bool_is_not_an_int(self):
        assert structural_diff({"x": True}, {"x": 1}) is not None

    def test_float_comparison_is_exact(self):
        hit = structural_diff({"x": 0.1}, {"x": 0.1 + 1e-12})
        assert hit is not None and hit.startswith("$.x")


def _py_target(code: str, name: str = "probe") -> SanitizeTarget:
    return SanitizeTarget(name=name, argv=(sys.executable, "-c", code))


class TestRunTarget:
    def test_stdout_json_captured(self):
        payload = run_target(
            _py_target("import json; print(json.dumps({'v': 7}))"), "0"
        )
        assert payload == {"v": 7}

    def test_out_placeholder_file_read(self):
        target = SanitizeTarget(
            name="writer",
            argv=(
                sys.executable,
                "-c",
                "import sys; open(sys.argv[1], 'w').write('{\"v\": 8}')",
                "{out}",
            ),
        )
        assert run_target(target, "0") == {"v": 8}

    def test_nonzero_exit_raises(self):
        with pytest.raises(SanitizeError, match="exited 3"):
            run_target(_py_target("import sys; sys.exit(3)"), "0")

    def test_invalid_json_raises(self):
        with pytest.raises(SanitizeError, match="invalid JSON"):
            run_target(_py_target("print('not json')"), "0")

    def test_hash_seed_reaches_subprocess(self):
        a = run_target(_py_target("import os, json; print(json.dumps(os.environ['PYTHONHASHSEED']))"), "17")
        assert a == "17"


class TestSanitize:
    def test_deterministic_target_passes(self, capsys):
        code = "import json; print(json.dumps({'v': sorted({3, 1, 2})}))"
        assert sanitize([_py_target(code)]) == 0
        assert "reproducible" in capsys.readouterr().out

    def test_hash_dependent_target_diverges(self, capsys):
        # str hashes depend on PYTHONHASHSEED, so this JSON differs per run
        code = "import json; print(json.dumps({'h': hash('probe')}))"
        assert sanitize([_py_target(code)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGENT" in out and "$.h" in out

    def test_set_iteration_order_leak_diverges(self, capsys):
        # the classic bug the sanitizer exists for: list(set(strings))
        code = (
            "import json; "
            "print(json.dumps(list({'alpha', 'beta', 'gamma', 'delta'})))"
        )
        assert sanitize([_py_target(code)]) == 1

    def test_equal_seeds_rejected(self):
        with pytest.raises(SanitizeError, match="must differ"):
            sanitize([_py_target("print('{}')")], hash_seeds=("4", "4"))


#: a target that installs the guard (like the repro CLI does) and then
#: overflows a float64 — loud only when the trap env var is exported
_OVERFLOWING = (
    "import json; "
    "from repro.fastgraph.guard import install_errstate_from_env; "
    "install_errstate_from_env(); "
    "import numpy as np; "
    "x = np.float64(1e308) * np.float64(10.0); "
    "print(json.dumps({'finite': bool(np.isfinite(x))}))"
)


class TestRunTargetExtraEnv:
    def test_extra_env_reaches_subprocess(self):
        code = (
            "import os, json; "
            f"print(json.dumps(os.environ.get({ERRSTATE_ENV!r})))"
        )
        assert (
            run_target(
                _py_target(code), "0", extra_env={ERRSTATE_ENV: "over=raise"}
            )
            == "over=raise"
        )
        assert run_target(_py_target(code), "0") is None


class TestSanitizeOverflow:
    def test_clean_target_passes(self, capsys):
        code = (
            "import json; "
            "from repro.fastgraph.guard import install_errstate_from_env; "
            "install_errstate_from_env(); "
            "import numpy as np; "
            "print(json.dumps({'v': float(np.float64(2.0) ** 10)}))"
        )
        assert sanitize_overflow([_py_target(code)]) == 0
        assert "no numpy overflow" in capsys.readouterr().out

    def test_swallowed_overflow_is_trapped(self, capsys):
        # stock run: inf + a warning; trapped run: FloatingPointError
        assert sanitize_overflow([_py_target(_OVERFLOWING)]) == 1
        assert "OVERFLOW TRAPPED" in capsys.readouterr().out

    def test_errstate_spec_is_the_guard_protocol(self):
        # the spec shipped to subprocesses parses under the guard itself
        import numpy as np

        from repro.fastgraph.guard import install_errstate_from_env

        saved = np.geterr()
        try:
            import os

            os.environ[ERRSTATE_ENV] = OVERFLOW_ERRSTATE
            assert install_errstate_from_env() is True
            assert np.geterr()["over"] == "raise"
            assert np.geterr()["invalid"] == "raise"
        finally:
            os.environ.pop(ERRSTATE_ENV, None)
            np.seterr(**saved)

    def test_crash_without_trap_is_an_error_not_a_finding(self):
        with pytest.raises(SanitizeError, match="exited"):
            sanitize_overflow([_py_target("import sys; sys.exit(5)")])


class TestDefaultTargets:
    def test_stock_target_shape(self):
        targets = {t.name: t for t in default_targets()}
        assert set(targets) == {
            "faults-campaign-hb23",
            "structure-campaign-hb23",
            "traffic-campaign-hb23",
            "fastgraph-metrics-hb23",
            "metrics-cli-hb35",
            "metrics-cli-implicit-hb35",
        }
        traffic = targets["traffic-campaign-hb23"]
        assert "traffic-campaign" in traffic.argv
        assert not traffic.uses_stdout
        campaign = targets["faults-campaign-hb23"]
        assert "faults-campaign" in campaign.argv
        assert not campaign.uses_stdout  # writes via {out}
        structure = targets["structure-campaign-hb23"]
        assert "structure-campaign" in structure.argv
        assert not structure.uses_stdout
        pooled = targets["metrics-cli-hb35"]
        implicit = targets["metrics-cli-implicit-hb35"]
        # the CSR-free substrate, pooled: pins the codec-payload A/B path
        assert "implicit" in implicit.argv
        for target in (pooled, implicit):
            assert not target.uses_stdout
            argv = list(target.argv)
            assert argv[argv.index("--jobs") + 1] == "2"
            # more sources than one chunk, or parallel_sweep never starts a pool
            m, n = (int(a) for a in argv[argv.index("hb") + 1 : argv.index("hb") + 3])
            assert HyperButterfly(m, n).num_nodes > DEFAULT_BATCH

    def test_metrics_probe_payload(self, tmp_path):
        out = tmp_path / "metrics.json"
        metrics_probe(str(out), 2, 3)
        payload = json.loads(out.read_text())
        # HB(2,3): 2^2 * 3 * 2^3 = 96 nodes, degree m+4=6 -> 288 edges
        assert payload["num_nodes"] == 96
        assert payload["num_edges"] == 96 * 6 // 2
        assert payload["exact_diameter"] <= payload["diameter_formula"]
        assert set(payload["distance_histogram"])  # non-empty

    def test_metrics_probe_is_hash_seed_invariant(self, tmp_path):
        # byte-level double-check of what the stock A/B target asserts
        probe = SanitizeTarget(
            name="probe",
            argv=(
                sys.executable,
                "-c",
                "import sys; from repro.devtools.sanitize import "
                "metrics_probe; metrics_probe(sys.argv[1], 2, 3); "
                "sys.stdout.write(open(sys.argv[1]).read())",
                str(tmp_path / "probe.json"),
            ),
        )
        assert run_target(probe, "0") == run_target(probe, "1")
