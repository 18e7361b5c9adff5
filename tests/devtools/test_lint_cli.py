"""CLI contract for ``hyperbutterfly lint``: exit codes and JSON schema."""

from __future__ import annotations

import json

from repro.cli import main

DIRTY = "import random\nx = random.random()\n"
CLEAN = "import random\nrng = random.Random(0)\nx = rng.random()\n"


def _write_pkg(tmp_path, source):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    target = pkg / "mod.py"
    target.write_text(source)
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = _write_pkg(tmp_path, CLEAN)
        assert main(["lint", str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = _write_pkg(tmp_path, DIRTY)
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "HB101" in out and "1 finding(s)" in out

    def test_linter_error_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "does-not-exist")]) == 2
        assert "reprolint: error" in capsys.readouterr().err

    def test_broken_baseline_exits_two(self, tmp_path, capsys):
        target = _write_pkg(tmp_path, CLEAN)
        bad = tmp_path / "baseline.json"
        bad.write_text("[]")
        assert main(["lint", str(target), "--baseline", str(bad)]) == 2


class TestJsonFormat:
    def test_schema(self, tmp_path, capsys):
        target = _write_pkg(tmp_path, DIRTY)
        assert main(["lint", str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["checked_files"] == 1
        assert payload["counts"] == {"HB101": 1}
        (finding,) = payload["findings"]
        assert finding["rule"] == "HB101"
        assert finding["path"].endswith("mod.py")
        assert finding["line"] == 2
        assert isinstance(finding["fingerprint"], str)
        assert finding["suppressed"] is False
        assert finding["baselined"] is False

    def test_json_is_sorted_and_stable(self, tmp_path, capsys):
        target = _write_pkg(tmp_path, DIRTY)
        main(["lint", str(target), "--format", "json"])
        first = capsys.readouterr().out
        main(["lint", str(target), "--format", "json"])
        assert capsys.readouterr().out == first


class TestBaselineWorkflow:
    def test_update_then_lint_against_baseline(self, tmp_path, capsys):
        target = _write_pkg(tmp_path, DIRTY)
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(target),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                ]
            )
            == 0
        )
        assert "wrote 1 fingerprint(s)" in capsys.readouterr().out
        assert main(["lint", str(target), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 suppressed/baselined" in out


class TestIntrospection:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("HB101", "HB201", "HB301", "HB401", "HB502", "HB604", "HB702"):
            assert rule_id in out

    def test_list_rules_grouped_with_self_test_status(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        headers = [ln for ln in lines if not ln.startswith("  ")]
        assert headers == [
            "HB1xx determinism",
            "HB2xx contracts",
            "HB3xx numerics",
            "HB4xx architecture",
            "HB5xx seeding",
            "HB6xx dtypes",
            "HB7xx concurrency",
        ]
        rule_lines = [ln for ln in lines if ln.startswith("  ")]
        assert rule_lines and all("[  ok]" in ln for ln in rule_lines)

    def test_self_test(self, capsys):
        assert main(["lint", "--self-test"]) == 0
        assert "self-test passed" in capsys.readouterr().out


class TestGithubFormat:
    def test_annotations_for_active_findings(self, tmp_path, capsys):
        target = _write_pkg(tmp_path, DIRTY)
        assert main(["lint", str(target), "--format", "github"]) == 1
        out = capsys.readouterr().out
        (annotation,) = [ln for ln in out.splitlines() if ln.startswith("::")]
        assert annotation.startswith("::error file=")
        assert "line=2" in annotation
        assert "title=HB101" in annotation
        assert "1 finding(s)" in out

    def test_clean_tree_emits_only_summary(self, tmp_path, capsys):
        target = _write_pkg(tmp_path, CLEAN)
        assert main(["lint", str(target), "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert not [ln for ln in out.splitlines() if ln.startswith("::")]

    def test_workflow_command_escaping(self):
        from repro.devtools.reprolint.findings import Finding

        finding = Finding(
            rule_id="HB101",
            path="src/a,b:c.py",
            line=3,
            col=0,
            message="bad %\nnews",
        )
        rendered = finding.render_github()
        assert "file=src/a%2Cb%3Ac.py" in rendered
        assert rendered.endswith("::bad %25%0Anews")
        assert "\n" not in rendered


class TestRuleCatalog:
    def test_md_catalog_lists_every_rule(self, capsys):
        from repro.devtools.reprolint.registry import all_rules

        assert main(["lint", "--list-rules", "--format", "md"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert f"### {rule.rule_id}: {rule.title}" in out

    def test_md_without_list_rules_is_an_error(self, tmp_path, capsys):
        target = _write_pkg(tmp_path, CLEAN)
        assert main(["lint", str(target), "--format", "md"]) == 2
        assert "--list-rules" in capsys.readouterr().err

    def test_committed_catalog_is_fresh(self):
        # CI diffs the generated catalog against docs/lint_rules.md; this
        # is the same check so a stale doc fails locally first
        import pathlib

        from repro.devtools.reprolint.cli import render_rule_catalog_md

        committed = (
            pathlib.Path(__file__).resolve().parents[2] / "docs" / "lint_rules.md"
        )
        assert committed.read_text() == render_rule_catalog_md() + "\n"


class TestShippedTree:
    def test_repo_sources_are_clean(self):
        assert main(["lint", "src", "tests"]) == 0
