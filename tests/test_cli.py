"""CLI smoke tests (every subcommand on small instances)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "HB(2,3)" in out
        assert "96" in out

    def test_info_exact(self, capsys):
        assert main(["info", "1", "3", "--exact"]) == 0
        assert "exact diameter" in capsys.readouterr().out

    def test_route(self, capsys):
        assert main(["route", "1", "3", "(0;abc)", "(1;bcA)"]) == 0
        out = capsys.readouterr().out
        assert "distance" in out
        assert "(0;abc)" in out

    def test_figure1(self, capsys):
        assert main(["figure1", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "HB(2,3)" in out and "Fault-tolerance" in out

    def test_figure1_verify(self, capsys):
        assert main(["figure1", "1", "3", "--verify"]) == 0
        assert "Parameter" in capsys.readouterr().out

    def test_faults(self, capsys):
        assert main(["faults", "1", "3", "2", "--trials", "1"]) == 0
        assert "fault sweep" in capsys.readouterr().out

    def test_faults_campaign_quick(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_faults.json"
        assert (
            main(
                [
                    "faults-campaign",
                    "2",
                    "3",
                    "--quick",
                    "--trials",
                    "1",
                    "--pairs",
                    "4",
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "HB(2,3)" in out and "transient transport" in out
        assert out_path.exists()
        import json

        data = json.loads(out_path.read_text())
        assert data["networks"][0]["name"] == "HB(2,3)"

    def test_structure_campaign_quick(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_structure.json"
        assert (
            main(
                [
                    "structure-campaign",
                    "2",
                    "3",
                    "--quick",
                    "--trials",
                    "1",
                    "--pairs",
                    "4",
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "HB(2,3)" in out
        assert "cascade" in out and "structure-fault diameter" in out
        import json

        data = json.loads(out_path.read_text())
        assert data["networks"][0]["name"] == "HB(2,3)"
        assert {"config", "networks", "cascade", "structure_fault_diameter"} <= set(
            data
        )
        kinds = {row["kind"] for row in data["networks"][0]["rows"]}
        assert {"star", "path", "subcube", "ring"} <= kinds

    def test_broadcast(self, capsys):
        assert main(["broadcast", "1", "3"]) == 0
        out = capsys.readouterr().out
        assert "all-port" in out and "structured" in out

    def test_metrics_decomposition(self, capsys):
        assert main(["metrics", "hb", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "HB(2,3)" in out and "decomposition" in out

    def test_metrics_force_bfs_jobs_output(self, capsys, tmp_path):
        import json

        decomposed = tmp_path / "fast.json"
        swept = tmp_path / "bfs.json"
        assert main(["metrics", "hb", "1", "3", "--output", str(decomposed)]) == 0
        assert (
            main(
                [
                    "metrics", "hb", "1", "3",
                    "--force-bfs", "--jobs", "2",
                    "--output", str(swept),
                ]
            )
            == 0
        )
        capsys.readouterr()
        fast = json.loads(decomposed.read_text())
        slow = json.loads(swept.read_text())
        assert fast["engine"] == "decomposition"
        assert slow["engine"] == "bfs-sweep"
        for key in ("diameter", "average_distance", "distance_histogram"):
            assert fast[key] == slow[key]

    def test_metrics_backend_pinning_matches_auto(self, capsys, tmp_path):
        import json

        payloads = {}
        for backend in ("auto", "csr", "implicit"):
            path = tmp_path / f"{backend}.json"
            assert (
                main(
                    [
                        "metrics", "hb", "2", "3",
                        "--backend", backend, "--output", str(path),
                    ]
                )
                == 0
            )
            payloads[backend] = json.loads(path.read_text())
        capsys.readouterr()
        # auto keeps the BFS-free decomposition; pinning runs the engine
        assert payloads["auto"]["engine"] == "decomposition"
        for backend in ("csr", "implicit"):
            assert payloads[backend]["engine"] == "transitive-bfs"
            assert payloads[backend]["backend"] == backend
        reference = payloads["auto"]
        for payload in payloads.values():
            for key in ("diameter", "average_distance", "distance_histogram"):
                assert payload[key] == reference[key]

    def test_metrics_backend_implicit_pooled_sweep(self, capsys, tmp_path):
        import json

        csr = tmp_path / "csr.json"
        implicit = tmp_path / "implicit.json"
        for backend, path in (("csr", csr), ("implicit", implicit)):
            assert (
                main(
                    [
                        "metrics", "hb", "2", "3",
                        "--backend", backend, "--force-bfs", "--jobs", "2",
                        "--output", str(path),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        a, b = json.loads(csr.read_text()), json.loads(implicit.read_text())
        assert a["engine"] == b["engine"] == "bfs-sweep"
        for key in ("diameter", "average_distance", "distance_histogram"):
            assert a[key] == b[key]

    def test_metrics_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["metrics", "hb", "2", "3", "--backend", "sparse"])
        assert "invalid choice" in capsys.readouterr().err

    def test_metrics_single_parameter_families(self, capsys):
        assert main(["metrics", "hypercube", "4"]) == 0
        assert "transitive-bfs" in capsys.readouterr().out
        assert main(["metrics", "debruijn", "3"]) == 0
        assert "bfs-sweep" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("faults-campaign", "--trials", "0"),
            ("structure-campaign", "--trials", "-1"),
            ("faults-campaign", "--pairs", "0"),
        ],
    )
    def test_campaign_rejects_empty_samples(
        self, capsys, tmp_path, command, flag, value
    ):
        out_path = tmp_path / "bad.json"
        argv = [command, "2", "3", "--quick", flag, value, "--output", str(out_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: error: ")
        assert f"{flag[2:]} must be >= 1" in err
        assert not out_path.exists()

    def test_traffic_campaign_bad_families_is_a_cli_error(self, capsys, tmp_path):
        out_path = tmp_path / "bad.json"
        argv = ["traffic-campaign", "2", "3", "--quick", "--families", ","]
        assert main(argv + ["--output", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("traffic-campaign: error: ")
        assert not out_path.exists()

    def test_metrics_parameter_count_errors(self, capsys):
        assert main(["metrics", "hb", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("metrics: error: ") and "needs both" in err
        assert main(["metrics", "hypercube", "3", "4"]) == 2
        assert "single order" in capsys.readouterr().err

    def test_sanitize_list_targets(self, capsys):
        assert main(["sanitize", "--list-targets"]) == 0
        out = capsys.readouterr().out
        assert "faults-campaign-hb23" in out
        assert "fastgraph-metrics-hb23" in out
        assert "metrics-cli-hb35" in out

    def test_sanitize_custom_deterministic_command(self, capsys):
        import sys

        cmd = f"{sys.executable} -c \"import json; print(json.dumps([1, 2]))\""
        assert main(["sanitize", "--cmd", cmd]) == 0
        assert "reproducible" in capsys.readouterr().out

    def test_sanitize_custom_divergent_command(self, capsys):
        import sys

        cmd = (
            f"{sys.executable} -c "
            "\"import json; print(json.dumps({'h': hash('x')}))\""
        )
        assert main(["sanitize", "--cmd", cmd]) == 1
        assert "DIVERGENT" in capsys.readouterr().out

    def test_sanitize_unknown_target_errors(self, capsys):
        assert main(["sanitize", "--target", "nope"]) == 2
        assert "unknown sanitize target" in capsys.readouterr().err
