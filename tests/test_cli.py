"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mitigation == "comet"
        assert args.nrh == 125
        assert args.workload == "429.mcf"

    def test_unknown_mitigation_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mitigation", "trr"])

    def test_policy_flag_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheduler == "fr_fcfs"
        assert args.row_policy == "open_page"
        assert args.refresh_policy == "all_bank"
        sweep_args = build_parser().parse_args(
            ["sweep", "--scheduler", "fr_fcfs", "fcfs", "bliss"]
        )
        assert sweep_args.scheduler == ["fr_fcfs", "fcfs", "bliss"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "round_robin"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--row-policy", "open"])


class TestCommands:
    def test_workloads_lists_suite(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        assert "429.mcf" in output
        assert "519.lbm" in output
        assert "category" in output

    def test_list_prints_registered_components(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        # Mitigations with construction metadata.
        assert "registered mitigation mechanisms" in output
        assert "blockhammer" in output and "design_nrh" in output
        # Workloads including the synthesized adversarial patterns.
        assert "synth_blacksmith" in output and "429.mcf" in output
        # All three controller-policy axes.
        for name in ("fr_fcfs", "fcfs", "bliss", "open_page", "closed_page",
                     "adaptive_timeout", "all_bank", "fine_granularity"):
            assert name in output

    def test_sweep_policy_axis(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--workloads", "502.gcc",
                "--mitigations", "para",
                "--nrh", "1000",
                "--requests", "300",
                "--scheduler", "fr_fcfs", "fcfs",
                "--workers", "0",
                "--no-cache",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "policy" in output
        assert "default" in output
        assert "fcfs/open_page/all_bank" in output

    def test_area_prints_all_mechanisms(self, capsys):
        assert main(["area", "--nrh", "125"]) == 0
        output = capsys.readouterr().out
        assert "CoMeT" in output and "Graphene" in output and "Hydra" in output

    def test_run_small_experiment(self, capsys):
        exit_code = main(
            ["run", "--workload", "502.gcc", "--nrh", "1000", "--requests", "400"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "normalized_IPC" in output
        assert "502.gcc" in output

    def test_attack_reports_security(self, capsys):
        exit_code = main(["attack", "--mitigation", "comet", "--nrh", "125", "--requests", "1500"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "max_disturbance" in output
        assert "yes" in output  # secure

    def test_run_from_spec_file(self, capsys, tmp_path):
        from repro.experiment.session import RunRecord
        from repro.experiment.spec import ExperimentSpec, MitigationSpec, WorkloadSpec

        spec = ExperimentSpec(
            workload=WorkloadSpec(name="502.gcc", num_requests=300),
            mitigation=MitigationSpec(name="comet", nrh=500),
        )
        spec_path = tmp_path / "experiment.json"
        spec_path.write_text(spec.to_json())
        out_path = tmp_path / "record.json"

        exit_code = main(["run", "--spec", str(spec_path), "--out", str(out_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "spec run" in output
        assert spec.content_hash()[:12] in output

        record = RunRecord.from_json(out_path.read_text())
        assert record.spec == spec
        assert record.result.per_core_ipc

    def test_run_rejects_bad_spec_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workload": {"name": "502.gcc"}}))
        with pytest.raises(SystemExit, match="invalid experiment spec"):
            main(["run", "--spec", str(bad)])
        # Wrong-typed fields must produce the same clean error, not a traceback.
        bad.write_text(
            json.dumps(
                {
                    "workload": {"name": "502.gcc"},
                    "mitigation": {"name": "comet", "nrh": "500"},
                }
            )
        )
        with pytest.raises(SystemExit, match="invalid experiment spec"):
            main(["run", "--spec", str(bad)])
        with pytest.raises(SystemExit, match="spec file not found"):
            main(["run", "--spec", str(tmp_path / "missing.json")])

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"workload": [1], "mitigation": {"name": "comet"}},
            {"workload": {"name": "502.gcc"}, "mitigation": "comet"},
        ],
    )
    def test_run_rejects_non_object_spec_parts(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match="invalid experiment spec .*JSON object"):
            main(["run", "--spec", str(bad)])

    def test_compare_lists_all_mitigations(self, capsys):
        exit_code = main(
            ["compare", "--workload", "502.gcc", "--nrh", "1000", "--requests", "300"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("comet", "graphene", "hydra", "para", "rega", "blockhammer"):
            assert name in output


class TestCampaignCommands:
    def test_list_shows_every_section(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for title in (
            "registered mitigation mechanisms",
            "registered workloads",
            "controller policies",
        ):
            assert title in output
        assert "campaign queue backends" not in output

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_defaults(self):
        args = build_parser().parse_args(["campaign", "run"])
        assert args.backend == "sqlite"
        assert args.mitigations == ["comet"]
        assert args.budget is None

    def test_campaign_run_rejects_unknown_backend(self):
        for backend in ("directory", "rabbitmq"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["campaign", "run", "--backend", backend])

    def test_campaign_run_status_query_round_trip(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        exit_code = main(
            [
                "campaign", "run",
                "--name", "clitest",
                "--workloads", "synth_uniform",
                "--mitigations", "para",
                "--nrh", "250",
                "--requests", "200",
                "--store", store,
                "--workers", "0",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "campaign clitest: finished" in output
        assert "2/2" in output

        assert main(["campaign", "status", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "clitest" in output
        assert "2/2" in output and "yes" in output

        assert main(["campaign", "query", "--store", store,
                     "--mitigation", "para"]) == 0
        output = capsys.readouterr().out
        assert "synth_uniform" in output and "para" in output

        # Re-running the same grid resumes: everything is already stored.
        assert main(
            [
                "campaign", "run",
                "--name", "clitest",
                "--workloads", "synth_uniform",
                "--mitigations", "para",
                "--nrh", "250",
                "--requests", "200",
                "--store", store,
                "--workers", "0",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "finished" in output

    def test_campaign_run_from_file(self, capsys, tmp_path):
        from repro.experiment.spec import CampaignSpec

        campaign = CampaignSpec(
            name="filetest",
            workloads=("synth_uniform",),
            mitigations=("para",),
            nrhs=(250,),
            num_requests=200,
            include_baseline=False,
        )
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json())
        exit_code = main(
            [
                "campaign", "run",
                "--campaign-file", str(path),
                "--store", str(tmp_path / "store"),
                "--backend", "memory",
                "--workers", "0",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "campaign filetest: finished" in output
        assert "1/1" in output

    def test_campaign_run_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="invalid campaign spec"):
            main(["campaign", "run", "--campaign-file", str(bad),
                  "--store", str(tmp_path / "store")])
        with pytest.raises(SystemExit, match="campaign file not found"):
            main(["campaign", "run", "--campaign-file", str(tmp_path / "no.json"),
                  "--store", str(tmp_path / "store")])

    @pytest.mark.parametrize("payload", [[], [1, 2], "grid"])
    def test_campaign_run_rejects_non_object_json(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match="invalid campaign spec .*JSON object"):
            main(["campaign", "run", "--campaign-file", str(bad),
                  "--store", str(tmp_path / "store")])

    def test_campaign_status_empty_store(self, capsys, tmp_path):
        assert main(["campaign", "status", "--store", str(tmp_path / "empty")]) == 0
        assert "no campaigns checkpointed" in capsys.readouterr().out

    def test_campaign_status_unknown_prefix(self, tmp_path):
        with pytest.raises(SystemExit, match="no campaign matching"):
            main(["campaign", "status", "--store", str(tmp_path / "empty"),
                  "--campaign", "deadbeef"])
