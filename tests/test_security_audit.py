"""Tests for the security-audit campaign runner and its entry points.

Covers the round trip the audit subsystem promises: grid construction,
streaming verification, SecurityReport reduction and JSON serialization,
``Session.audit()`` and the ``repro audit`` CLI, result-cache hits on a
second run, worker-count independence, and the headline acceptance property
— the sketch-aliasing pattern pushes CoMeT's disturbance margin well above
the uniform reference while every mechanism stays verdict-secure.
"""

import json

import pytest

from repro.cli import main
from repro.experiment.session import Session
from repro.experiment.spec import PlatformSpec
from repro.security.audit import (
    AuditFinding,
    SecurityReport,
    build_audit_grid,
    default_audit_mitigations,
    default_audit_patterns,
    design_mitigation_spec,
    design_nrh,
    run_audit,
)

#: Small platform every campaign test runs on: complete refresh windows in
#: very short traces.
TINY = PlatformSpec(rows_per_bank=1024, refresh_window_scale=1.0 / 1024.0)


class TestGridConstruction:
    def test_defaults_cover_synth_and_attack_patterns(self):
        patterns = default_audit_patterns()
        assert "synth_sketch_aliasing" in patterns
        assert "attack_traditional" in patterns
        assert "none" not in default_audit_mitigations()

    def test_grid_shape_and_streaming_mode(self):
        specs = build_audit_grid(
            mitigations=["comet", "para"],
            patterns=["synth_uniform", "synth_blacksmith"],
            nrhs=[125, 250],
            num_requests=500,
        )
        assert len(specs) == 2 * 2 * 2
        assert all(spec.verify_security == "streaming" for spec in specs)
        assert {spec.mitigation.nrh for spec in specs} == {125, 250}

    def test_design_thresholds_when_nrhs_omitted(self):
        specs = build_audit_grid(
            mitigations=["comet", "blockhammer"], patterns=["synth_uniform"]
        )
        by_mechanism = {spec.mitigation.name: spec.mitigation for spec in specs}
        assert by_mechanism["comet"].nrh == design_nrh("comet") == 125
        assert by_mechanism["blockhammer"].nrh == design_nrh("blockhammer") == 250
        # BlockHammer's design point tightens its blacklist fraction for the
        # double-sided victim-summed invariant.
        overrides = design_mitigation_spec("blockhammer").overrides_dict()
        assert overrides["config"].blacklist_fraction == 0.25

    def test_unknown_pattern_rejected_up_front(self):
        with pytest.raises(KeyError, match="synth_nope"):
            build_audit_grid(mitigations=["comet"], patterns=["synth_nope"])

    def test_include_baseline_prepends_none(self):
        specs = build_audit_grid(
            mitigations=["comet"], patterns=["synth_uniform"], include_baseline=True
        )
        assert [spec.mitigation.name for spec in specs] == ["none", "comet"]


class TestReportRoundTrip:
    def _finding(self, **overrides):
        base = dict(
            mitigation="comet",
            pattern="synth_uniform",
            nrh=125,
            channels=1,
            policy="fr_fcfs/open_page/all_bank",
            secure=True,
            max_disturbance=4,
            margin=4 / 125,
            violations=0,
            first_violation_cycle=None,
            preventive_refreshes=0,
            early_refresh_operations=0,
            spec_hash="abc123",
        )
        base.update(overrides)
        return AuditFinding(**base)

    def test_json_round_trip(self):
        report = SecurityReport(
            findings=[
                self._finding(),
                self._finding(
                    pattern="synth_sketch_aliasing",
                    max_disturbance=109,
                    margin=109 / 125,
                ),
                self._finding(
                    mitigation="none",
                    secure=False,
                    max_disturbance=400,
                    margin=3.2,
                    violations=12,
                    first_violation_cycle=9000,
                ),
            ],
            metadata={"seed": 0},
        )
        restored = SecurityReport.from_json(report.to_json())
        assert restored.findings == report.findings
        assert restored.metadata == report.metadata
        assert restored.is_secure is False

    def test_verdict_reduction(self):
        report = SecurityReport(
            findings=[
                self._finding(),
                self._finding(
                    pattern="synth_sketch_aliasing",
                    max_disturbance=109,
                    margin=109 / 125,
                ),
            ]
        )
        verdict = report.verdict_for("comet")
        assert verdict.secure is True
        assert verdict.worst_pattern == "synth_sketch_aliasing"
        assert verdict.worst_margin == pytest.approx(109 / 125)
        assert verdict.patterns_run == 2
        assert "comet" in report.verdict_table()
        with pytest.raises(KeyError):
            report.verdict_for("hydra")

    def test_future_report_version_rejected(self):
        payload = {"report_version": 99, "findings": []}
        with pytest.raises(ValueError, match="report_version 99"):
            SecurityReport.from_dict(payload)


class TestCampaignExecution:
    def test_session_audit_round_trip_with_cache(self, tmp_path):
        """Session.audit: report, then a second run served from the cache,
        bit-identical."""
        session = Session(max_workers=0, store=tmp_path / "store")
        kwargs = dict(
            mitigations=["comet"],
            patterns=["synth_uniform", "synth_sketch_aliasing"],
            nrhs=[200],
            num_requests=600,
            platform=TINY,
        )
        first = session.audit(**kwargs)
        assert session.cache_misses == 2 and session.cache_hits == 0
        second = session.audit(**kwargs)
        assert session.cache_hits == 2
        assert second.to_dict() == first.to_dict()
        finding = first.finding_for("comet", "synth_uniform", 200)
        assert finding.margin == finding.max_disturbance / 200
        assert len(finding.spec_hash) == 64

    def test_policy_axis_cells_and_round_trip(self):
        """The controller-policy axis: one cell per policy triple, labelled,
        surviving the JSON round trip."""
        from repro.controller.policies import ControllerPolicySpec

        report = run_audit(
            mitigations=["para"],
            patterns=["synth_uniform"],
            nrhs=[150],
            num_requests=600,
            platform=TINY,
            policies=[None, ControllerPolicySpec(scheduler="fcfs")],
            session=Session(max_workers=0, store=None),
        )
        assert len(report.findings) == 2
        assert {f.policy for f in report.findings} == {
            "fr_fcfs/open_page/all_bank",
            "fcfs/open_page/all_bank",
        }
        assert report.metadata["policies"] == [
            "fcfs/open_page/all_bank",
            "fr_fcfs/open_page/all_bank",
        ]
        default_cell = report.finding_for(
            "para", "synth_uniform", 150, policy="fr_fcfs/open_page/all_bank"
        )
        fcfs_cell = report.finding_for(
            "para", "synth_uniform", 150, policy="fcfs/open_page/all_bank"
        )
        assert default_cell.policy != fcfs_cell.policy
        restored = SecurityReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        # The per-mechanism verdict reduces across both policy cells.
        assert report.verdict_for("para").patterns_run == 2

    def test_workers_do_not_change_the_report(self, tmp_path):
        """workers=1 vs workers=4 must reduce to the identical report."""
        kwargs = dict(
            mitigations=["comet", "para"],
            patterns=["synth_uniform", "synth_blacksmith"],
            nrhs=[200],
            num_requests=500,
            platform=TINY,
            seed=3,
        )
        inline = run_audit(
            session=Session(max_workers=1, store=None), **kwargs
        )
        fanned = run_audit(
            session=Session(max_workers=4, store=None), **kwargs
        )
        assert inline.to_dict() == fanned.to_dict()

    def test_baseline_is_insecure_and_mechanism_is_not(self):
        """The sanity contrast: the unprotected baseline must violate the
        invariant under a focused attack; CoMeT must not."""
        report = run_audit(
            mitigations=["comet"],
            patterns=["synth_sketch_aliasing"],
            nrhs=[150],
            num_requests=1500,
            platform=TINY,
            include_baseline=True,
        )
        baseline = report.finding_for("none", "synth_sketch_aliasing", 150)
        protected = report.finding_for("comet", "synth_sketch_aliasing", 150)
        assert not baseline.secure
        assert baseline.violations > 0
        assert baseline.first_violation_cycle is not None
        assert protected.secure
        assert protected.first_violation_cycle is None
        assert report.is_secure is False  # the baseline drags the report down

    def test_sketch_aliasing_raises_comet_margin_over_uniform(self):
        """The acceptance property: on the scaled platform at the design
        NRH, the sketch-aware pattern pushes CoMeT's max-disturbance margin
        well above the uniform reference attack — while staying secure."""
        report = run_audit(
            mitigations=["comet"],
            patterns=["synth_uniform", "synth_sketch_aliasing"],
            num_requests=4000,
        )
        uniform = report.finding_for("comet", "synth_uniform", 125)
        aliasing = report.finding_for("comet", "synth_sketch_aliasing", 125)
        assert aliasing.secure and uniform.secure
        assert aliasing.margin > 2 * uniform.margin
        assert aliasing.max_disturbance > uniform.max_disturbance
        verdict = report.verdict_for("comet")
        assert verdict.worst_pattern == "synth_sketch_aliasing"


class TestAuditCLI:
    def test_cli_report_and_json_out(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        exit_code = main(
            [
                "audit",
                "--mitigations", "comet",
                "--patterns", "synth_uniform", "synth_sketch_aliasing",
                "--nrh", "200",
                "--requests", "800",
                "--workers", "0",
                "--no-cache",
                "--out", str(out),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "per-mechanism verdicts" in output
        assert "synth_sketch_aliasing" in output
        assert "overall: secure" in output

        payload = json.loads(out.read_text())
        assert payload["report_version"] == 1
        assert payload["secure"] is True
        report = SecurityReport.from_json(out.read_text())
        assert {f.pattern for f in report.findings} == {
            "synth_uniform",
            "synth_sketch_aliasing",
        }

    def test_cli_rejects_unknown_pattern(self):
        with pytest.raises(KeyError, match="unknown workload"):
            main(["audit", "--patterns", "not_a_pattern", "--workers", "0", "--no-cache"])

    def test_cli_cache_hits_reported(self, capsys, tmp_path):
        args = [
            "audit",
            "--mitigations", "para",
            "--patterns", "synth_uniform",
            "--nrh", "300",
            "--requests", "500",
            "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "1 hits" in capsys.readouterr().out
