"""The DDR5-era low-NRH scaling study (audit-mode campaigns).

Three layers:

* **Spec contract** — ``CampaignSpec(audit=True)`` expands through
  :func:`repro.security.audit.build_audit_grid` (streaming verification,
  refresh-policy mechanisms on the mitigation axis), while the new
  ``audit``/``seed`` fields serialize only when non-default so every
  pre-existing campaign's ``campaign_id()`` is unchanged.
* **Mechanism pins (tier-1)** — a narrowed study (PRAC + NRH-scaled RFM
  against blacksmith at NRH 64 and 20) driven through a store-backed
  campaign with a mid-flight budget stop: the mechanisms must hold the
  invariant at both thresholds with their designed margins, the baseline
  must not, and the resumed campaign must recompute nothing.
* **The full study (slow)** — every mechanism x both patterns x
  NRH {125, 64, 32, 20}: the frontier regression test.  The per-mechanism
  verdicts pinned there are the study's headline result — which trackers
  survive ultra-low thresholds with their default configurations, and at
  what margin the in-DRAM mechanisms hold.
"""

import pytest

from repro.experiment.session import Session
from repro.experiment.spec import CampaignSpec
from repro.security.audit import (
    SCALING_MECHANISMS,
    SCALING_NRHS,
    SCALING_PATTERNS,
    build_audit_grid,
    mechanism_of,
    rfm_policy_for_nrh,
    scaling_campaign,
    scaling_report,
)


def _mini_study(num_requests=2500):
    return scaling_campaign(
        mechanisms=("prac", "rfm"),
        patterns=("synth_blacksmith",),
        nrhs=(64, 20),
        num_requests=num_requests,
    )


class TestAuditCampaignSpec:
    def test_scaling_grid_shape(self):
        campaign = scaling_campaign()
        cells = campaign.cells()
        mechanisms = [mechanism_of(spec) for spec, _ in cells]
        per_mechanism = len(SCALING_PATTERNS) * len(SCALING_NRHS)
        for mechanism in (*SCALING_MECHANISMS, "none"):
            if mechanism == "para":
                # PARA's derived p goes supercritical below NRH ~ 50: the
                # grid refuses those cells (infeasible, not insecure).
                feasible = [nrh for nrh in SCALING_NRHS if nrh >= 50]
                assert mechanisms.count("para") == (
                    len(SCALING_PATTERNS) * len(feasible)
                )
            else:
                assert mechanisms.count(mechanism) == per_mechanism
        expected = (len(SCALING_MECHANISMS) + 1) * per_mechanism  # + baseline
        assert len(cells) == expected - 2 * len(SCALING_PATTERNS)
        # Every cell carries the streaming verifier: this is an audit.
        assert all(spec.verify_security == "streaming" for spec, _ in cells)

    def test_infeasible_cells_reported_not_expanded(self):
        from repro.mitigations.para import para_is_feasible

        assert para_is_feasible(50)
        assert not para_is_feasible(49)
        specs = build_audit_grid(
            mitigations=["para"], patterns=["synth_uniform"], nrhs=[64, 32, 20]
        )
        assert [spec.mitigation.nrh for spec in specs] == [64]

    def test_audit_fields_serialize_only_when_set(self):
        """Pre-existing campaigns must keep their campaign_id byte for
        byte: the audit/seed keys only appear when non-default."""
        legacy = CampaignSpec(
            name="x", workloads=("429.mcf",), mitigations=("comet",), nrhs=(125,)
        )
        data = legacy.to_dict()
        assert "audit" not in data and "seed" not in data
        assert CampaignSpec.from_dict(data) == legacy

        study = scaling_campaign()
        assert study.to_dict()["audit"] is True
        assert CampaignSpec.from_dict(study.to_dict()) == study
        assert study.campaign_id() != legacy.campaign_id()

    def test_audit_flag_changes_campaign_id(self):
        kwargs = dict(
            name="s",
            workloads=("synth_uniform",),
            mitigations=("comet",),
            nrhs=(125,),
        )
        assert (
            CampaignSpec(**kwargs).campaign_id()
            != CampaignSpec(audit=True, **kwargs).campaign_id()
        )

    def test_priorities_key_on_mechanism_label(self):
        """``priorities={"rfm": 5}`` must reach the rfm cells even though
        they run the ``"none"`` mitigation under the rfm policy."""
        campaign = scaling_campaign(
            mechanisms=("prac", "rfm"), patterns=("synth_uniform",), nrhs=(64,)
        )
        campaign = CampaignSpec.from_dict({**campaign.to_dict(), "priorities": {"rfm": 5}})
        by_mechanism = {mechanism_of(spec): pri for spec, pri in campaign.cells()}
        assert by_mechanism["rfm"] == 5
        assert by_mechanism["prac"] == 0
        assert by_mechanism["none"] == 6  # baseline outranks every override


class TestRFMMechanismRows:
    def test_rfm_policy_scales_with_nrh(self):
        for nrh in SCALING_NRHS:
            policy = rfm_policy_for_nrh(nrh)
            params = policy.params_dict()
            assert params["raaimt"] == max(1, nrh // 4)
            assert params["raammt"] == 2 * params["raaimt"]
            assert policy.refresh_policy == "rfm"

    def test_rfm_rows_run_baseline_under_the_policy(self):
        specs = build_audit_grid(
            mitigations=["rfm"], patterns=["synth_uniform"], nrhs=[64]
        )
        assert len(specs) == 1
        (spec,) = specs
        assert spec.mitigation.name == "none"
        assert spec.platform.controller.refresh_policy == "rfm"
        assert spec.platform.controller.params_dict()["raaimt"] == 16
        assert mechanism_of(spec) == "rfm"
        assert "rfm@64" in spec.name

    def test_mechanism_of_leaves_ordinary_cells_alone(self):
        specs = build_audit_grid(
            mitigations=["comet"],
            patterns=["synth_uniform"],
            nrhs=[64],
            include_baseline=True,
        )
        assert sorted(mechanism_of(spec) for spec in specs) == ["comet", "none"]


class TestScalingVerdictPins:
    """The study's contract in miniature, cheap enough for tier-1."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        campaign = _mini_study()
        store_dir = tmp_path_factory.mktemp("scaling") / "store"
        session = Session(max_workers=0, store=store_dir)

        # Phase 1: stop mid-flight after two cells (the kill).
        partial = session.campaign(campaign, budget=2)
        assert not partial.finished
        assert partial.executed == 2
        partial_report = scaling_report(session.store, campaign)
        assert partial_report.metadata["missing_cells"] == partial.total - 2

        # Phase 2: resume to completion; only the remainder executes.
        status = session.campaign(campaign)
        assert status.finished
        assert status.executed == status.total - 2

        # Phase 3: re-running a finished campaign recomputes nothing.
        again = session.campaign(campaign)
        assert again.finished and again.executed == 0
        return scaling_report(session.store, campaign)

    def test_report_is_complete(self, report):
        assert report.metadata["missing_cells"] == 0
        assert report.metadata["mechanisms"] == ["none", "prac", "rfm"]

    def test_baseline_is_insecure(self, report):
        verdict = report.verdict_for("none")
        assert not verdict.secure
        assert verdict.worst_margin > 1.0

    @pytest.mark.parametrize("nrh", [64, 20])
    def test_prac_holds_at_ultra_low_nrh(self, report, nrh):
        """ABO at T = NRH/2 bounds victim disturbance below NRH."""
        finding = report.finding_for("prac", "synth_blacksmith", nrh)
        assert finding.secure
        assert finding.max_disturbance < nrh

    @pytest.mark.parametrize("nrh", [64, 20])
    def test_rfm_holds_at_ultra_low_nrh(self, report, nrh):
        """NRH-scaled RAAIMT keeps max disturbance ~= 2 * RAAIMT = NRH/2."""
        finding = report.finding_for("rfm", "synth_blacksmith", nrh)
        assert finding.secure
        raaimt = rfm_policy_for_nrh(nrh).params_dict()["raaimt"]
        assert finding.max_disturbance <= 2 * raaimt + 2


@pytest.mark.slow
class TestFullScalingStudy:
    """The complete frontier: every mechanism, both patterns, four NRHs.

    Several minutes of simulation - runs under ``-m slow`` (the benchmark
    lane), not tier-1.  Mechanisms run their *default* constructions, so
    the study shows the frontier as shipped: designs tuned for NRH >= 250
    (blockhammer's throttle window, hydra's sampling budget) fall to the
    blacksmith pattern below their design threshold, PARA drops out
    entirely below NRH ~ 50 (supercritical preventive cascade — infeasible
    cells, absent from the grid), while PRAC/ABO and NRH-scaled RFM —
    whose per-row counters cost the same silicon at any threshold — hold
    all the way down to NRH=20.
    """

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        campaign = scaling_campaign()
        store_dir = tmp_path_factory.mktemp("scaling-full") / "store"
        session = Session(max_workers=0, store=store_dir)
        status = session.campaign(campaign)
        assert status.finished
        return scaling_report(session.store, campaign)

    def test_every_cell_present(self, report):
        assert report.metadata["missing_cells"] == 0
        assert len(report.findings) == report.metadata["total_cells"]

    def test_baseline_refutes_the_attack_not_the_control(self, report):
        """The unprotected baseline must fall to the attack pattern at every
        threshold, while the uniform rows — benign traffic, the study's
        false-positive control — stay below NRH on their own."""
        for finding in report.findings:
            if finding.mitigation != "none":
                continue
            if finding.pattern == "synth_uniform":
                assert finding.secure, finding
            else:
                assert not finding.secure, finding

    def test_in_dram_mechanisms_hold_at_every_threshold(self, report):
        """The study's headline: PRAC and NRH-scaled RFM stay secure all
        the way down to NRH=20 with threshold-independent on-chip cost."""
        for mechanism in ("prac", "rfm"):
            verdict = report.verdict_for(mechanism)
            assert verdict.secure, report.verdict_table()
            assert verdict.worst_margin < 1.0

    def test_tracker_frontier(self, report):
        """Exact trackers survive the scaling; threshold-tuned designs and
        sampling trackers do not.  CoMeT, Graphene and REGA hold at every
        threshold; BlockHammer (designed for NRH >= 250) and Hydra's
        sampled counters fall to the blacksmith pattern; PARA only fields
        its two feasible cells per pattern (NRH >= 50)."""
        for mechanism in ("comet", "graphene", "rega"):
            assert report.verdict_for(mechanism).secure, report.verdict_table()
        for mechanism in ("blockhammer", "hydra"):
            assert not report.verdict_for(mechanism).secure, report.verdict_table()
        para = report.verdict_for("para")
        assert para.secure and para.patterns_run == 2 * len(SCALING_PATTERNS)
        assert report.metadata["infeasible"] == ["para@32", "para@20"]

    def test_margins_tighten_as_nrh_falls(self, report):
        """PRAC's worst margin stays pinned just under 1.0 (T = NRH/2 puts
        max disturbance at NRH-1 under a targeted attack) while RFM's
        NRH-scaled RAAIMT keeps a ~2x margin at every threshold."""
        for nrh in SCALING_NRHS:
            prac = report.finding_for("prac", "synth_blacksmith", nrh)
            rfm = report.finding_for("rfm", "synth_blacksmith", nrh)
            assert prac.max_disturbance < nrh
            assert rfm.margin <= 0.6
