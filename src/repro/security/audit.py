"""Spec-driven security-audit campaigns.

An audit fans a mitigation x pattern x NRH (x controller-policy) grid
through a cached, parallel :class:`~repro.experiment.session.Session` with
the
:class:`~repro.analysis.security.SecurityVerifier` attached in its cheap
streaming max-margin mode, then reduces the per-run verdict stream into one
:class:`SecurityReport`:

* one :class:`AuditFinding` per grid cell — verdict, max observed
  disturbance, the disturbance/NRH *margin* (1.0 means the RowHammer
  invariant was reached), first-violation cycle and preventive-refresh
  pressure;
* one :class:`MechanismVerdict` per mechanism — secure iff every cell was,
  with the worst margin and the pattern that produced it.

Reports serialize to JSON (``to_json``/``from_json``) and render as aligned
tables; findings carry the spec content hash so any cell can be re-run
bit-for-bit.  Entry points: :func:`run_audit`,
:meth:`repro.experiment.session.Session.audit` and ``repro audit`` on the
command line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.analysis.reporting import format_table
from repro.experiment.registry import (
    mitigation_names,
    registered_workload_names,
    workload_entry,
)
from repro.controller.policies import (
    ControllerPolicySpec,
    DEFAULT_POLICY,
    normalize_policy,
)
from repro.experiment.spec import (
    CampaignSpec,
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    WorkloadSpec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session imports us)
    from repro.experiment.session import RunRecord, Session

#: Bump when the SecurityReport JSON schema changes incompatibly.
REPORT_VERSION = 1

#: Workload categories ``--patterns all`` expands to: every synthesized
#: pattern plus the hand-written mechanism-targeted attacks.
AUDIT_PATTERN_CATEGORIES = ("synth", "attack")

#: Per-mechanism *design* RowHammer thresholds on the scaled platform: the
#: lowest threshold at which the mechanism's default configuration upholds
#: the Section 5 invariant against every audited pattern.  Everything runs
#: at the paper's headline NRH = 125 except BlockHammer: its dual
#: counting-Bloom-filter epoch swap lets a row restart its observed count
#: mid-refresh-window, so per-victim disturbance can reach ~2.7x the
#: blacklist threshold (= NRH/2) and its default configuration only holds
#: the invariant from NRH = 250 here — the same low-threshold breakdown
#: regime Figure 18 shows for its performance.
DESIGN_NRH: Dict[str, int] = {"default": 125, "blockhammer": 250}

#: Mechanism names on the audit axis that are *controller refresh policies*
#: rather than mitigations: the cell runs the unprotected baseline under the
#: policy (NRH-scaled via :func:`rfm_policy_for_nrh`), and findings report
#: the policy name as the mechanism.  This is how DDR5 RFM — which lives in
#: the refresh scheduler, not behind the mitigation interface — rides the
#: same grid as the trackers.
REFRESH_POLICY_MECHANISMS = ("rfm",)

#: The low-NRH scaling study's mechanism axis (Section 8's DDR5-era
#: frontier): every tracker plus the two in-DRAM DDR5 mechanisms.
SCALING_MECHANISMS = (
    "blockhammer",
    "comet",
    "graphene",
    "hydra",
    "para",
    "prac",
    "rega",
    "rfm",
)

#: The scaling study's threshold axis: the paper's headline NRH = 125 down
#: to the ultra-low 20 where SRAM/CAM trackers blow up in area and RFM/PRAC
#: pay ever more refresh bandwidth instead.
SCALING_NRHS = (125, 64, 32, 20)

#: The scaling study's adversarial patterns: the strongest synthesized
#: many-sided pattern plus the uniform-random spreading pattern.
SCALING_PATTERNS = ("synth_blacksmith", "synth_uniform")


def rfm_policy_for_nrh(nrh: int) -> ControllerPolicySpec:
    """The NRH-scaled RFM configuration the audit grid runs ``"rfm"`` at.

    RAAIMT = NRH / 4: every RAAIMT activations into a bank the controller
    owes an RFM command and the device refreshes the victims of the bank's
    hottest row, so no single row can accumulate more than ~2 * RAAIMT
    disturbances on a victim between services — comfortably under NRH with
    a 2x margin.  RAAMMT = 2 * RAAIMT is the JEDEC dual-threshold shape
    (the hard ceiling at which the device forces the service).  Scaling
    RAAIMT with NRH is exactly the DDR5 trade: security at any threshold,
    paid for in RFM bandwidth that grows as NRH shrinks.
    """
    raaimt = max(1, nrh // 4)
    return ControllerPolicySpec(
        refresh_policy="rfm",
        params={"raaimt": raaimt, "raammt": 2 * raaimt},
    )


def mechanism_of(spec: ExperimentSpec) -> str:
    """The mechanism label an audit cell reports under.

    Normally the mitigation name; an unprotected-baseline cell running under
    an active refresh-management policy (:data:`REFRESH_POLICY_MECHANISMS`)
    reports as that policy — the policy *is* the mechanism under audit.
    """
    mechanism = spec.mitigation.name
    controller = spec.platform.controller
    if (
        mechanism == "none"
        and controller is not None
        and controller.refresh_policy in REFRESH_POLICY_MECHANISMS
    ):
        return controller.refresh_policy
    return mechanism


def design_nrh(mitigation: str) -> int:
    """The audit's design RowHammer threshold for one mechanism."""
    return DESIGN_NRH.get(mitigation, DESIGN_NRH["default"])


def design_mitigation_spec(mitigation: str) -> MitigationSpec:
    """One mechanism's audited design point: threshold plus configuration.

    Most mechanisms audit with their default construction at
    :func:`design_nrh`.  BlockHammer additionally tightens its blacklist
    fraction to 0.25: the default (0.5) budgets the whole threshold for a
    single aggressor, but the verifier's victim-centric invariant sums both
    neighbours — and the synthesized double-sided patterns exploit the dual
    counting-Bloom-filter epoch swap on top, reaching ~2.6x the blacklist
    threshold per victim (the ``synth_blacksmith`` finding that motivated
    this design point).  Halving the fraction keeps the double-sided sum
    plus the epoch-swap slack under NRH.
    """
    nrh = design_nrh(mitigation)
    overrides: Dict[str, Any] = {}
    if mitigation == "blockhammer":
        from repro.mitigations.blockhammer import BlockHammerConfig

        overrides = {"config": BlockHammerConfig(nrh=nrh, blacklist_fraction=0.25)}
    return MitigationSpec(name=mitigation, nrh=nrh, overrides=overrides)


def default_audit_patterns() -> List[str]:
    """Every registered adversarial pattern an audit covers by default."""
    names: List[str] = []
    for category in AUDIT_PATTERN_CATEGORIES:
        names.extend(registered_workload_names(category))
    return sorted(names)


def default_audit_mitigations() -> List[str]:
    """Every registered *protective* mechanism (the baseline is opt-in)."""
    return [name for name in mitigation_names() if name != "none"]


# --------------------------------------------------------------------------- #
# Report dataclasses
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AuditFinding:
    """The security verdict of one (mitigation, pattern, NRH, policy) cell."""

    mitigation: str
    pattern: str
    nrh: int
    channels: int
    #: Controller-policy label of the cell (``scheduler/row/refresh``); the
    #: default triple when the campaign did not sweep the policy axis.
    policy: str
    secure: bool
    max_disturbance: int
    #: ``max_disturbance / nrh`` — how close the pattern pushed any victim to
    #: the RowHammer threshold (>= 1.0 means the invariant was violated).
    margin: float
    violations: int
    first_violation_cycle: Optional[int]
    preventive_refreshes: int
    early_refresh_operations: int
    #: sha256 of the canonical spec JSON: re-run this cell bit-for-bit.
    spec_hash: str

    def as_row(self) -> Dict[str, Any]:
        return {
            "mitigation": self.mitigation,
            "pattern": self.pattern,
            "nrh": self.nrh,
            "channels": self.channels,
            "policy": self.policy,
            "secure": self.secure,
            "max_disturbance": self.max_disturbance,
            "margin": round(self.margin, 4),
            "violations": self.violations,
            "first_violation": (
                self.first_violation_cycle
                if self.first_violation_cycle is not None
                else "-"
            ),
            "preventive_refreshes": self.preventive_refreshes,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mitigation": self.mitigation,
            "pattern": self.pattern,
            "nrh": self.nrh,
            "channels": self.channels,
            "policy": self.policy,
            "secure": self.secure,
            "max_disturbance": self.max_disturbance,
            "margin": self.margin,
            "violations": self.violations,
            "first_violation_cycle": self.first_violation_cycle,
            "preventive_refreshes": self.preventive_refreshes,
            "early_refresh_operations": self.early_refresh_operations,
            "spec_hash": self.spec_hash,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AuditFinding":
        return cls(
            mitigation=data["mitigation"],
            pattern=data["pattern"],
            nrh=data["nrh"],
            channels=data.get("channels", 1),
            policy=data.get("policy", DEFAULT_POLICY.label()),
            secure=data["secure"],
            max_disturbance=data["max_disturbance"],
            margin=data["margin"],
            violations=data.get("violations", 0),
            first_violation_cycle=data.get("first_violation_cycle"),
            preventive_refreshes=data.get("preventive_refreshes", 0),
            early_refresh_operations=data.get("early_refresh_operations", 0),
            spec_hash=data.get("spec_hash", ""),
        )


@dataclass(frozen=True)
class MechanismVerdict:
    """One mechanism's verdict over every pattern and threshold audited."""

    mitigation: str
    secure: bool
    worst_margin: float
    worst_pattern: str
    worst_nrh: int
    patterns_run: int

    def as_row(self) -> Dict[str, Any]:
        return {
            "mitigation": self.mitigation,
            "verdict": "secure" if self.secure else "INSECURE",
            "worst_margin": round(self.worst_margin, 4),
            "worst_pattern": self.worst_pattern,
            "at_nrh": self.worst_nrh,
            "patterns": self.patterns_run,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mitigation": self.mitigation,
            "secure": self.secure,
            "worst_margin": self.worst_margin,
            "worst_pattern": self.worst_pattern,
            "worst_nrh": self.worst_nrh,
            "patterns_run": self.patterns_run,
        }


@dataclass(frozen=True)
class SecurityReport:
    """The reduced outcome of one audit campaign."""

    findings: List[AuditFinding]
    metadata: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    @property
    def is_secure(self) -> bool:
        """True iff every audited cell upheld the RowHammer invariant."""
        return all(finding.secure for finding in self.findings)

    def verdicts(self) -> List[MechanismVerdict]:
        """Per-mechanism reduction, ordered by mechanism name."""
        by_mechanism: Dict[str, List[AuditFinding]] = {}
        for finding in self.findings:
            by_mechanism.setdefault(finding.mitigation, []).append(finding)
        verdicts = []
        for mitigation in sorted(by_mechanism):
            cells = by_mechanism[mitigation]
            worst = max(cells, key=lambda cell: cell.margin)
            verdicts.append(
                MechanismVerdict(
                    mitigation=mitigation,
                    secure=all(cell.secure for cell in cells),
                    worst_margin=worst.margin,
                    worst_pattern=worst.pattern,
                    worst_nrh=worst.nrh,
                    patterns_run=len(
                        {(cell.pattern, cell.nrh, cell.policy) for cell in cells}
                    ),
                )
            )
        return verdicts

    def verdict_for(self, mitigation: str) -> MechanismVerdict:
        for verdict in self.verdicts():
            if verdict.mitigation == mitigation:
                return verdict
        raise KeyError(f"no findings for mitigation {mitigation!r}")

    def finding_for(
        self,
        mitigation: str,
        pattern: str,
        nrh: int,
        policy: Optional[str] = None,
    ) -> AuditFinding:
        """One cell by coordinates; ``policy`` (a label) disambiguates
        campaigns that swept the controller-policy axis (default: first
        match, which is the only match for single-policy campaigns)."""
        for finding in self.findings:
            if (finding.mitigation, finding.pattern, finding.nrh) == (
                mitigation,
                pattern,
                nrh,
            ) and (policy is None or finding.policy == policy):
                return finding
        raise KeyError(f"no finding for {mitigation}/{pattern}@{nrh}")

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def verdict_table(self) -> str:
        return format_table(
            [verdict.as_row() for verdict in self.verdicts()],
            title="security audit: per-mechanism verdicts",
        )

    def findings_table(self) -> str:
        ordered = sorted(
            self.findings,
            key=lambda f: (f.mitigation, -f.margin, f.pattern, f.nrh, f.policy),
        )
        return format_table(
            [finding.as_row() for finding in ordered],
            title="security audit: per-pattern findings (worst margin first)",
        )

    def render(self) -> str:
        return self.verdict_table() + "\n\n" + self.findings_table()

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "report_version": REPORT_VERSION,
            "secure": self.is_secure,
            "metadata": dict(self.metadata),
            "verdicts": [verdict.to_dict() for verdict in self.verdicts()],
            "findings": [finding.to_dict() for finding in self.findings],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SecurityReport":
        version = data.get("report_version", REPORT_VERSION)
        if version > REPORT_VERSION:
            raise ValueError(
                f"report_version {version} is newer than this build supports "
                f"({REPORT_VERSION}); upgrade repro"
            )
        return cls(
            findings=[AuditFinding.from_dict(item) for item in data.get("findings", ())],
            metadata=dict(data.get("metadata", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SecurityReport":
        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------------- #
# Campaign construction and execution
# --------------------------------------------------------------------------- #
def build_audit_grid(
    mitigations: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    nrhs: Optional[Sequence[int]] = None,
    num_requests: int = 6000,
    channels: int = 1,
    seed: int = 0,
    platform: Optional[PlatformSpec] = None,
    include_baseline: bool = False,
    policies: Optional[Sequence[Optional[ControllerPolicySpec]]] = None,
) -> List[ExperimentSpec]:
    """Expand an audit campaign into streaming-verified experiment specs.

    ``nrhs=None`` audits each mechanism at its own design threshold
    (:data:`DESIGN_NRH`); an explicit list applies to every mechanism.
    Every pattern name must resolve through the workload registry (unknown
    names raise up front, listing what is known).  ``include_baseline`` adds
    the unprotected ``"none"`` rows — expected to be *insecure* — as the
    sanity reference showing the patterns really do cross NRH when nothing
    defends.  ``policies`` adds the controller-policy axis: every cell is
    repeated per policy triple (``None`` entries mean the platform's own
    policy), because a mitigation's security margin is entangled with
    scheduler and row-policy choice (open-row residency, refresh contention).

    Mechanism names in :data:`REFRESH_POLICY_MECHANISMS` (``"rfm"``) expand
    to unprotected-baseline cells under the NRH-scaled policy
    (:func:`rfm_policy_for_nrh`) instead of a mitigation spec; those cells
    carry their own controller policy and therefore skip the ``policies``
    axis.  :func:`mechanism_of` maps them back to the policy name when
    findings are reduced.
    """
    mitigation_list = list(mitigations) if mitigations else default_audit_mitigations()
    pattern_list = list(patterns) if patterns else default_audit_patterns()
    policy_list = list(policies) if policies else [None]
    for pattern in pattern_list:
        workload_entry(pattern)  # raises UnknownWorkloadError with known names
    if include_baseline and "none" not in mitigation_list:
        mitigation_list = ["none", *mitigation_list]
    if platform is None:
        plat = PlatformSpec(channels=channels)
    elif channels != 1:
        # An explicit channel count wins over the platform's (the grid's
        # channel-scaling convention); the default of 1 leaves a caller's
        # platform untouched.
        plat = replace(platform, channels=channels)
    else:
        plat = platform
    platforms: List[PlatformSpec] = [
        plat
        if policy is None
        else replace(plat, controller=normalize_policy(policy))
        for policy in policy_list
    ]
    specs: List[ExperimentSpec] = []
    for mitigation in mitigation_list:
        if mitigation in REFRESH_POLICY_MECHANISMS:
            cell_nrhs = [design_nrh(mitigation)] if nrhs is None else list(nrhs)
            for pattern in pattern_list:
                for nrh in cell_nrhs:
                    policy_platform = replace(plat, controller=rfm_policy_for_nrh(nrh))
                    specs.append(
                        ExperimentSpec(
                            workload=WorkloadSpec(
                                name=pattern, num_requests=num_requests, seed=seed
                            ),
                            mitigation=MitigationSpec(name="none", nrh=nrh),
                            platform=policy_platform,
                            verify_security="streaming",
                            name=f"audit:{pattern}/{mitigation}@{nrh}"
                            f"/{policy_platform.controller.label()}",
                        )
                    )
            continue
        if nrhs is None:
            mitigation_specs = [design_mitigation_spec(mitigation)]
        else:
            mitigation_specs = [
                MitigationSpec(name=mitigation, nrh=nrh) for nrh in nrhs
            ]
        if mitigation == "para":
            # Below NRH ~ 50 PARA's derived refresh probability makes its
            # preventive cascade supercritical — an activation storm, not a
            # security verdict.  The grid marks those cells infeasible
            # (they are simply absent; scaling_report records them).
            from repro.mitigations.para import para_is_feasible

            mitigation_specs = [
                mspec for mspec in mitigation_specs if para_is_feasible(mspec.nrh)
            ]
        for pattern in pattern_list:
            for mspec in mitigation_specs:
                for cell_platform in platforms:
                    specs.append(
                        ExperimentSpec(
                            workload=WorkloadSpec(
                                name=pattern, num_requests=num_requests, seed=seed
                            ),
                            mitigation=mspec,
                            platform=cell_platform,
                            verify_security="streaming",
                            name=f"audit:{pattern}/{mitigation}@{mspec.nrh}"
                            + (
                                f"/{cell_platform.controller.label()}"
                                if cell_platform.controller is not None
                                else ""
                            ),
                        )
                    )
    return specs


def _reduce_records(
    specs: Sequence[ExperimentSpec], records: Sequence["RunRecord"]
) -> List[AuditFinding]:
    findings = []
    for spec, record in zip(specs, records):
        result = record.result
        nrh = spec.mitigation.nrh
        policy = spec.platform.controller or DEFAULT_POLICY
        findings.append(
            AuditFinding(
                mitigation=mechanism_of(spec),
                pattern=spec.workload.name,
                nrh=nrh,
                channels=spec.platform.channel_count,
                policy=policy.label(),
                secure=result.security_ok,
                max_disturbance=result.max_disturbance,
                margin=result.max_disturbance / nrh,
                violations=result.security_violations,
                first_violation_cycle=result.first_violation_cycle,
                preventive_refreshes=result.preventive_refreshes,
                early_refresh_operations=result.early_refresh_operations,
                spec_hash=spec.content_hash(),
            )
        )
    return findings


def run_audit(
    mitigations: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    nrhs: Optional[Sequence[int]] = None,
    num_requests: int = 6000,
    channels: int = 1,
    seed: int = 0,
    platform: Optional[PlatformSpec] = None,
    include_baseline: bool = False,
    policies: Optional[Sequence[Optional[ControllerPolicySpec]]] = None,
    session: Optional["Session"] = None,
) -> SecurityReport:
    """Run one audit campaign and reduce it to a :class:`SecurityReport`.

    ``session`` controls fan-out and caching (defaults to an uncached inline
    :class:`~repro.experiment.session.Session`); everything else mirrors
    :func:`build_audit_grid`.  The report is deterministic for a fixed seed:
    the same campaign produces the same findings whether it ran inline,
    across worker processes, or straight out of the result cache.
    """
    specs = build_audit_grid(
        mitigations=mitigations,
        patterns=patterns,
        nrhs=nrhs,
        num_requests=num_requests,
        channels=channels,
        seed=seed,
        platform=platform,
        include_baseline=include_baseline,
        policies=policies,
    )
    if session is None:
        from repro.experiment.session import Session

        session = Session(max_workers=0, store=None)
    records = session.run_many(specs)
    from repro import __version__

    return SecurityReport(
        findings=_reduce_records(specs, records),
        metadata={
            "repro_version": __version__,
            "seed": seed,
            # The resolved channel count (a caller's platform wins over the
            # default ``channels=1``), so the archive matches the findings.
            "channels": specs[0].platform.channel_count if specs else channels,
            "num_requests": num_requests,
            "nrhs": list(nrhs) if nrhs is not None else "design",
            "mitigations": sorted({mechanism_of(spec) for spec in specs}),
            "patterns": sorted({spec.workload.name for spec in specs}),
            "policies": sorted(
                {
                    (spec.platform.controller or DEFAULT_POLICY).label()
                    for spec in specs
                }
            ),
        },
    )


# --------------------------------------------------------------------------- #
# The low-NRH scaling study
# --------------------------------------------------------------------------- #
def scaling_campaign(
    mechanisms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    nrhs: Optional[Sequence[int]] = None,
    num_requests: int = 6000,
    budget: Optional[int] = None,
) -> "CampaignSpec":
    """The DDR5-era scaling study as a resumable campaign.

    Sweeps every mechanism (:data:`SCALING_MECHANISMS` — trackers, in-DRAM
    PRAC/ABO, and NRH-scaled RFM) against :data:`SCALING_PATTERNS` at each
    threshold in :data:`SCALING_NRHS`, streaming-verified, plus the
    unprotected baseline rows.  Run it through
    :meth:`repro.experiment.session.Session.campaign` (or ``repro campaign
    run --scaling-study``): cells persist to the result store as they
    finish, so the study can be killed and resumed, sharded over workers,
    or budgeted per invocation.  Reduce the store to a
    :class:`SecurityReport` with :func:`scaling_report`.
    """
    return CampaignSpec(
        name="low-nrh-scaling",
        workloads=tuple(patterns) if patterns else SCALING_PATTERNS,
        mitigations=tuple(mechanisms) if mechanisms else SCALING_MECHANISMS,
        nrhs=tuple(nrhs) if nrhs else SCALING_NRHS,
        num_requests=num_requests,
        include_baseline=True,
        audit=True,
        budget=budget,
    )


def scaling_report(store, campaign: Optional["CampaignSpec"] = None) -> SecurityReport:
    """Reduce a (possibly partial) scaling campaign's store to a report.

    Re-expands the campaign grid, fetches each cell's record from the
    :class:`~repro.campaign.store.ResultStore` by content hash, and reduces
    whatever is present; cells not yet executed are counted in
    ``metadata["missing_cells"]`` rather than failing, so a partially
    drained campaign still yields a report over its finished frontier.
    """
    from repro import __version__

    campaign = campaign if campaign is not None else scaling_campaign()
    # Cells the grid refused to expand (PARA's supercritical boundary) are
    # reported as infeasible, distinct from not-yet-executed missing cells.
    infeasible: List[str] = []
    if "para" in campaign.mitigations:
        from repro.mitigations.para import para_is_feasible

        infeasible = [
            f"para@{nrh}" for nrh in campaign.nrhs if not para_is_feasible(nrh)
        ]
    specs = [spec for spec, _ in campaign.cells()]
    done: List[ExperimentSpec] = []
    records = []
    for spec in specs:
        record = store.get_record(spec)
        if record is None:
            continue
        done.append(spec)
        records.append(record)
    return SecurityReport(
        findings=_reduce_records(done, records),
        metadata={
            "repro_version": __version__,
            "campaign": campaign.name,
            "campaign_id": campaign.campaign_id(),
            "total_cells": len(specs),
            "missing_cells": len(specs) - len(done),
            "nrhs": list(campaign.nrhs),
            "infeasible": infeasible,
            "mechanisms": sorted({mechanism_of(spec) for spec in done}),
            "patterns": sorted({spec.workload.name for spec in done}),
        },
    )
