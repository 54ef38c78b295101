"""repro.security: adversarial attack synthesis and spec-driven security audits.

The paper's security argument (Section 5) is an invariant — no row's
disturbance ever reaches ``NRH`` between two refreshes of its victims — and
an invariant is only as trustworthy as the adversaries thrown at it.  This
subpackage turns attack generation into a first-class, parameterized workload
frontier and security verification into a campaign:

* :mod:`repro.security.synth` — the attack-synthesis engine: seeded,
  reproducible generators for Blacksmith-style fuzzed n-sided patterns,
  sketch-aware decoy/aliasing attacks against CoMeT's count-min counters,
  RowPress-style long-open-row sequences, refresh-window-straddling waves
  and multi-channel coordinated variants.  Every pattern registers itself as
  a workload (``synth_*``), so it composes with
  :class:`~repro.experiment.spec.WorkloadSpec` and grid expansion like
  any suite entry.
* :mod:`repro.security.audit` — the campaign runner: fan a
  mitigation x pattern x NRH grid through a cached, parallel
  :class:`~repro.experiment.session.Session` with the
  :class:`~repro.analysis.security.SecurityVerifier` attached to every
  run, and reduce the per-run verdicts into a
  :class:`~repro.security.audit.SecurityReport` (max disturbance / NRH
  margin per mechanism, first-violation cycle, per-pattern verdicts) with
  JSON and table output.

Entry points: ``repro audit`` on the command line and
:meth:`repro.experiment.session.Session.audit` from Python.
"""

from repro.security.synth import (
    SYNTH_CATEGORY,
    comet_counter_groups,
    find_aliasing_decoys,
    synth_blacksmith,
    synth_multichannel,
    synth_pattern_names,
    synth_refresh_wave,
    synth_rowpress,
    synth_sketch_aliasing,
    synth_uniform,
)
from repro.security.audit import (
    AuditFinding,
    MechanismVerdict,
    REPORT_VERSION,
    SecurityReport,
    build_audit_grid,
    default_audit_mitigations,
    default_audit_patterns,
    run_audit,
)

__all__ = [
    "SYNTH_CATEGORY",
    "comet_counter_groups",
    "find_aliasing_decoys",
    "synth_blacksmith",
    "synth_multichannel",
    "synth_pattern_names",
    "synth_refresh_wave",
    "synth_rowpress",
    "synth_sketch_aliasing",
    "synth_uniform",
    "AuditFinding",
    "MechanismVerdict",
    "REPORT_VERSION",
    "SecurityReport",
    "build_audit_grid",
    "default_audit_mitigations",
    "default_audit_patterns",
    "run_audit",
]
