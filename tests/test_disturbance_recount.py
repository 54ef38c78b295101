"""The RowHammer verdict against a recount from the command stream.

:class:`~repro.analysis.security.SecurityVerifier` counts disturbance from
the DRAM model's own activation, row-refresh and REF callbacks, so a wrong
REF row pointer or a preventive ACT delivered for the wrong row would fool
it and the model alike.  :class:`oracle_commands.DisturbanceRecount`
rebuilds the same per-victim counts from nothing but the issued command
records; :class:`oracle_commands.CheckedRun` attaches one per channel.  On
audit cells at NRH = 125, over the traditional attack and every registered
``synth_*`` pattern (``synth_multichannel`` on two channels):

* for the controller-side mechanisms (no mitigation, CoMeT, Graphene,
  Hydra, PARA, BlockHammer) every refresh is a command, so the recount's
  maximum disturbance and violation count must equal the verifier's;
* PRAC and REGA, and the DDR5 RFM refresh policy under any mechanism, also
  refresh victims inside DRAM, which no command shows, so there the
  recount can only bound the verifier's figures from above.

Every golden run gets the same check through ``assert_matches_golden``.
"""

import pytest

from oracle_commands import CheckedRun
from repro.controller.policies import ControllerPolicySpec
from repro.experiment.execute import build_workload_traces
from repro.experiment.registry import registered_workload_names
from repro.experiment.spec import MitigationSpec, PlatformSpec, WorkloadSpec
from repro.security.synth import SYNTH_CATEGORY
from repro.sim.system import System, SystemConfig

NRH = 125
REQUESTS = 1500
PATTERNS = ("attack_traditional", *registered_workload_names(SYNTH_CATEGORY))
EXACT = ("none", "comet", "graphene", "hydra", "para", "blockhammer")
UPPER_BOUND = ("prac", "rega")
RFM = ControllerPolicySpec(refresh_policy="rfm")


def _recounted_run(mitigation: str, pattern: str, policy=None) -> CheckedRun:
    """Run one audit cell under a :class:`CheckedRun`, whose recounts and
    verifiers the tests compare."""
    channels = 2 if pattern == "synth_multichannel" else 1
    dram = PlatformSpec(channels=channels).dram_config()
    workload = WorkloadSpec(name=pattern, num_requests=REQUESTS)
    system = System(
        build_workload_traces(workload, dram),
        mitigation=MitigationSpec(name=mitigation, nrh=NRH).build_instances(
            dram.organization.channels
        ),
        config=SystemConfig(dram=dram, nrh_for_verification=NRH, policy=policy),
    )
    run = CheckedRun(system)
    system.run()
    run.finish()
    assert len(run.recounts) == len(run.verifiers) == channels
    return run


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("mitigation", EXACT)
def test_recount_equals_the_verifier(mitigation, pattern):
    run = _recounted_run(mitigation, pattern)
    assert run.recount_exact
    assert run.recounted() == run.verified()


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("mitigation", UPPER_BOUND)
def test_recount_bounds_in_dram_refresh(mitigation, pattern):
    run = _recounted_run(mitigation, pattern)
    assert not run.recount_exact
    (verified_max, verified_count), (recounted_max, recounted_count) = (
        run.verified(),
        run.recounted(),
    )
    assert recounted_max >= verified_max
    assert recounted_count >= verified_count
    run.assert_recount_agrees()


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("mitigation", ("none", "comet"))
def test_recount_bounds_rfm_refresh(mitigation, pattern):
    run = _recounted_run(mitigation, pattern, policy=RFM)
    assert not run.recount_exact
    (verified_max, verified_count), (recounted_max, recounted_count) = (
        run.verified(),
        run.recounted(),
    )
    assert recounted_max >= verified_max
    assert recounted_count >= verified_count


def test_rfm_refreshes_inside_dram():
    """The RFM bound is not vacuous: on the aliasing pattern the policy's
    in-DRAM refreshes pull the verifier below the recount."""
    run = _recounted_run("none", "synth_sketch_aliasing", policy=RFM)
    assert run.verified() != run.recounted()


def test_the_unprotected_baseline_violates():
    """The recount is not vacuous: with no mitigation the aliasing pattern
    crosses NRH in both counts."""
    run = _recounted_run("none", "synth_sketch_aliasing")
    assert run.recounted() == run.verified()
    assert run.verified()[1] > 0


#: An idle controller selects no REF until the next event, so the refresh
#: wave's compute gaps (up to ~135k cycles) postpone REFs past the JEDEC
#: limit of eight; strict, so mending the controller flips this test.
_POSTPONED_REFS = pytest.mark.xfail(
    strict=True, reason="idle gaps postpone REFs past eight tREFI"
)


@pytest.mark.parametrize(
    "pattern",
    [
        pytest.param(pattern, marks=_POSTPONED_REFS)
        if pattern == "synth_refresh_wave"
        else pattern
        for pattern in PATTERNS
    ],
)
def test_audit_cells_issue_a_legal_stream(pattern):
    _recounted_run("comet", pattern).assert_clean()
