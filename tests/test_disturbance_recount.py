"""The RowHammer verdict against a recount from the command stream.

:class:`~repro.analysis.security.SecurityVerifier` counts disturbance from
the DRAM model's own activation, row-refresh and REF callbacks, so a wrong
REF row pointer or a preventive ACT delivered for the wrong row would fool
it and the model alike.  :class:`oracle_commands.DisturbanceRecount`
rebuilds the same per-victim counts from nothing but the issued command
records.  On audit cells at NRH = 125:

* for the controller-side mechanisms (no mitigation, CoMeT, Graphene,
  Hydra, PARA, BlockHammer) every refresh is a command, so the recount's
  maximum disturbance and violation count must equal the verifier's;
* PRAC and REGA also refresh victims inside DRAM, which no command shows,
  so there the recount can only bound the verifier's figures from above.
"""

import pytest

from oracle_commands import DisturbanceRecount
from repro.experiment.execute import build_workload_traces
from repro.experiment.spec import MitigationSpec, PlatformSpec, WorkloadSpec
from repro.sim.system import System, SystemConfig

NRH = 125
REQUESTS = 1500
PATTERNS = ("attack_traditional", "synth_sketch_aliasing")
EXACT = ("none", "comet", "graphene", "hydra", "para", "blockhammer")
UPPER_BOUND = ("prac", "rega")


def _recounted_run(mitigation: str, pattern: str):
    """Run one audit cell with a recount on every channel's command stream;
    returns the verifiers' and the recounts' (max disturbance, violations)."""
    dram = PlatformSpec().dram_config()
    workload = WorkloadSpec(name=pattern, num_requests=REQUESTS)
    system = System(
        build_workload_traces(workload, dram),
        mitigation=MitigationSpec(name=mitigation, nrh=NRH).build_instances(
            dram.organization.channels
        ),
        config=SystemConfig(dram=dram, nrh_for_verification=NRH),
    )
    recounts = []
    for controller in system.fabric.controllers:
        recount = DisturbanceRecount(controller.dram.config, NRH)
        controller.dram.add_command_observer(recount)
        recounts.append(recount)
    system.run()
    verified = (
        max(verifier.max_disturbance for verifier in system.verifiers),
        sum(verifier.violation_count for verifier in system.verifiers),
    )
    recounted = (
        max(recount.max_disturbance for recount in recounts),
        sum(recount.violation_count for recount in recounts),
    )
    return verified, recounted


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("mitigation", EXACT)
def test_recount_equals_the_verifier(mitigation, pattern):
    verified, recounted = _recounted_run(mitigation, pattern)
    assert recounted == verified


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("mitigation", UPPER_BOUND)
def test_recount_bounds_in_dram_refresh(mitigation, pattern):
    (verified_max, verified_count), (recounted_max, recounted_count) = (
        _recounted_run(mitigation, pattern)
    )
    assert recounted_max >= verified_max
    assert recounted_count >= verified_count


def test_the_unprotected_baseline_violates():
    """The recount is not vacuous: with no mitigation the aliasing pattern
    crosses NRH in both counts."""
    verified, recounted = _recounted_run("none", "synth_sketch_aliasing")
    assert recounted == verified
    assert verified[1] > 0
