"""Golden equivalence: spec-driven runs are bit-identical to hand-assembled ones.

Trace-level runs through :func:`repro.experiment.execute.run_system` are
pinned by the channel-fabric golden file; this suite pins the other side of
the contract: for **every** mitigation in the registry, running the same
experiment from hand-built traces through ``run_system`` and through an
equivalent :class:`~repro.experiment.spec.ExperimentSpec` executed by a
:class:`~repro.experiment.session.Session` must produce *identical*
:class:`~repro.sim.system.SimulationResult` objects — every cycle count,
energy figure and mitigation statistic, not just headline IPC.  The same is
checked for a multi-core mix and for an attack trace with generator
parameters.
"""

import pytest

from repro.experiment.execute import run_system
from repro.experiment.registry import mitigation_names
from repro.experiment.session import Session
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    WorkloadSpec,
    default_experiment_config,
)
from repro.workloads.attacks import traditional_rowhammer_attack
from repro.workloads.suite import build_multicore_traces, build_trace

NRH = 250
NUM_REQUESTS = 800


@pytest.fixture(scope="module")
def session():
    return Session(store=None, max_workers=0)


@pytest.fixture(scope="module")
def dram_config():
    return default_experiment_config()


def assert_identical(by_hand, spec_driven):
    """Field-by-field equality of two SimulationResult dataclasses."""
    assert by_hand.__dict__ == spec_driven.__dict__


@pytest.mark.parametrize("mitigation", mitigation_names())
def test_single_core_matches_shim(mitigation, session, dram_config):
    trace = build_trace("450.soplex", num_requests=NUM_REQUESTS, dram_config=dram_config)
    by_hand = run_system(
        [trace],
        mitigation,
        nrh=NRH,
        dram_config=dram_config,
        verify_security=mitigation != "none",
    )
    record = session.run(
        ExperimentSpec(
            workload=WorkloadSpec(name="450.soplex", num_requests=NUM_REQUESTS),
            mitigation=MitigationSpec(name=mitigation, nrh=NRH),
            verify_security=mitigation != "none",
        )
    )
    assert_identical(by_hand, record.result)


def test_multicore_matches_shim(session, dram_config):
    mix = build_multicore_traces(
        "429.mcf", num_cores=2, num_requests=600, dram_config=dram_config
    )
    by_hand = run_system(
        mix, "comet", nrh=NRH, dram_config=dram_config, name="429.mcf_x2"
    )
    record = session.run(
        ExperimentSpec(
            workload=WorkloadSpec(name="429.mcf", num_requests=600, num_cores=2),
            mitigation=MitigationSpec(name="comet", nrh=NRH),
        )
    )
    assert_identical(by_hand, record.result)


def test_attack_with_params_matches_shim(session, dram_config):
    attack = traditional_rowhammer_attack(
        num_requests=1000, dram_config=dram_config, aggressor_rows_per_bank=2
    )
    by_hand = run_system([attack], "comet", nrh=125, dram_config=dram_config)
    record = session.run(
        ExperimentSpec(
            workload=WorkloadSpec(
                name="attack_traditional",
                num_requests=1000,
                params={"aggressor_rows_per_bank": 2},
            ),
            mitigation=MitigationSpec(name="comet", nrh=125),
        )
    )
    assert_identical(by_hand, record.result)


def test_multichannel_matches_shim(session):
    """2-channel fabric: per-channel mitigation construction (incl. the
    seedable per-channel seeding) must agree between both paths."""
    dram_config = default_experiment_config(channels=2)
    trace = build_trace("mc_stream", num_requests=800, dram_config=dram_config)
    by_hand = run_system([trace], "para", nrh=NRH, dram_config=dram_config)
    record = session.run(
        ExperimentSpec(
            workload=WorkloadSpec(name="mc_stream", num_requests=800),
            mitigation=MitigationSpec(name="para", nrh=NRH),
            platform=PlatformSpec(channels=2),
        )
    )
    assert_identical(by_hand, record.result)


def test_overrides_match_shim(session, dram_config):
    from repro.core.config import CoMeTConfig

    config = CoMeTConfig(nrh=NRH, num_hashes=2, rat_entries=64)
    trace = build_trace("502.gcc", num_requests=600, dram_config=dram_config)
    by_hand = run_system(
        [trace],
        "comet",
        nrh=NRH,
        dram_config=dram_config,
        mitigation_overrides={"config": config},
    )
    record = session.run(
        ExperimentSpec(
            workload=WorkloadSpec(name="502.gcc", num_requests=600),
            mitigation=MitigationSpec(
                name="comet", nrh=NRH, overrides={"config": config}
            ),
        )
    )
    assert_identical(by_hand, record.result)
