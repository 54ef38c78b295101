"""Bit-identity of the fast hot path against the fastpath-off reference.

:mod:`repro.fastpath` gates the controller's fused select/issue closures
(:meth:`~repro.controller.controller.MemoryController._build_fast_select`,
one struct-of-arrays demand scan for every registered scheduler, and
``_build_fast_issue``) and the event kernel's untouched-channel decision
skip (:meth:`~repro.sim.engine.EventKernel._schedule_controller`).  With
the switch off the controller ranks candidates through the scheduler's
per-bank ``bank_candidate`` reference and the kernel recomputes after
every event.  The fast path claims to be a pure optimisation: same
commands, same cycles, same statistics.

Two levels pin that claim:

* whole runs — identical experiments executed with the switch forced off
  and on must agree on every field of the
  :class:`~repro.sim.system.SimulationResult`, with at least one point per
  registered scheduler (a registry-completeness test enforces it);
* single decisions — a hypothesis property drives a fused-select
  controller and a switch-off twin through the same random multi-core
  request stream and compares every selection: issue cycle, command,
  request, and BLISS' blacklist state.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import fastpath
from repro.controller.controller import ControllerConfig, MemoryController
from repro.controller.policies import ControllerPolicySpec, scheduler_names
from repro.controller.request import MemoryRequest, RequestType
from repro.dram.config import small_test_config
from repro.experiment.execute import execute_spec
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    WorkloadSpec,
)

_MIX = ("429.mcf", "462.libquantum", "473.astar", "bfs_dblp")


def _mix_point(scheduler: str, row_policy: str, **params) -> ExperimentSpec:
    """A heterogeneous 4-core mix on 2 channels under one policy pair."""
    return ExperimentSpec(
        workload=WorkloadSpec(
            name="mix4",
            mix=tuple(WorkloadSpec(name=m, num_requests=300) for m in _MIX),
        ),
        mitigation=MitigationSpec(name="comet", nrh=125),
        platform=PlatformSpec(
            channels=2,
            controller=ControllerPolicySpec(
                scheduler=scheduler, row_policy=row_policy, params=params
            ),
        ),
    )


#: Small but structurally diverse runs: single channel with full violation
#: recording, a multi-core 2-channel fabric (per-channel skip state), an
#: adversarial pattern under the streaming verifier, and policy points for
#: the non-default schedulers.  ``bliss_closed_page`` is single-core, so its
#: one core is the whole blacklist and demotion never reorders anything;
#: ``bliss_4core_open_page`` is the point where it does, on open rows where
#: the column cap and hit-first ordering both bite.
SPECS = {
    "single_core_comet": ExperimentSpec(
        workload=WorkloadSpec(name="429.mcf", num_requests=800),
        mitigation=MitigationSpec(name="comet", nrh=250),
    ),
    "multicore_2ch": ExperimentSpec(
        workload=WorkloadSpec(name="429.mcf", num_requests=500, num_cores=4),
        mitigation=MitigationSpec(name="comet", nrh=250),
        platform=PlatformSpec(channels=2),
    ),
    "attack_streaming": ExperimentSpec(
        workload=WorkloadSpec(name="attack_traditional", num_requests=800),
        mitigation=MitigationSpec(name="para", nrh=125),
        verify_security="streaming",
    ),
    "bliss_closed_page": ExperimentSpec(
        workload=WorkloadSpec(name="429.mcf", num_requests=800),
        mitigation=MitigationSpec(name="comet", nrh=250),
        platform=PlatformSpec(
            controller=ControllerPolicySpec(
                scheduler="bliss", row_policy="closed_page"
            )
        ),
    ),
    "bliss_4core_open_page": _mix_point(
        "bliss", "open_page", bliss_clearing_interval=4000
    ),
    "fcfs_4core_adaptive_timeout": _mix_point(
        "fcfs", "adaptive_timeout", row_timeout=200
    ),
}


@pytest.mark.parametrize("label", sorted(SPECS))
def test_fast_path_is_bit_identical(label):
    spec = SPECS[label]
    with fastpath.forced(False):
        legacy = execute_spec(spec)
    with fastpath.forced(True):
        fast = execute_spec(spec)
    assert fast.__dict__ == legacy.__dict__


def test_forced_restores_the_switch():
    before = fastpath.enabled()
    with fastpath.forced(not before):
        assert fastpath.enabled() is (not before)
    assert fastpath.enabled() is before


def test_every_scheduler_has_an_identity_point():
    # The fused scan expresses each scheduler through two facts
    # (HITS_FIRST, demoted_cores); a scheduler without a whole-run point
    # here would have nothing pinning those facts to its bank_candidate.
    covered = {
        (spec.platform.controller or ControllerPolicySpec()).scheduler
        for spec in SPECS.values()
    }
    assert set(scheduler_names()) <= covered


@pytest.mark.parametrize(
    "label, fr_fcfs_twin",
    [
        ("bliss_4core_open_page", _mix_point("fr_fcfs", "open_page")),
        (
            "fcfs_4core_adaptive_timeout",
            _mix_point("fr_fcfs", "adaptive_timeout", row_timeout=200),
        ),
    ],
)
def test_policy_point_departs_from_fr_fcfs(label, fr_fcfs_twin):
    # The same traffic under FR-FCFS must schedule differently, or the
    # point would not exercise what sets its scheduler apart.  BLISS with
    # nobody demoted schedules exactly like FR-FCFS, so for it this proves
    # demotion reordered requests.
    assert execute_spec(SPECS[label]).cycles != execute_spec(fr_fcfs_twin).cycles


# --------------------------------------------------------------------------- #
# Decision-level property: fused select vs. the fastpath-off reference
# --------------------------------------------------------------------------- #
_DRAM = small_test_config(
    rows_per_bank=256,
    banks_per_bankgroup=2,
    bankgroups_per_rank=2,
    ranks_per_channel=1,
    refresh_window_scale=1.0 / 2048.0,
)

#: One request: (write?, core, bank index, row, column).  Few banks and few
#: rows per bank, so queues mix cores per bank, open rows collect hits past
#: the column cap and conflicts wait behind them.
_requests = st.tuples(
    st.booleans(),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(1, 3),
    st.integers(0, 7),
)
#: Stream steps: a burst of arrivals at the current cycle (enqueued in the
#: drawn order, then the requests the full queues rejected earlier retry —
#: they carry older request ids than the burst that beat them into the
#: queue, so they arrive out of (arrival, request-id) order), a run of
#: selections each issued at its cycle (64 drains the queues, so later
#: selections find no demand work), or idle time.
_steps = st.one_of(
    st.tuples(st.just("arrive"), st.lists(_requests, min_size=1, max_size=8)),
    st.tuples(st.just("issue"), st.sampled_from([1, 2, 3, 4, 64])),
    st.tuples(st.just("idle"), st.integers(1, 300)),
)


def _twin_controllers(scheduler, row_policy, column_cap, blacklist, streak):
    params = {"row_timeout": 50} if row_policy == "adaptive_timeout" else {}
    if scheduler == "bliss":
        params.update(bliss_blacklist_streak=streak, bliss_clearing_interval=600)
    policy = ControllerPolicySpec(
        scheduler=scheduler, row_policy=row_policy, params=params
    )
    config = ControllerConfig(
        read_queue_size=10,
        write_queue_size=8,
        column_cap=column_cap,
        write_drain_high=6,
        write_drain_low=2,
    )
    with fastpath.forced(True):
        fused = MemoryController(_DRAM, config=config, policy=policy)
    with fastpath.forced(False):
        reference = MemoryController(_DRAM, config=config, policy=policy)
    assert fused._fast_select is not None and reference._fast_select is None
    if scheduler == "bliss":
        for controller in (fused, reference):
            controller.scheduler.blacklist.update(blacklist)
    return fused, reference


def _view(decision):
    if decision is None:
        return None
    cycle, command, request = decision
    return (
        cycle,
        command,
        dict(command.metadata),
        None if request is None else request.request_id,
    )


def _scheduler_state(controller):
    scheduler = controller.scheduler
    if scheduler.name != "bliss":
        return None
    return (set(scheduler.blacklist), scheduler._next_clear)


@pytest.mark.parametrize("scheduler", scheduler_names())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    row_policy=st.sampled_from(["open_page", "closed_page", "adaptive_timeout"]),
    column_cap=st.sampled_from([1, 2, 4, 16]),
    blacklist=st.sets(st.integers(0, 3), max_size=3),
    streak=st.integers(1, 3),
    steps=st.lists(_steps, min_size=4, max_size=40),
)
def test_fused_select_matches_reference_decision_by_decision(
    scheduler, row_policy, column_cap, blacklist, streak, steps
):
    fused, reference = _twin_controllers(
        scheduler, row_policy, column_cap, blacklist, streak
    )
    mapper = fused.mapper
    cycle = 0
    next_id = 0
    retry = []  # (fused, reference) twins a full queue rejected
    for step in steps:
        kind, arg = step
        if kind == "idle":
            cycle += arg
            continue
        if kind == "arrive":
            burst = []
            for is_write, core, bank, row, column in arg:
                address = mapper.decode(
                    mapper.address_for_row(row, bank_index=bank, column=8 * column)
                )
                burst.append(
                    tuple(
                        MemoryRequest(
                            request_type=(
                                RequestType.WRITE if is_write else RequestType.READ
                            ),
                            address=address,
                            core_id=core,
                            request_id=next_id,
                        )
                        for _ in range(2)
                    )
                )
                next_id += 1
            pending, retry = burst + retry, []
            for twin in pending:
                accepted = fused.enqueue(twin[0], cycle)
                assert reference.enqueue(twin[1], cycle) is accepted
                if not accepted:
                    retry.append(twin)
            continue
        for _ in range(arg):
            decision = fused.next_decision(cycle)
            expected = reference.next_decision(cycle)
            assert _view(decision) == _view(expected)
            assert _scheduler_state(fused) == _scheduler_state(reference)
            if decision is None:
                break
            cycle = fused.issue_decision(decision)
            assert reference.issue_decision(expected) == cycle
            assert _scheduler_state(fused) == _scheduler_state(reference)
    assert vars(fused.stats) == vars(reference.stats)
