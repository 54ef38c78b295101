"""Whole runs and single decisions of the hot path, against independent references.

The controller's select/issue closures
(:meth:`~repro.controller.controller.MemoryController._build_select`,
one struct-of-arrays demand scan for every registered scheduler, and
``_build_issue``) and the event kernel's untouched-channel decision
skip are the simulator's only hot path.  Two levels pin it:

* whole runs — every ``spec/*`` entry of ``tests/golden/channels1.json``
  (small runs covering every registered scheduler x row policy, written by
  ``tools/gen_golden.py``) must reproduce its fingerprint and the hash of
  its whole DRAM command stream, and that stream must pass the JEDEC
  oracle of ``tests/oracle_commands.py``;
* single decisions — a hypothesis property drives the select through
  random multi-core request streams and compares every selection (issue
  cycle, command, request, BLISS' blacklist state) with a brute-force
  ranker written here from the scheduling policies' definitions.  A twin
  controller issues the ranker's decisions under the JEDEC oracle, so every
  one of them is checked legal by a model that shares no code with the
  device, and both controllers' row statistics must equal a recount from
  the issued decisions.
"""

from dataclasses import dataclass, field, replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from golden_runs import assert_matches_golden, load_golden
from oracle_commands import CommandStreamChecker, checked_runs
from repro.controller.controller import ControllerConfig, MemoryController
from repro.controller.policies import (
    ControllerPolicySpec,
    row_policy_names,
    scheduler_names,
)
from repro.controller.request import MemoryRequest, RequestType
from repro.dram.commands import Command, CommandKind
from repro.dram.config import small_test_config
from repro.experiment.execute import execute_spec
from repro.experiment.spec import ExperimentSpec

GOLDEN = load_golden()

#: label -> spec of every whole-run point in the golden file.
SPECS = {
    key.split("/", 1)[1]: ExperimentSpec.from_dict(entry["spec"])
    for key, entry in GOLDEN.items()
    if key.startswith("spec/")
}

#: content hash -> golden cycles of every whole-run point.
_GOLDEN_CYCLES = {
    spec.content_hash(): GOLDEN[f"spec/{label}"]["cycles"]
    for label, spec in SPECS.items()
}


def _fr_fcfs_twin(spec: ExperimentSpec) -> ExperimentSpec:
    """``spec`` with FR-FCFS in place of its scheduler.

    The row policy and its parameters stay; the scheduler's own (``bliss_*``)
    parameters go with it.
    """
    controller = spec.platform.controller
    params = {k: v for k, v in controller.params if not k.startswith("bliss_")}
    controller = replace(controller, scheduler="fr_fcfs", params=params)
    return replace(spec, platform=replace(spec.platform, controller=controller))


@pytest.mark.parametrize("label", sorted(SPECS))
def test_fast_path_is_bit_identical(label):
    with checked_runs() as runs:
        result = execute_spec(SPECS[label])
    assert_matches_golden(result, runs[0], GOLDEN[f"spec/{label}"])


def test_every_scheduler_has_an_identity_point():
    # The fused scan expresses each scheduler through two facts
    # (HITS_FIRST, demoted_cores); a scheduler x row policy pair without a
    # golden whole-run point would have nothing pinning its schedule.
    covered = {
        (controller.scheduler, controller.row_policy)
        for controller in (
            spec.platform.controller or ControllerPolicySpec()
            for spec in SPECS.values()
        )
    }
    assert {
        (scheduler, row_policy)
        for scheduler in scheduler_names()
        for row_policy in row_policy_names()
    } <= covered


@pytest.mark.parametrize(
    "label, fr_fcfs_twin",
    [
        (label, _fr_fcfs_twin(SPECS[label]))
        for label in ("bliss_4core_open_page", "fcfs_4core_adaptive_timeout")
    ],
)
def test_policy_point_departs_from_fr_fcfs(label, fr_fcfs_twin):
    # The same traffic under FR-FCFS must schedule differently, or the
    # point would not exercise what sets its scheduler apart.  BLISS with
    # nobody demoted schedules exactly like FR-FCFS, so for it this proves
    # demotion reordered requests.  A twin that is itself a golden point is
    # read from the golden file instead of re-simulated.
    twin_cycles = _GOLDEN_CYCLES.get(fr_fcfs_twin.content_hash())
    if twin_cycles is None:
        twin_cycles = execute_spec(fr_fcfs_twin).cycles
    assert GOLDEN[f"spec/{label}"]["cycles"] != twin_cycles


# --------------------------------------------------------------------------- #
# Decision-level property: fused select vs. a brute-force ranker
# --------------------------------------------------------------------------- #
_DRAM = small_test_config(
    rows_per_bank=256,
    banks_per_bankgroup=2,
    bankgroups_per_rank=2,
    ranks_per_channel=1,
    refresh_window_scale=1.0 / 2048.0,
)


@dataclass
class _BruteForceRanker:
    """Ranks a controller's demand by re-reading its queues from scratch.

    Written from the policy definitions, sharing nothing with the fused
    scan: every active request is bucketed by bank and sorted here, each
    bank yields the request its scheduler serves next, and the candidates
    compete on ``(issue cycle, *priority, scan key)``.  The write-drain
    hysteresis, the enqueue order behind the scan key and BLISS' clearing
    are tracked here too.  Issue cycles come from
    ``DRAMSystem.earliest_issue_cycle``, and the refresh and row-policy
    close candidates from the controller's own helpers: their legality is
    the JEDEC oracle's business, what is under test here is the ranking.
    """

    controller: MemoryController
    draining: bool = False
    seq: dict = field(default_factory=dict)

    def enqueue(self, request: MemoryRequest, cycle: int) -> bool:
        accepted = self.controller.enqueue(request, cycle)
        if accepted:
            self.seq[request] = len(self.seq)
        return accepted

    def decide(self, cycle: int):
        ctl = self.controller
        decision = ctl._refresh_command(cycle)
        if decision is not None:
            return decision
        config = ctl.config
        writes = len(ctl.write_queue)
        if self.draining:
            self.draining = writes > config.write_drain_low
        else:
            self.draining = writes >= config.write_drain_high
        reads = list(ctl.read_queue)
        active = reads + (
            list(ctl.write_queue) if self.draining or not reads else []
        )
        scheduler = ctl.scheduler
        bliss = scheduler.name == "bliss"
        if active and bliss:
            while cycle >= scheduler._next_clear:
                scheduler.blacklist.clear()
                scheduler._streak_core = None
                scheduler._streak = 0
                scheduler._next_clear += scheduler.clearing_interval

        def demoted(request):
            return bliss and request.core_id in scheduler.blacklist

        def first(requests):
            return min(
                requests, key=lambda r: (demoted(r), r.arrival_cycle, r.request_id)
            )

        by_bank = {}
        for request in active:
            by_bank.setdefault(request.address.bank_key, []).append(request)
        candidates = []
        for bank_key, pending in by_bank.items():
            bank = ctl.dram.bank(*bank_key)
            bank_reads = [r for r in pending if not r.is_write]
            scan_key = (
                (0, min(self.seq[r] for r in bank_reads))
                if bank_reads
                else (1, min(self.seq[r] for r in pending))
            )
            if scheduler.name == "fcfs":
                pending = [first(pending)]
            if bank.is_closed():
                request, kind = first(pending), CommandKind.ACT
            else:
                hits = [r for r in pending if r.address.row == bank.open_row]
                conflicts = [r for r in pending if r.address.row != bank.open_row]
                cap_reached = bank.open_row_column_accesses >= config.column_cap
                if hits and not (cap_reached and conflicts):
                    request = first(hits)
                    kind = CommandKind.WR if request.is_write else CommandKind.RD
                elif conflicts:
                    request, kind = first(conflicts), CommandKind.PRE
                else:
                    continue
            address = request.address
            command = Command(
                kind,
                channel=address.channel,
                rank=address.rank,
                bankgroup=address.bankgroup,
                bank=address.bank,
                row=address.row if kind is CommandKind.ACT else None,
                column=address.column if kind in (CommandKind.RD, CommandKind.WR) else None,
            )
            priority = (
                (demoted(request), request.arrival_cycle)
                if bliss
                else (request.arrival_cycle,)
            )
            issue = ctl.dram.earliest_issue_cycle(command, cycle)
            candidates.append(((issue, *priority, scan_key), command, request))
        for bank_key, opened, not_before in ctl.row_policy.close_candidates(ctl, cycle):
            if ctl.dram.bank(*bank_key).is_closed():
                continue
            command = Command(
                CommandKind.PRE,
                channel=bank_key[0],
                rank=bank_key[1],
                bankgroup=bank_key[2],
                bank=bank_key[3],
                metadata={"policy_close": True},
            )
            issue = ctl.dram.earliest_issue_cycle(command, max(cycle, not_before))
            priority = (0, opened) if bliss else (opened,)
            candidates.append(((issue, *priority, (2, *bank_key)), command, None))
        if not candidates:
            return None
        order, command, request = min(candidates, key=lambda c: c[0])
        return order[0], command, request


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
    fused = MemoryController(_DRAM, config=config, policy=policy)
    reference = MemoryController(_DRAM, config=config, policy=policy)
    # The twin issues the ranker's decisions; the oracle re-checks each one.
    checker = CommandStreamChecker(reference.dram.config)
    reference.dram.add_command_observer(checker)
    if scheduler == "bliss":
        for controller in (fused, reference):
            controller.scheduler.blacklist.update(blacklist)
    return fused, _BruteForceRanker(reference), checker


def _recount(issued):
    """The issue bookkeeping, recounted from issued ``(command, request)``.

    A column command served a demand request from the open row (a hit), a
    demand ACT opened its row (a miss), a demand PRE closed a row for it (a
    conflict); a request-less PRE marked ``policy_close`` is the row
    policy's, and a preventive PRE finishes a preventive refresh.
    """
    counts = dict.fromkeys(
        (
            "row_hits",
            "row_misses",
            "row_conflicts",
            "policy_precharges",
            "preventive_refresh_pairs",
            "completed_reads",
            "total_read_latency",
        ),
        0,
    )
    for command, request in issued:
        demand = (
            request is not None
            and request.request_type is not RequestType.PREVENTIVE_REFRESH
        )
        if command.kind in (CommandKind.RD, CommandKind.WR):
            if demand:
                counts["row_hits"] += 1
                if not request.is_write:
                    counts["completed_reads"] += 1
                    counts["total_read_latency"] += (
                        request.completion_cycle - request.arrival_cycle
                    )
        elif command.kind is CommandKind.ACT:
            counts["row_misses"] += demand
        elif command.kind is CommandKind.PRE:
            if demand:
                counts["row_conflicts"] += 1
            elif command.is_preventive:
                counts["preventive_refresh_pairs"] += 1
            elif request is None and command.metadata.get("policy_close"):
                counts["policy_precharges"] += 1
    return counts


def _bookkeeping(controller, keys):
    stats = dict(
        vars(controller.stats),
        preventive_refresh_pairs=controller.dram.stats.preventive_refresh_pairs,
    )
    return {key: stats[key] for key in keys}


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
    fused, ranker, checker = _twin_controllers(
        scheduler, row_policy, column_cap, blacklist, streak
    )
    reference = ranker.controller
    issued = {fused: [], reference: []}
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
                assert ranker.enqueue(twin[1], cycle) is accepted
                if not accepted:
                    retry.append(twin)
            continue
        for _ in range(arg):
            decision = fused.next_decision(cycle)
            expected = ranker.decide(cycle)
            assert _view(decision) == _view(expected)
            assert _scheduler_state(fused) == _scheduler_state(reference)
            if decision is None:
                break
            cycle = fused.issue_decision(decision)
            assert reference.issue_decision(expected) == cycle
            assert _scheduler_state(fused) == _scheduler_state(reference)
            issued[fused].append(decision[1:])
            issued[reference].append(expected[1:])
    assert checker.violation_count == 0, checker.violations[:5]
    for controller, decisions in issued.items():
        expected_counts = _recount(decisions)
        assert _bookkeeping(controller, expected_counts) == expected_counts
