"""Tests for the FR-FCFS memory controller."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.controller import ControllerConfig, MemoryController, _BankPending
from repro.controller.policies import NEVER, ControllerPolicySpec
from repro.controller.request import MemoryRequest, RequestType
from repro.dram.address import DRAMAddress
from repro.dram.commands import Command, CommandKind
from repro.dram.config import small_test_config
from repro.experiment.execute import build_workload_traces
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    WorkloadSpec,
)
from repro.mitigations.none import NoMitigation
from repro.sim.system import System, SystemConfig


def make_controller(dram_config, **kwargs):
    return MemoryController(dram_config, **kwargs)


def read_request(controller, row, bank_index=0, column=0, cycle=0, core_id=0):
    address = controller.mapper.decode(
        controller.mapper.address_for_row(row, bank_index=bank_index, column=column)
    )
    return MemoryRequest(
        request_type=RequestType.READ,
        address=address,
        core_id=core_id,
        arrival_cycle=cycle,
    )


def write_request(controller, row, bank_index=0, column=0, cycle=0):
    address = controller.mapper.decode(
        controller.mapper.address_for_row(row, bank_index=bank_index, column=column)
    )
    return MemoryRequest(request_type=RequestType.WRITE, address=address, arrival_cycle=cycle)


def run_until_idle(controller, start=0, limit=50_000):
    cycle = start
    for _ in range(limit):
        if not controller.has_work():
            break
        issued = controller.issue_next(cycle)
        if issued is None:
            break
        cycle = issued
    return cycle


def record_act_rows(controller):
    """The rows of every ACT the controller issues from now on, in order."""
    rows = []

    def observe(cycle, command):
        if command.kind is CommandKind.ACT:
            rows.append(command.row)

    controller.dram.add_command_observer(observe)
    return rows


def run_decisions(controller, start=0, limit=50_000):
    """Issue every decision until idle; returns them in issue order."""
    decisions = []
    cycle = start
    for _ in range(limit):
        decision, _ = controller.next_decision(cycle)
        if decision is None:
            break
        decisions.append(decision)
        cycle = controller.issue_decision(decision)
    return decisions


class TestEnqueue:
    def test_enqueue_read(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        assert controller.enqueue(read_request(controller, 5), 0)
        assert controller.pending_requests() == 1
        assert controller.stats.read_requests == 1

    def test_read_queue_capacity(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config, config=ControllerConfig(read_queue_size=2))
        assert controller.enqueue(read_request(controller, 1), 0)
        assert controller.enqueue(read_request(controller, 2), 0)
        assert not controller.enqueue(read_request(controller, 3), 0)

    def test_write_queue_capacity(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config, config=ControllerConfig(write_queue_size=1))
        assert controller.enqueue(write_request(controller, 1), 0)
        assert not controller.enqueue(write_request(controller, 2), 0)

    def test_mitigation_traffic_counted_separately(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        address = controller.mapper.decode(controller.mapper.address_for_row(3))
        controller.enqueue_mitigation_request(address, is_write=False, cycle=0)
        assert controller.stats.mitigation_requests == 1
        assert controller.stats.read_requests == 0


class TestReadService:
    def test_single_read_completes_with_act_plus_cas_latency(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        timing = tiny_dram_config.timing
        completed = []
        request = read_request(controller, 7)
        request.on_complete = lambda req, cycle: completed.append(cycle)
        controller.enqueue(request, 0)
        run_until_idle(controller)
        assert completed
        assert completed[0] == timing.tRCD + timing.tCL + timing.tBURST
        assert controller.stats.completed_reads == 1

    def test_row_hit_served_before_older_conflict(self, tiny_dram_config):
        """FR-FCFS: a younger row hit is served before an older row conflict."""
        controller = make_controller(tiny_dram_config)
        order = []
        first = read_request(controller, 1, cycle=0)
        first.on_complete = lambda req, cycle: order.append(("miss_row1", cycle))
        controller.enqueue(first, 0)
        run_until_idle(controller)  # opens row 1

        conflict = read_request(controller, 2, cycle=100)
        conflict.on_complete = lambda req, cycle: order.append(("conflict_row2", cycle))
        hit = read_request(controller, 1, column=8, cycle=101)
        hit.on_complete = lambda req, cycle: order.append(("hit_row1", cycle))
        controller.enqueue(conflict, 100)
        controller.enqueue(hit, 101)
        run_until_idle(controller, start=101)
        names = [name for name, _ in order]
        assert names.index("hit_row1") < names.index("conflict_row2")

    def test_column_cap_prevents_starvation(self, tiny_dram_config):
        """A stream of younger row hits must not starve an older row conflict."""
        config = ControllerConfig(column_cap=4)
        controller = make_controller(tiny_dram_config, config=config)
        completions = {}
        # Open row 1 with an initial request.
        opener = read_request(controller, 1)
        controller.enqueue(opener, 0)
        run_until_idle(controller)

        # An older conflicting request followed by a burst of younger row hits.
        conflict = read_request(controller, 2, cycle=100)
        conflict.on_complete = lambda req, cycle: completions.setdefault("conflict", cycle)
        controller.enqueue(conflict, 100)
        for index in range(12):
            request = read_request(controller, 1, column=(index + 1) * 8)
            request.on_complete = lambda req, cycle, i=index: completions.setdefault(f"hit{i}", cycle)
            controller.enqueue(request, 101 + index)
        run_until_idle(controller, start=101)
        assert "conflict" in completions
        # Without the cap all 12 hits would be served first; with a cap of 4
        # the conflict must finish before the later hits.
        assert completions["conflict"] < completions["hit11"]

    def test_column_cap_without_conflict_keeps_serving_hits(self, tiny_dram_config):
        """The starvation guard only kicks in when someone is starving: a
        pure hit stream past the cap must not trigger a precharge."""
        config = ControllerConfig(column_cap=4)
        controller = make_controller(tiny_dram_config, config=config)
        controller.enqueue(read_request(controller, 1), 0)
        run_until_idle(controller)
        pres_before = controller.dram.stats.pres
        for i in range(8):  # twice the cap, all hits, no conflicting request
            controller.enqueue(
                read_request(controller, 1, column=8 * (i + 1), cycle=100 + i),
                100 + i,
            )
        run_until_idle(controller, start=100)
        assert controller.dram.stats.pres == pres_before
        assert controller.stats.completed_reads == 9

    def test_bank_parallelism(self, tiny_dram_config):
        """Requests to different banks overlap: total time far below serial time."""
        controller = make_controller(tiny_dram_config)
        timing = tiny_dram_config.timing
        completions = []
        num_banks = 4
        for bank in range(num_banks):
            request = read_request(controller, 10, bank_index=bank)
            request.on_complete = lambda req, cycle: completions.append(cycle)
            controller.enqueue(request, 0)
        run_until_idle(controller)
        assert len(completions) == num_banks
        serial_time = num_banks * (timing.tRCD + timing.tCL + timing.tBURST)
        assert max(completions) < serial_time


class TestWrites:
    def test_writes_drain_when_read_queue_empty(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        controller.enqueue(write_request(controller, 3), 0)
        run_until_idle(controller)
        assert controller.dram.stats.writes == 1
        assert not controller.write_queue

    def test_write_drain_high_watermark(self, tiny_dram_config):
        config = ControllerConfig(write_drain_high=4, write_drain_low=1)
        controller = make_controller(tiny_dram_config, config=config)
        for i in range(6):
            controller.enqueue(write_request(controller, i, column=8 * i), 0)
        run_until_idle(controller)
        assert controller.dram.stats.writes == 6

    def test_writes_buffered_below_high_watermark(self, tiny_dram_config):
        """With reads pending and writes below the high watermark, every
        selected command serves the read stream — writes stay buffered."""
        config = ControllerConfig(write_drain_high=4, write_drain_low=2)
        controller = make_controller(tiny_dram_config, config=config)
        for i in range(3):
            controller.enqueue(write_request(controller, i + 10, column=8 * i), 0)
        controller.enqueue(read_request(controller, 1), 0)
        cycle = 0
        while controller.read_queue:
            cycle = controller.issue_next(cycle)
            assert not controller._draining_writes
        assert len(controller.write_queue) == 3
        assert controller.dram.stats.writes == 0

    def test_write_drain_hysteresis(self, tiny_dram_config):
        """Drain mode latches on at >= high and off only at <= low, so the
        queue level between the watermarks does not flap the mode."""
        config = ControllerConfig(write_drain_high=4, write_drain_low=2)
        controller = make_controller(tiny_dram_config, config=config)
        for i in range(4):
            controller.enqueue(write_request(controller, i + 10, column=8 * i), 0)
        controller.enqueue(read_request(controller, 1), 0)
        controller.next_decision(0)
        assert controller._draining_writes
        cycle = 0
        while len(controller.write_queue) > config.write_drain_low:
            cycle = controller.issue_next(cycle)
            # Between low and high the latched mode must hold (hysteresis).
            if len(controller.write_queue) > config.write_drain_low:
                assert controller._draining_writes
        controller.next_decision(cycle)
        assert not controller._draining_writes


class TestRefresh:
    def test_periodic_refresh_issued(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        # Enqueue a trickle of reads spanning more than one tREFI.
        span = tiny_dram_config.tREFI * 3
        request = read_request(controller, 1)
        controller.enqueue(request, 0)
        run_until_idle(controller)
        # Jump past several refresh intervals and give the controller work.
        late = read_request(controller, 2, cycle=span)
        controller.enqueue(late, span)
        run_until_idle(controller, start=span)
        assert controller.dram.stats.refreshes >= 1

    def test_extra_rank_refreshes_all_issued(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        controller.schedule_rank_refresh(0, 0, 3)
        assert controller.has_work()
        run_until_idle(controller)
        assert controller.dram.stats.refreshes >= 3
        assert controller.stats.early_refresh_operations == 1


class TestValidUntil:
    """The select's second value: the first cycle after the asked one at
    which time alone could change its answer."""

    def test_idle_select_holds_until_the_next_refresh_deadline(self):
        controller = make_controller(
            small_test_config(rows_per_bank=256, ranks_per_channel=2)
        )
        dues = sorted(controller.next_refresh_due.values())
        assert len(dues) == 2 and dues[0] < dues[1]
        assert controller.next_decision(0) == (None, dues[0])
        # A deadline already reached is served, not waited for: the REF
        # holds until the next deadline still ahead.
        decision, valid_until = controller.next_decision(dues[0])
        assert decision[1].kind is CommandKind.REF
        assert valid_until == dues[1]

    def test_idle_select_without_refresh_holds_forever(self, tiny_dram_config):
        config = dataclasses.replace(tiny_dram_config, refresh_enabled=False)
        controller = make_controller(config)
        assert controller.next_decision(0) == (None, NEVER)
        controller.enqueue(read_request(controller, 1), 0)
        decision, valid_until = controller.next_decision(0)
        assert decision[1].kind is CommandKind.ACT
        assert valid_until == NEVER


class TestPreventiveRefresh:
    def test_preventive_refresh_activates_and_closes_victim(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        victim = controller.mapper.decode(controller.mapper.address_for_row(8))
        act_rows = record_act_rows(controller)
        controller.schedule_preventive_refresh(victim, 0)
        assert controller.stats.preventive_refreshes == 1
        run_until_idle(controller)
        assert controller.dram.stats.preventive_acts == 1
        assert act_rows == [8]
        assert not controller.preventive_queue

    def test_preventive_refresh_prioritized_over_reads(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        # A read and a preventive refresh to the same (closed) bank: the
        # preventive refresh's ACT must win the first activation.
        request = read_request(controller, 1)
        controller.enqueue(request, 0)
        victim = controller.mapper.decode(controller.mapper.address_for_row(50))
        controller.schedule_preventive_refresh(victim, 0)
        controller.issue_next(0)
        bank = controller.dram.bank_for(victim)
        assert bank.open_row == 50

    def test_preventive_refresh_to_open_bank_precharges_first(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        request = read_request(controller, 1)
        controller.enqueue(request, 0)
        run_until_idle(controller)  # leaves row 1 open
        victim = controller.mapper.decode(controller.mapper.address_for_row(60))
        act_rows = record_act_rows(controller)
        controller.schedule_preventive_refresh(victim, 200)
        run_until_idle(controller, start=200)
        assert act_rows == [60]


class TestMitigationWiring:
    def test_mitigation_observes_activations(self, tiny_dram_config):
        mitigation = NoMitigation()
        observed = []
        mitigation.on_activation = lambda cycle, address, prev: observed.append(address.row)
        controller = make_controller(tiny_dram_config, mitigation=mitigation)
        controller.enqueue(read_request(controller, 4), 0)
        run_until_idle(controller)
        assert observed == [4]

    def test_drain_returns_final_cycle(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        controller.enqueue(read_request(controller, 4), 0)
        final = run_until_idle(controller)
        assert final > 0
        assert not controller.has_work()


class TestDemandPrechargeReuse:
    """The fused select hands out one frozen demand PRE per bank."""

    def test_demand_pre_decision_is_a_plain_pre(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        controller.enqueue(read_request(controller, 5), 0)
        conflict = read_request(controller, 9)
        controller.enqueue(conflict, 0)
        decisions = run_decisions(controller)
        address = conflict.address
        expected = Command(
            CommandKind.PRE,
            channel=address.channel,
            rank=address.rank,
            bankgroup=address.bankgroup,
            bank=address.bank,
        )
        demand_pres = [
            command
            for _, command, request in decisions
            if command.kind is CommandKind.PRE and request is conflict
        ]
        assert demand_pres == [expected]
        assert demand_pres[0].metadata == {}
        assert repr(demand_pres[0]) == repr(expected)
        assert controller._pre_commands == {address.bank_key: expected}

        # A later conflict on the same bank reuses the same instance.
        again = read_request(controller, 13)
        controller.enqueue(again, controller.current_cycle)
        decision, _ = controller.next_decision(controller.current_cycle)
        assert decision[2] is again
        assert decision[1] is demand_pres[0]

    @pytest.mark.parametrize("row_policy", ["closed_page", "adaptive_timeout"])
    def test_policy_close_pre_keeps_its_tag(self, tiny_dram_config, row_policy):
        controller = make_controller(
            tiny_dram_config, policy=ControllerPolicySpec(row_policy=row_policy)
        )
        controller.enqueue(read_request(controller, 5), 0)
        conflict = read_request(controller, 9)
        controller.enqueue(conflict, 0)
        decisions = run_decisions(controller)
        bank_key = conflict.address.bank_key
        shared = controller._pre_commands[bank_key]
        assert list(controller._pre_commands) == [bank_key]
        closes = [
            command
            for _, command, request in decisions
            if request is None and command.metadata.get("policy_close")
        ]
        assert closes, "the row policy never closed the idle row"
        for command in closes:
            assert command.metadata == {"policy_close": True}
            assert command == shared  # same bank; metadata is not compared
            assert command is not shared
        assert shared.metadata == {}
        assert controller.stats.policy_precharges == len(closes)
        for _, command, request in decisions:
            if command is shared:
                assert request is conflict

    @pytest.mark.parametrize("row_policy", ["open_page", "closed_page"])
    def test_table_bounded_by_owned_banks_after_mix_run(self, row_policy):
        spec = ExperimentSpec(
            workload=WorkloadSpec(
                name="mix4",
                mix=tuple(
                    WorkloadSpec(name=name, num_requests=300)
                    for name in ("429.mcf", "462.libquantum", "473.astar", "bfs_dblp")
                ),
            ),
            mitigation=MitigationSpec(name="comet", nrh=125),
            platform=PlatformSpec(
                channels=2, controller=ControllerPolicySpec(row_policy=row_policy)
            ),
        )
        dram_config = spec.platform.dram_config()
        system = System(
            build_workload_traces(spec.workload, dram_config),
            mitigation=spec.mitigation.build_instances(2),
            config=SystemConfig(dram=dram_config, policy=spec.platform.controller),
        )
        system.run()
        org = dram_config.organization
        banks_per_channel = (
            org.ranks_per_channel * org.bankgroups_per_rank * org.banks_per_bankgroup
        )
        controllers = system.fabric.controllers
        assert len(controllers) == 2
        for controller in controllers:
            table = controller._pre_commands
            assert table, "no demand conflict on this channel"
            assert len(table) <= banks_per_channel
            assert controller.stats.row_conflicts >= len(table)
            for bank_key, command in table.items():
                assert bank_key[0] == controller.channel
                assert command == Command(CommandKind.PRE, *bank_key)
                assert command.metadata == {}
                assert not command.is_preventive
        if row_policy == "closed_page":
            assert sum(c.stats.policy_precharges for c in controllers) > 0


def reverse_active_banks(controller):
    """Rebuild the demand scan's bank dict in reversed order, in place (the
    select binds the dict itself)."""
    active = controller._active_banks
    items = list(active.items())
    active.clear()
    active.update(reversed(items))


class TestBankQueues:
    """One record per bank: it enters ``_active_banks`` at the bank's first
    enqueue and leaves when both of its queues drain, and the scan's winner
    does not depend on the order the records are visited in."""

    def test_record_lifecycle(self, tiny_dram_config):
        controller = make_controller(
            tiny_dram_config,
            config=ControllerConfig(write_drain_high=1, write_drain_low=0),
        )
        read = read_request(controller, 5)
        key = read.address.bank_key
        assert not controller.has_pending_for_bank(key)
        controller.enqueue(read, 0)
        record = controller._active_banks[key]
        assert controller._bank_queues[key] is record
        assert controller.has_pending_for_bank(key)
        assert record.reads.requests == [read] and record.writes is None

        write = write_request(controller, 5, column=8)
        controller.enqueue(write, 0)
        assert record.writes.requests == [write]
        # Draining writes: the select merges the bank's reads and writes.
        controller.next_decision(0)
        assert record.merged == [read, write]
        later = read_request(controller, 5, column=16)
        controller.enqueue(later, 0)
        assert record.merged is None  # dropped on enqueue
        controller.next_decision(0)
        assert record.merged == [read, write, later]

        retired = []
        while not retired:
            decision, _ = controller.next_decision(controller.current_cycle)
            controller.issue_decision(decision)
            if decision[1].kind in (CommandKind.RD, CommandKind.WR):
                retired.append(decision[2])
        assert record.merged is None  # dropped on retire
        assert controller.has_pending_for_bank(key)

        run_until_idle(controller, controller.current_cycle)
        assert key not in controller._active_banks
        assert not controller.has_pending_for_bank(key)
        assert record.reads is None and record.writes is None
        assert controller._bank_queues[key] is record

        controller.enqueue(write_request(controller, 9), controller.current_cycle)
        assert controller._active_banks[key] is record  # reused
        assert controller.has_pending_for_bank(key)
        assert record.reads is None and len(record.writes.requests) == 1

    @pytest.mark.parametrize("scheduler", ["fr_fcfs", "fcfs", "bliss"])
    def test_winner_does_not_depend_on_bank_order(self, tiny_dram_config, scheduler):
        controller = make_controller(
            tiny_dram_config,
            config=ControllerConfig(write_drain_high=4, write_drain_low=1),
            policy=ControllerPolicySpec(scheduler=scheduler),
        )
        demoted = controller.scheduler.demoted_cores
        for i in range(16):
            bank, row, core = i % 4, 1 + (i * 7) % 3, i % 3
            if i % 5 == 4:
                request = write_request(controller, row, bank_index=bank, column=8 * i)
            else:
                request = read_request(
                    controller, row, bank_index=bank, column=8 * i, core_id=core
                )
            assert controller.enqueue(request, 0)
        multi_bank = 0
        cycle = 0
        while True:
            if demoted is not None:
                demoted.add(1)
            decision, _ = controller.next_decision(cycle)
            if decision is None:
                break
            multi_bank += len(controller._active_banks) > 1
            reverse_active_banks(controller)
            again, _ = controller.next_decision(cycle)
            assert again == decision
            cycle = controller.issue_decision(again)
        assert controller.pending_requests() == 0
        assert multi_bank >= 20


class TestBankPendingMinSeq:
    """``_BankPending.min_seq`` is the smallest enqueue sequence number among
    the bank's requests, through in-order appends, out-of-order inserts
    (retried requests with an older arrival, or an equal arrival and a
    larger request id) and removals in any order; ``requests`` stays sorted
    by ``(arrival_cycle, request_id)`` throughout."""

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 40),
                st.integers(0, 30),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_min_seq_is_the_smallest_pending_sequence(self, ops):
        pending = _BankPending()
        seq = 0
        for is_add, arrival, pick, older_id in ops:
            if is_add or not pending.requests:
                request = MemoryRequest(
                    request_type=RequestType.READ,
                    address=DRAMAddress(0, 0, 0, 0, arrival % 3, 0),
                    arrival_cycle=arrival,
                    # Unique ids, some counting down: an equal arrival then
                    # sorts before requests already queued.
                    request_id=1000 - seq if older_id else seq,
                )
                request.enqueue_seq = seq
                pending.add(request, seq)
                seq += 1
            else:
                pending.remove(pending.requests[pick % len(pending.requests)])
            expected = min(
                (r.enqueue_seq for r in pending.requests), default=NEVER
            )
            assert pending.min_seq == expected
            keys = [(r.arrival_cycle, r.request_id) for r in pending.requests]
            assert keys == sorted(keys)


class TestMemoryRequest:
    """A request is one slotted object: identity eq/hash, the controller's
    two side slots with their defaults, and no ``__dict__``."""

    def test_identity_eq_and_hash(self):
        address = DRAMAddress(0, 0, 0, 0, 5, 0)
        first = MemoryRequest(RequestType.READ, address, arrival_cycle=3)
        twin = MemoryRequest(
            RequestType.READ, address, arrival_cycle=3, request_id=first.request_id
        )
        assert first == first
        assert first != twin
        assert len({first, twin}) == 2
        assert hash(first) != hash(twin)

    def test_request_id_drawn_only_when_not_given(self):
        address = DRAMAddress(0, 0, 0, 0, 5, 0)
        first = MemoryRequest(RequestType.READ, address)
        MemoryRequest(RequestType.READ, address, request_id=-1)
        after = MemoryRequest(RequestType.WRITE, address)
        assert after.request_id == first.request_id + 1

    def test_controller_slots_and_no_dict(self):
        request = MemoryRequest(RequestType.READ, DRAMAddress(0, 0, 0, 0, 5, 0))
        assert request.enqueue_seq == NEVER
        assert request.refresh_activated is False
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request._enqueue_seq = 1

    def test_enqueue_sets_the_sequence_number(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        requests = [read_request(controller, row) for row in (1, 2, 3)]
        for request in requests:
            assert controller.enqueue(request, 0)
        assert [r.enqueue_seq for r in requests] == [0, 1, 2]
