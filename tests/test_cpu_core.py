"""Tests for the trace-driven core model."""

import math

import pytest

from repro.controller.controller import ControllerConfig, MemoryController
from repro.controller.policies import NEVER
from repro.cpu.core import Core, CoreConfig
from repro.cpu.trace import Trace
from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig
from repro.sim.system import System, SystemConfig


def make_core(tiny_dram_config, trace, core_config=None, controller_config=None):
    controller = MemoryController(tiny_dram_config, config=controller_config)
    core = Core(0, trace, controller, config=core_config)
    return core, controller


def run_system(core, controller, max_steps=100_000):
    """Minimal co-simulation loop (mirrors repro.sim.system.System.run)."""
    now = 0.0
    steps = 0
    while steps < max_steps:
        if core.finished and not controller.has_work():
            break
        steps += 1
        if core.has_blocked_request:
            core.retry_blocked(now)
        core_cycle = core.next_event_cycle()
        decision, _ = controller.next_decision(int(math.ceil(now)))
        controller_time = float(decision[0]) if decision is not None else NEVER
        if core_cycle >= NEVER and controller_time >= NEVER:
            now += 1
            continue
        if core_cycle <= controller_time:
            now = max(now, core_cycle)
            core.step(now)
        else:
            issued = controller.issue_next(int(math.ceil(controller_time)))
            now = max(now, float(issued))
    return now


class TestCoreConfig:
    def test_issue_rate(self):
        config = CoreConfig(width=4, cpu_to_mem_ratio=3.0)
        assert config.issue_rate_per_mem_cycle == 12.0


class TestCoreBasics:
    def test_empty_trace_is_finished(self, tiny_dram_config):
        core, controller = make_core(tiny_dram_config, Trace())
        assert core.finished
        assert core.next_event_cycle() == NEVER
        # The sentinel is a typed int, not float("inf"): cycle arithmetic
        # touching it can never silently become float.
        assert isinstance(core.next_event_cycle(), int)

    def test_single_read_completes(self, tiny_dram_config):
        trace = Trace.from_tuples([(10, 0x1000)])
        core, controller = make_core(tiny_dram_config, trace)
        run_system(core, controller)
        assert core.finished
        assert core.stats.memory_reads == 1
        assert core.stats.retired_instructions == 11
        assert core.instructions_per_cycle() > 0

    def test_write_only_trace(self, tiny_dram_config):
        trace = Trace.from_tuples([(5, 0x1000, True), (5, 0x2000, True)])
        core, controller = make_core(tiny_dram_config, trace)
        run_system(core, controller)
        assert core.finished
        assert core.stats.memory_writes == 2
        assert controller.dram.stats.writes == 2

    def test_ipc_bounded_by_width_times_ratio(self, tiny_dram_config):
        trace = Trace.from_tuples([(100, 0x1000 * (i + 1)) for i in range(20)])
        core, controller = make_core(tiny_dram_config, trace)
        run_system(core, controller)
        assert core.instructions_per_cycle() <= CoreConfig().width + 1e-9

    def test_compute_bound_trace_has_high_ipc(self, tiny_dram_config):
        """Huge bubbles -> IPC approaches the core width."""
        trace = Trace.from_tuples([(4000, 0x40 * i) for i in range(10)])
        core, controller = make_core(tiny_dram_config, trace)
        run_system(core, controller)
        assert core.instructions_per_cycle() > 0.8 * CoreConfig().width

    def test_memory_bound_trace_has_low_ipc(self, tiny_dram_config):
        """Dependent misses with no compute -> IPC far below width."""
        # Alternate rows of one bank so every access is a row conflict.
        from repro.dram.address import AddressMapper

        mapper = AddressMapper(tiny_dram_config)
        entries = []
        for i in range(50):
            entries.append((0, mapper.address_for_row(i % 2 * 10, bank_index=0)))
        trace = Trace.from_tuples(entries)
        config = CoreConfig(max_outstanding_reads=1)
        core, controller = make_core(tiny_dram_config, trace, core_config=config)
        run_system(core, controller)
        assert core.instructions_per_cycle() < 0.5

    def test_mlp_limits_outstanding_reads(self, tiny_dram_config):
        trace = Trace.from_tuples([(0, 0x1000 * (i + 1)) for i in range(30)])
        config = CoreConfig(max_outstanding_reads=2)
        core, controller = make_core(tiny_dram_config, trace, core_config=config)
        run_system(core, controller)
        assert core.finished
        # The core must have observed stalls (finish later than pure dispatch).
        assert core.completion_cycle() > 30

    def test_higher_mlp_is_not_slower(self, tiny_dram_config):
        entries = [(2, 0x1000 * (i + 1)) for i in range(60)]
        low_core, low_ctrl = make_core(
            tiny_dram_config, Trace.from_tuples(entries), CoreConfig(max_outstanding_reads=1)
        )
        run_system(low_core, low_ctrl)
        high_core, high_ctrl = make_core(
            tiny_dram_config, Trace.from_tuples(entries), CoreConfig(max_outstanding_reads=8)
        )
        run_system(high_core, high_ctrl)
        assert high_core.completion_cycle() <= low_core.completion_cycle() + 1


class TestQueueBackpressure:
    def test_core_survives_tiny_queues(self, tiny_dram_config):
        trace = Trace.from_tuples([(0, 0x1000 * (i + 1), i % 2 == 0) for i in range(40)])
        core, controller = make_core(
            tiny_dram_config,
            trace,
            controller_config=ControllerConfig(read_queue_size=2, write_queue_size=2),
        )
        run_system(core, controller)
        assert core.finished
        assert core.stats.memory_reads + core.stats.memory_writes == 40


class TestWindowLimit:
    """``window_limit`` bounds dispatch for the sampled executor; the setter
    keeps the core's dispatch end current and clears the dispatch memo."""

    def test_limit_set_mid_trace_stops_and_resumes(self, tiny_dram_config):
        entries = [(4, 0x1000 * (i + 1)) for i in range(12)]
        core, controller = make_core(tiny_dram_config, Trace.from_tuples(entries))
        for _ in range(3):
            core.step(core.next_event_cycle())
        # The memo now holds entry 3's dispatch cycle; a limit at the cursor
        # must override it at once.
        assert core.next_event_cycle() < NEVER
        core.window_limit = 3
        assert core.next_event_cycle() == NEVER
        assert not core.finished  # three reads still in flight
        core.window_limit = 5
        run_system(core, controller)
        assert core.stats.memory_reads == 5
        assert core.stats.retired_instructions == 5 * 5
        assert core.next_event_cycle() == NEVER
        assert core.finished
        assert not core.trace_exhausted

        core.window_limit = None
        assert not core.finished
        assert core.next_event_cycle() < NEVER
        run_system(core, controller)
        assert core.finished
        assert core.trace_exhausted
        assert core.stats.memory_reads == 12
        assert core.stats.retired_instructions == 12 * 5
        assert controller.dram.stats.reads == 12

    def test_open_window_caps_at_the_trace_end(self, tiny_dram_config):
        core, _ = make_core(
            tiny_dram_config, Trace.from_tuples([(0, 0x1000), (0, 0x2000)])
        )
        assert core.open_window(5)
        assert core.window_limit == 2
        core.window_limit = 0
        assert not core.open_window(0)


def test_class_level_enqueue_wrap_sees_every_request(tiny_dram_config, monkeypatch):
    """The core binds each channel's ``enqueue`` when it is built, so a wrap
    of ``MemoryController.enqueue`` installed before that (how perfbench
    counts rejected enqueues) sees every request the core sends."""
    accepted = []
    original = MemoryController.enqueue

    def counted(self, request, cycle):
        result = original(self, request, cycle)
        if result:
            accepted.append(request)
        return result

    monkeypatch.setattr(MemoryController, "enqueue", counted)
    trace = Trace.from_tuples([(0, 0x1000 * (i + 1), i % 3 == 0) for i in range(30)])
    core, controller = make_core(
        tiny_dram_config,
        trace,
        controller_config=ControllerConfig(read_queue_size=2, write_queue_size=2),
    )
    run_system(core, controller)
    assert core.finished
    assert core.stats.stall_events > 0  # retries go through the wrap too
    assert len(set(map(id, accepted))) == len(accepted) == 30


@pytest.mark.xfail(
    strict=True,
    reason="a read leaves the window when its RD issues, not when its data "
    "returns: _OutstandingRead runs at issue with the future data-end cycle "
    "and pops itself at once, so next_event_cycle's fast path dispatches "
    "while that read's data is still in flight",
)
def test_one_outstanding_read_waits_for_the_previous_data(monkeypatch):
    """``max_outstanding_reads=1``: each read is enqueued no earlier than the
    previous read's data returns (CoreConfig: reads occupy the window until
    their data returns).  Today the second of three bubble-0 reads to banks
    0, 1 and 2 is enqueued at cycle 16, while the first read's data returns
    at 36."""
    config = DRAMConfig()
    mapper = AddressMapper(config)
    entries = [(0, mapper.address_for_row(5, bank_index=bank)) for bank in range(3)]
    accepted = []
    original = MemoryController.enqueue

    def recorded(self, request, cycle):
        result = original(self, request, cycle)
        if result:
            accepted.append(request)
        return result

    monkeypatch.setattr(MemoryController, "enqueue", recorded)
    system = System(
        [Trace.from_tuples(entries)],
        config=SystemConfig(dram=config, core=CoreConfig(max_outstanding_reads=1)),
    )
    system.run()
    assert len(accepted) == 3
    for previous, request in zip(accepted, accepted[1:]):
        assert request.arrival_cycle >= previous.completion_cycle, (
            f"{request.address} enqueued at {request.arrival_cycle}, before "
            f"the previous read's data returned at {previous.completion_cycle}"
        )
