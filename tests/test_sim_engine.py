"""Tests for the event-driven simulation kernel (:mod:`repro.sim.engine`)."""

import math
from types import SimpleNamespace

import pytest

from repro.controller.controller import MemoryController
from repro.controller.policies import SchedulingPolicy
from repro.cpu.trace import Trace
from repro.sim.engine import (
    EventKernel,
    SimulationDeadlockError,
    StepBudgetExhaustedError,
)
from repro.sim.system import System, SystemConfig


def _linear_trace(n=64, bubbles=10, stride=0x40, name="lin"):
    return Trace.from_tuples([(bubbles, stride * i) for i in range(n)], name=name)


def _observe_steps(core, observe):
    """Wrap one core's ``step`` on the instance: ``observe(core, now)`` runs
    before each step the kernel dispatches to it."""
    step = core.step

    def observed_step(now):
        observe(core, now)
        return step(now)

    core.step = observed_step


class TestEventOrdering:
    def test_time_never_goes_backwards(self, tiny_dram_config):
        trace = _linear_trace(n=200, bubbles=3)
        system = System(
            [trace], config=SystemConfig(dram=tiny_dram_config, verify_security=False)
        )
        kernel = EventKernel(system.cores, system.controller)
        times = []
        commands = []
        _observe_steps(system.cores[0], lambda core, now: times.append(now))

        def on_command(cycle, command):
            commands.append(cycle)
            times.append(kernel.now)

        system.controller.dram.add_command_observer(on_command)
        kernel.run()
        assert commands and len(times) > len(commands)
        assert times == sorted(times)
        assert commands == sorted(commands)
        assert system.cores[0].finished

    def test_cores_win_ties_against_controller(self):
        # Priorities are what encode the seed scheduler's `core <= controller`
        # tie-break; the heap entries must sort cores first at equal times.
        import heapq

        from repro.sim.engine import _PRIORITY_CONTROLLER, _PRIORITY_CORE

        heap = []
        heapq.heappush(heap, (10.0, _PRIORITY_CONTROLLER, -1, 0))
        heapq.heappush(heap, (10.0, _PRIORITY_CORE, 0, 0))
        assert heapq.heappop(heap)[1] == _PRIORITY_CORE

    def test_lowest_core_id_wins_ties(self, tiny_dram_config):
        traces = [_linear_trace(name="a"), _linear_trace(name="b")]
        system = System(
            traces, config=SystemConfig(dram=tiny_dram_config, verify_security=False)
        )
        kernel = EventKernel(system.cores, system.controller)
        steps = []
        for core in system.cores:
            _observe_steps(core, lambda core, now: steps.append((now, core.core_id)))
        kernel.run()
        # Both cores issue their first dispatch at the same cycle; core 0 first.
        first_time = steps[0][0]
        same_time = [core_id for now, core_id in steps if now == first_time]
        assert same_time == [0, 1]

    def test_run_is_deterministic(self, tiny_dram_config):
        def run_once():
            trace = _linear_trace(n=300, bubbles=2)
            system = System(
                [trace],
                config=SystemConfig(dram=tiny_dram_config, verify_security=False),
            )
            return system.run()

        first, second = run_once(), run_once()
        assert first.summary() == second.summary()
        assert first.per_core_ipc == second.per_core_ipc
        assert first.steps == second.steps


class TestStallPaths:
    """Regression tests for the blocked-core/empty-controller stall.

    The seed loop papered over this state with a one-cycle time nudge
    (``now += 1.0``); the kernel must instead terminate on it provably —
    recovering when a retry can succeed and raising when nothing can move.
    """

    def test_transient_enqueue_rejection_recovers(self, tiny_dram_config, monkeypatch):
        # Reject the very first enqueue: the core blocks while the controller
        # holds no work at all — exactly the state the nudge used to paper
        # over.  The kernel's stall recovery must retry and run to completion.
        real_enqueue = MemoryController.enqueue
        rejected = {"count": 0}

        def flaky_enqueue(self, request, cycle):
            if rejected["count"] == 0:
                rejected["count"] += 1
                return False
            return real_enqueue(self, request, cycle)

        monkeypatch.setattr(MemoryController, "enqueue", flaky_enqueue)
        trace = _linear_trace(n=32)
        system = System(
            [trace], config=SystemConfig(dram=tiny_dram_config, verify_security=False)
        )
        result = system.run()
        assert rejected["count"] == 1
        assert result.per_core_instructions[0] == trace.total_instructions
        assert system.cores[0].finished

    def test_permanent_rejection_raises_instead_of_spinning(
        self, tiny_dram_config, monkeypatch
    ):
        monkeypatch.setattr(
            MemoryController, "enqueue", lambda self, request, cycle: False
        )
        trace = _linear_trace(n=4)
        system = System(
            [trace], config=SystemConfig(dram=tiny_dram_config, verify_security=False)
        )
        with pytest.raises(SimulationDeadlockError, match="wedged"):
            system.run()

    def test_deadlock_error_names_blocked_cores(self, tiny_dram_config, monkeypatch):
        monkeypatch.setattr(
            MemoryController, "enqueue", lambda self, request, cycle: False
        )
        trace = _linear_trace(n=4)
        system = System(
            [trace], config=SystemConfig(dram=tiny_dram_config, verify_security=False)
        )
        with pytest.raises(SimulationDeadlockError, match=r"blocked cores \[0\]"):
            system.run()


class _StuckCore:
    """Kernel-level core double: permanently blocked, counts its retries."""

    def __init__(self, core_id):
        self.core_id = core_id
        self.finished = False
        self.has_blocked_request = True
        self._blocked_on_queue = object()
        self.retries = 0
        self.kernel_wakeup = None

    def next_event_cycle(self):
        from repro.sim.engine import NEVER

        return NEVER

    def step(self, now):  # pragma: no cover - blocked cores never step
        raise AssertionError("a blocked core must retry, not step")

    def retry_blocked(self, now):
        self.retries += 1
        return False


class _IdleControllerDouble:
    """Controller double with empty schedulable work but pending requests.

    Models a backend that accepted requests it can never issue — the state
    the deadlock diagnostic must make visible (``pending requests N``).
    """

    current_cycle = 0
    mutations = 0
    # The boundary inputs the event loop reads from every controller.
    scheduler = SchedulingPolicy()
    next_refresh_due: dict = {}
    dram_config = SimpleNamespace(refresh_enabled=False)

    def __init__(self, pending=0):
        self._pending = pending

    def add_slot_free_callback(self, callback):
        pass

    def select_deferrable(self):
        return True

    def next_decision(self, cycle):
        return None

    def issue_decision(self, decision):  # pragma: no cover - nothing decided
        raise AssertionError("an idle controller never issues")

    def has_work(self):
        return False

    def pending_requests(self):
        return self._pending


class TestDeadlockDiagnostics:
    """The deadlock error must carry everything needed to debug the wedge:
    which cores are blocked, which are merely unfinished, and how many
    requests the controllers still hold."""

    def test_message_lists_core_ids_and_pending_count(self):
        kernel = EventKernel(
            [_StuckCore(0), _StuckCore(1)], _IdleControllerDouble(pending=3)
        )
        with pytest.raises(SimulationDeadlockError) as excinfo:
            kernel.run()
        message = str(excinfo.value)
        assert "unfinished cores [0, 1]" in message
        assert "blocked cores [0, 1]" in message
        assert "pending requests 3" in message

    def test_unblocked_unfinished_cores_reported_separately(self):
        # A core that is unfinished but not blocked (it simply has no next
        # event) must show up in `unfinished` and not in `blocked`.
        waiting = _StuckCore(1)
        waiting.has_blocked_request = False
        waiting._blocked_on_queue = None
        kernel = EventKernel([_StuckCore(0), waiting], _IdleControllerDouble())
        with pytest.raises(SimulationDeadlockError) as excinfo:
            kernel.run()
        message = str(excinfo.value)
        assert "unfinished cores [0, 1]" in message
        assert "blocked cores [0]" in message
        assert waiting.retries == 0

    def test_recover_stall_retries_each_blocked_core_exactly_once(self):
        # One recovery sweep before the raise: every blocked core gets one
        # retry — not zero (recoverable stalls must recover) and not more
        # (a hopeless system must not spin).
        cores = [_StuckCore(0), _StuckCore(1), _StuckCore(2)]
        kernel = EventKernel(cores, _IdleControllerDouble())
        with pytest.raises(SimulationDeadlockError):
            kernel.run()
        assert [core.retries for core in cores] == [1, 1, 1]


class TestIntegerTimestamps:
    """Events sourced from integer cycles must keep integer heap times.

    Controllers select at ``ceil(now)``, and their decisions must not
    smuggle floats onto the heap, where they would compare inexactly at
    large cycle magnitudes."""

    def test_heap_times_from_integer_sources_stay_int(self, tiny_dram_config):
        # Core events may be fractional by design (core cycles divided by
        # the CPU:DRAM clock ratio); controller decisions are an integer
        # source and must stay exact.
        from repro.sim.engine import _PRIORITY_CONTROLLER, _PRIORITY_CORE

        trace = _linear_trace(n=150, bubbles=2)
        system = System(
            [trace], config=SystemConfig(dram=tiny_dram_config, verify_security=False)
        )
        kernel = EventKernel(system.cores, system.controller)
        seen = []

        def check_heap(*_):
            seen.extend(entry for entry in kernel._heap if entry[1] != _PRIORITY_CORE)

        _observe_steps(system.cores[0], check_heap)
        system.controller.dram.add_command_observer(check_heap)
        kernel.run()
        assert system.cores[0].finished
        assert {priority for _, priority, _, _ in seen} == {_PRIORITY_CONTROLLER}
        assert {type(time) for time, _, _, _ in seen} == {int}


class TestKernelResults:
    def test_steps_counted_and_bounded(self, tiny_dram_config):
        trace = _linear_trace(n=64)
        system = System(
            [trace], config=SystemConfig(dram=tiny_dram_config, verify_security=False)
        )
        result = system.run()
        assert 0 < result.steps < 10_000

    def test_max_steps_stops_the_run(self, tiny_dram_config):
        """An exhausted step budget fails loudly instead of returning a
        truncated run as a normal-looking result."""
        trace = _linear_trace(n=2000, bubbles=1)
        config = SystemConfig(dram=tiny_dram_config, verify_security=False, max_steps=10)
        system = System([trace], config=config)
        with pytest.raises(StepBudgetExhaustedError) as excinfo:
            system.run()
        error = excinfo.value
        assert error.steps == 10
        assert error.unfinished == [0]
        assert error.now > 0
        assert "10 events" in str(error) and "[0]" in str(error)
        assert not system.cores[0].finished

    def test_max_steps_raises_on_the_legacy_loop(self, tiny_dram_config):
        """A kernel built directly over the fabric, outside System.run,
        honours its own ``max_steps`` (not System's) and raises rather than
        returning a truncated run."""
        trace = _linear_trace(n=2000, bubbles=1)
        config = SystemConfig(dram=tiny_dram_config, verify_security=False, max_steps=10)
        system = System([trace], config=config)
        kernel = EventKernel(system.cores, system.fabric, max_steps=7)
        with pytest.raises(StepBudgetExhaustedError) as excinfo:
            kernel.run()
        assert excinfo.value.steps == kernel.steps == 7
        assert excinfo.value.unfinished == [0]

    def test_budget_spent_exactly_on_completion_is_not_an_error(
        self, tiny_dram_config
    ):
        trace = _linear_trace(n=64)
        config = SystemConfig(dram=tiny_dram_config, verify_security=False)
        steps = System([trace], config=config).run().steps
        exact = SystemConfig(
            dram=tiny_dram_config, verify_security=False, max_steps=steps
        )
        assert System([trace], config=exact).run().steps == steps

    def test_budget_ending_with_writes_queued_raises(self, tiny_dram_config):
        """A budget that runs out after every core has finished but while
        the controller still holds writes is an error too: the run is not
        done, and its result would miss those commands."""
        trace = Trace.from_tuples(
            [(1, 0x40 * i, True) for i in range(8)], name="writes"
        )
        config = SystemConfig(dram=tiny_dram_config, verify_security=False)
        steps = System([trace], config=config).run().steps
        short = SystemConfig(
            dram=tiny_dram_config, verify_security=False, max_steps=steps - 1
        )
        system = System([trace], config=short)
        with pytest.raises(StepBudgetExhaustedError) as excinfo:
            system.run()
        error = excinfo.value
        assert system.cores[0].finished and error.unfinished == []
        assert error.pending == len(system.controller.write_queue) > 0
        assert f"pending requests {error.pending}" in str(error)

    def test_cached_controller_decision_matches_recompute(self, tiny_dram_config):
        """The decision cached at schedule time must issue at the cycle the
        freshly recomputed decision would (see controller.next_decision)."""
        trace = _linear_trace(n=400, bubbles=1)

        def run(force_recheck: bool):
            system = System(
                [trace],
                config=SystemConfig(dram=tiny_dram_config, verify_security=False),
            )
            if force_recheck:
                # A scheduler whose priorities may change at any cycle: the
                # kernel can then neither skip an untouched channel nor
                # trust a cached decision, and re-selects at issue time.
                scheduler = system.controller.scheduler
                scheduler.__class__ = type(
                    "AlwaysCrossed",
                    (type(scheduler),),
                    {"priority_boundary_crossed": lambda self, start, end: True},
                )
            kernel = EventKernel(system.cores, system.controller)
            return system._build_result(math.ceil(kernel.run()))

        cached = run(force_recheck=False)
        recomputed = run(force_recheck=True)
        assert cached.summary() == recomputed.summary()
        assert cached.dram_stats == recomputed.dram_stats
