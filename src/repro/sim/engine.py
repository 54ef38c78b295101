"""Event-driven simulation kernel.

The kernel owns a single min-heap of timestamped events and drives every
component of a :class:`~repro.sim.system.System` — its cores and the memory
controllers of its channel fabric — through it; :meth:`EventKernel.run` is
the only driver of a simulation.  It replaces the seed's per-step loop,
which re-scanned every core (``O(N)`` per event) and re-polled the
controller on every iteration, and which papered over the
blocked-core/empty-controller stall with a one-cycle time nudge.

Scheduling model
----------------

There are two kinds of *event source*:

* A **core** is scheduled at :meth:`~repro.cpu.core.Core.next_event_cycle`.
  Its entry is re-queued whenever its own step changes its state, one of its
  outstanding reads completes (the controller fires the core's kernel-wakeup
  hook mid-issue), or a controller queue slot frees while it has a blocked
  request.
* Each **memory controller** (one per channel on a
  :class:`~repro.controller.fabric.ChannelFabric`; a bare controller is
  treated as a 1-entry fabric) is scheduled at the earliest cycle at which
  it can issue a command.  Entries are invalidated and recomputed after an
  event only when that event could actually have changed the controller's
  answer: an *untouched* channel — its mutation counter
  (:attr:`~repro.controller.controller.MemoryController.mutations`) proves
  its queues and device state are unchanged, no periodic refresh became
  due and no scheduler priority boundary
  (:meth:`~repro.controller.policies.SchedulingPolicy.priority_boundary_crossed`)
  was crossed since it selected, and its cached decision (if any) has not
  fallen behind the clock — keeps
  its cached decision and live heap entry as is.  This covers both the idle
  case (cached "nothing to do" stays nothing) and the busy case (a cached
  decision whose issue cycle is still in the future stays the right
  choice), so an event that provably touched one channel no longer
  recomputes all of them, and an idle span collapses to a single jump of
  ``now`` to the next live entry instead of per-event rescheduling.
* A changed controller's selection is **deferred** while the next live
  heap entry is a core event at or before ``ceil(now)``: that event pops
  first (cores win ties, no command issues before ``ceil(now)``) and
  usually enqueues a request that would supersede the selection.  The
  controller is left with no entry and no cached decision, so the pass
  after the core event selects it once, at the same cycle.  Deferral is
  exact only when the skipped select would change no state, so it needs
  no core blocked on a full queue (no skipped select may change which
  blocked cores a freed slot wakes, or when) and the controller's
  :meth:`~repro.controller.controller.MemoryController.select_deferrable`:
  an empty preventive queue (selection retires finished preventive
  refreshes), a write-queue length inside the write-drain hysteresis band
  (the flip stays in selection: the refresh, RFM and preventive stages can
  pre-empt the demand stage that evaluates it) and no ACT-throttling
  mitigation (BlockHammer counts the throttled candidates a select sees).

Mitigations are not event sources: they act inside a controller's issue
(activation and refresh observers) and through its queues.

Stale heap entries are invalidated lazily with per-source generation
counters, so re-scheduling is O(log n) and no entry is ever searched for.

There is one event loop, :meth:`EventKernel.run`, with its per-event work
inlined over locals and one controller pass, which setup and stall
recovery enter too.  It reads each controller's ``next_decision`` and
``issue_decision`` once per run and calls them as they are: on a
:class:`~repro.controller.controller.MemoryController` they are the select
and issue closures themselves, and a wrapper set on the instance before the
run (a benchmark's tracing) is what the loop calls.  Controllers must also
expose ``mutations``, ``scheduler``, ``next_refresh_due`` and
``dram_config``, the inputs the loop's untouched-channel skip reads, and
``select_deferrable``, the deferral predicate (also read once per run).

Ties are broken the same way the seed loop's comparisons did: cores win over
controllers at equal timestamps, the lowest-numbered core wins among cores,
and the lowest-numbered channel wins among controllers.

Termination
-----------

The kernel returns only when every core has finished and no controller
has work left, so its final time is the run's final cycle.  When the heap
runs dry before that, the kernel retries every blocked core exactly once (a
queue slot may have freed without an event being scheduled, e.g. under a
test double).  If no retry makes progress the simulation is provably wedged
and the kernel raises :class:`SimulationDeadlockError` instead of spinning
time forward one cycle at a time like the seed loop did.

``max_steps`` bounds the events one kernel processes.  Running out of it
before the run is done — a core unfinished, or every core finished while a
controller still holds work — raises :class:`StepBudgetExhaustedError`
rather than returning a truncated result.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.controller.policies import NEVER, SchedulingPolicy
from repro.cpu.core import Core

#: Heap priorities: cores beat controllers at equal timestamps (the seed
#: loop's ``core_cycle <= controller_time`` comparison).
_PRIORITY_CORE = 0
_PRIORITY_CONTROLLER = 1


class SimulationDeadlockError(RuntimeError):
    """The event queue ran dry with unfinished cores and idle controllers."""


class StepBudgetExhaustedError(RuntimeError):
    """The kernel processed ``max_steps`` events before the run was done."""

    def __init__(
        self, steps: int, now: float, cores: Sequence[Core], pending: int
    ) -> None:
        unfinished = [core for core in cores if not core.finished]
        self.steps = steps
        self.now = now
        self.unfinished = [core.core_id for core in unfinished]
        self.pending = pending
        if unfinished:
            retired = ", ".join(
                f"core {core.core_id} {core.stats.retired_instructions}"
                for core in unfinished
            )
            state = (
                f"cores {self.unfinished} unfinished "
                f"(instructions retired so far: {retired})"
            )
        else:
            state = (
                "every core finished but the controllers still busy "
                f"(pending requests {pending})"
            )
        super().__init__(
            f"step budget exhausted: {steps} events processed by cycle "
            f"{now:.0f} with {state}"
        )


class EventKernel:
    """Min-heap event queue driving cores and memory controllers.

    Parameters
    ----------
    cores:
        The system's cores, in core-id order (the order is the tie-break).
    controller:
        The memory subsystem: a
        :class:`~repro.controller.fabric.ChannelFabric` (anything exposing a
        ``controllers`` sequence) or a single bare controller.
    max_steps:
        Upper bound on processed events (a runaway guard, like the seed's
        ``SystemConfig.max_steps``); exhausting it before the run is done
        raises :class:`StepBudgetExhaustedError`.
    """

    def __init__(
        self,
        cores: Sequence[Core],
        controller,
        max_steps: int = 200_000_000,
    ) -> None:
        self.cores = list(cores)
        self.controller = controller
        fabric_controllers = getattr(controller, "controllers", None)
        self.controllers = (
            list(fabric_controllers) if fabric_controllers is not None else [controller]
        )
        self.max_steps = max_steps
        self.now = 0.0
        self.steps = 0

        # Heap entries: (time, priority, index, generation).  A popped entry
        # is live only if its generation matches the source's current one.
        self._heap: List[Tuple[float, int, int, int]] = []
        self._core_gen = [0] * len(self.cores)
        num_controllers = len(self.controllers)
        self._ctl_gen = [0] * num_controllers
        #: Decision cached at schedule time; valid while the generation holds
        #: (no queue mutation since) and no refresh deadline crossed.
        self._ctl_decision: List[Optional[tuple]] = [None] * num_controllers
        self._ctl_recheck = [False] * num_controllers
        #: Inputs of the cached (non-)decision, used for the idle-channel
        #: skip: the cycle command selection ran at and the controller's
        #: mutation counter right after it ran.
        self._ctl_cached_cycle = [0] * num_controllers
        self._ctl_cached_mutations: List[Optional[int]] = [None] * num_controllers
        self._ctl_has_entry = [False] * num_controllers
        #: Cores whose state changed mid-event (read completions fire while
        #: a controller is issuing); re-scheduled once the event finishes.
        self._dirty_cores: set[int] = set()
        #: Index of cores currently blocked on a rejected enqueue.  A core's
        #: blocked flag only changes inside its own step/retry (or the stall
        #: recovery), so maintaining the set there makes the slot-free hook
        #: O(blocked) instead of a scan over every core.
        self._blocked_cores: set[int] = set()

        for index, core in enumerate(self.cores):
            core.kernel_wakeup = self._make_core_wakeup(index)
        for ctl in self.controllers:
            ctl.add_slot_free_callback(self._on_slot_free)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> float:
        """Process events until the run is done; returns the final time.

        The run is done when every core has finished and no controller has
        work left.  Each iteration makes one pass over the controllers, then
        pops the next live entry and dispatches it.  The pass re-queues the
        cores the last event woke; then an untouched channel keeps its
        entry, and a changed one selects again or, under the module
        docstring's guards, is deferred past a due core event.  Setup and
        stall recovery enter the same pass.  On the benchmark's
        ``hammer_comet`` deferral cuts selects from 1.32 to 1.00 per issued
        command, with the same steps and command stream.

        The per-event work — the dirty-core flush, the controller pass and
        the pop of the next live entry — runs inlined over locals, and it
        reads a core's ``_blocked_on_queue`` slot rather than the
        ``has_blocked_request`` property.
        Per-controller boundary inputs are pre-resolved once: the
        refresh-due dict (mutated in place for the controller's lifetime;
        empty with refresh off), and the scheduler's
        ``priority_boundary_crossed`` hook, dropped entirely when it is the
        base-class constant ``False`` (every scheduler but BLISS).  Cold
        paths — stall recovery, termination — stay in the helpers.
        ``self.now``/``self.steps`` are kept in sync before any component
        call because completion hooks read them mid-event.
        """
        for index in range(len(self.cores)):
            self._schedule_core(index)

        heap = self._heap
        push = heapq.heappush
        pop = heapq.heappop
        ceil = math.ceil
        cores = self.cores
        controllers = self.controllers
        ctl_indices = tuple(range(len(controllers)))
        core_gen = self._core_gen
        ctl_gen = self._ctl_gen
        ctl_decision = self._ctl_decision
        ctl_recheck = self._ctl_recheck
        ctl_cached_cycle = self._ctl_cached_cycle
        ctl_cached_mutations = self._ctl_cached_mutations
        ctl_has_entry = self._ctl_has_entry
        dirty_cores = self._dirty_cores
        blocked_cores = self._blocked_cores
        max_steps = self.max_steps
        base_boundary = SchedulingPolicy.priority_boundary_crossed
        boundary_hooks = [
            ctl.scheduler.priority_boundary_crossed
            if type(ctl.scheduler).priority_boundary_crossed is not base_boundary
            else None
            for ctl in controllers
        ]
        refresh_dues = [
            ctl.next_refresh_due if ctl.dram_config.refresh_enabled else {}
            for ctl in controllers
        ]
        deferrable = [ctl.select_deferrable for ctl in controllers]
        decision_fns = [ctl.next_decision for ctl in controllers]
        issue_fns = [ctl.issue_decision for ctl in controllers]

        now = self.now
        steps = self.steps
        while True:
            while True:
                # Re-queue the cores the last event woke (a read completion,
                # or a freed slot: blocked cores retry at the latest issue)
                # before the deferral test looks at the heap; again after a
                # pass whose select retired a preventive refresh.
                while dirty_cores:
                    index = dirty_cores.pop()
                    core = cores[index]
                    core_gen[index] += 1
                    if core._blocked_on_queue is not None:
                        time = max(ctl.current_cycle for ctl in controllers)
                    else:
                        time = core.next_event_cycle()
                        if time >= NEVER:
                            continue
                    if time < now:
                        time = now
                    push(heap, (time, _PRIORITY_CORE, index, core_gen[index]))
                cycle = ceil(now)
                # A core event due by ``cycle`` pops before any command this
                # pass could schedule (cores win ties, nothing issues before
                # ``cycle``) and usually enqueues a request that supersedes it.
                core_due = False
                if not blocked_cores:
                    while heap:
                        time, priority, index, gen = heap[0]
                        if priority == _PRIORITY_CORE:
                            if gen == core_gen[index]:
                                core_due = time <= cycle
                                break
                        elif gen == ctl_gen[index]:
                            break
                        pop(heap)
                for i in ctl_indices:
                    ctl = controllers[i]
                    decision = ctl_decision[i]
                    if ctl_cached_mutations[i] == ctl.mutations and (
                        decision is None or ctl_has_entry[i] and decision[0] >= cycle
                    ):
                        # Untouched channel: no scheduler-visible state
                        # changed since it selected at ``start`` and the
                        # cached decision, if any, has not fallen behind the
                        # clock.  Unless a refresh deadline or a priority
                        # boundary lies in (start, cycle], selecting again
                        # would return the same decision.
                        start = ctl_cached_cycle[i]
                        for due in refresh_dues[i].values():
                            if start < due <= cycle:
                                break
                        else:
                            hook = boundary_hooks[i]
                            if hook is None or not hook(start, cycle):
                                continue
                    ctl_gen[i] += 1
                    if core_due and deferrable[i]():
                        # Deferred: no entry and no cached decision, so the pass
                        # after the core event selects this controller once.
                        ctl_decision[i] = None
                        ctl_cached_mutations[i] = None
                        ctl_has_entry[i] = False
                        continue
                    decision = decision_fns[i](cycle)
                    ctl_cached_cycle[i] = cycle
                    # Snapshot *after* the select: it may retire finished
                    # preventive refreshes and bump the counter.
                    ctl_cached_mutations[i] = ctl.mutations
                    if decision is None:
                        ctl_decision[i] = None
                        ctl_has_entry[i] = False
                        continue
                    issue_cycle = decision[0]
                    ctl_decision[i] = decision
                    # A refresh deadline or a priority boundary inside
                    # (cycle, issue_cycle] can change the right choice:
                    # select again at issue time then.
                    for due in refresh_dues[i].values():
                        if cycle < due <= issue_cycle:
                            crossed = True
                            break
                    else:
                        hook = boundary_hooks[i]
                        crossed = hook is not None and hook(cycle, issue_cycle)
                    ctl_recheck[i] = crossed
                    push(
                        heap,
                        (issue_cycle, _PRIORITY_CONTROLLER, i, ctl_gen[i]),
                    )
                    ctl_has_entry[i] = True
                if not dirty_cores:
                    break
            if steps >= max_steps:
                break

            while heap:
                time, priority, index, gen = pop(heap)
                if priority == _PRIORITY_CORE:
                    if gen == core_gen[index]:
                        break
                elif gen == ctl_gen[index]:
                    break
            else:
                self.now = now
                self.steps = steps
                if self._all_done():
                    break
                if not self._recover_stall():
                    self._raise_deadlock()
                continue
            if time > now:
                now = time
            self.now = now
            steps += 1

            if priority == _PRIORITY_CORE:
                core = cores[index]
                if core._blocked_on_queue is not None:
                    core.retry_blocked(now)
                elif not core.finished:
                    core.step(now)
                if core._blocked_on_queue is not None:
                    blocked_cores.add(index)
                else:
                    blocked_cores.discard(index)
                core_gen[index] += 1
                cycle = core.next_event_cycle()
                if cycle < NEVER:
                    push(
                        heap,
                        (
                            cycle if cycle >= now else now,
                            _PRIORITY_CORE,
                            index,
                            core_gen[index],
                        ),
                    )
            else:
                ctl = controllers[index]
                ctl_has_entry[index] = False
                if ctl_recheck[index]:
                    issued = ctl.issue_next(ceil(time))
                else:
                    issued = issue_fns[index](ctl_decision[index])
                if issued is not None and issued > now:
                    now = issued
                    self.now = now
        self.now = now
        self.steps = steps
        self._check_budget()
        return now

    def _check_budget(self) -> None:
        """Raise when the loop ended on ``max_steps`` before the run was done."""
        if self.steps >= self.max_steps and not self._all_done():
            raise StepBudgetExhaustedError(
                self.steps,
                self.now,
                self.cores,
                sum(ctl.pending_requests() for ctl in self.controllers),
            )

    def _all_done(self) -> bool:
        return all(core.finished for core in self.cores) and not any(
            ctl.has_work() for ctl in self.controllers
        )

    # ------------------------------------------------------------------ #
    # Scheduling helpers
    # ------------------------------------------------------------------ #
    def _schedule_core(self, index: int) -> None:
        self._core_gen[index] += 1
        cycle = self.cores[index].next_event_cycle()
        if cycle >= NEVER:
            # The typed "no event" sentinel (an int, so cycle arithmetic is
            # never silently promoted to float): the core is waiting on
            # memory and will be woken by a completion or slot-free hook.
            return
        time = cycle if cycle >= self.now else self.now
        heapq.heappush(
            self._heap, (time, _PRIORITY_CORE, index, self._core_gen[index])
        )

    # ------------------------------------------------------------------ #
    # Hooks fired by the components
    # ------------------------------------------------------------------ #
    def _make_core_wakeup(self, index: int) -> Callable[[], None]:
        def wakeup() -> None:
            self._dirty_cores.add(index)

        return wakeup

    def _on_slot_free(self) -> None:
        # O(blocked): the blocked-core index is maintained at every core
        # step/retry, so a freed queue slot wakes exactly the cores that
        # were waiting on one instead of scanning all of them.
        self._dirty_cores.update(self._blocked_cores)

    # ------------------------------------------------------------------ #
    # Stall handling
    # ------------------------------------------------------------------ #
    def _recover_stall(self) -> bool:
        """Retry every blocked core once; True when any made progress.

        Reached only when the heap is empty with unfinished cores.  With the
        real controllers a blocked core implies a full (hence non-empty)
        queue, so this is unreachable; a test double or future backend that
        rejects an enqueue while idle lands here, and the retry either
        unblocks the core or proves the system wedged.
        """
        progressed = False
        for index, core in enumerate(self.cores):
            if core.has_blocked_request and core.retry_blocked(self.now):
                self._blocked_cores.discard(index)
                self._schedule_core(index)
                progressed = True
        return progressed

    def _raise_deadlock(self) -> None:
        blocked = [c.core_id for c in self.cores if c.has_blocked_request]
        unfinished = [c.core_id for c in self.cores if not c.finished]
        pending = sum(ctl.pending_requests() for ctl in self.controllers)
        raise SimulationDeadlockError(
            f"simulation wedged at cycle {self.now:.0f}: no schedulable events, "
            f"unfinished cores {unfinished}, blocked cores {blocked}, "
            f"controllers pending requests {pending}"
        )
