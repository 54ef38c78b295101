"""Event-driven simulation kernel.

The kernel owns a single min-heap of timestamped events and drives every
component of a :class:`~repro.sim.system.System` — cores, the memory
controllers of the channel fabric, and (optionally) mitigations — through
it.  It replaces the seed's per-step loop, which re-scanned every core
(``O(N)`` per event) and re-polled the controller on every iteration, and
which papered over the blocked-core/empty-controller stall with a one-cycle
time nudge.

Scheduling model
----------------

Each component is an *event source*:

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
  its queues and device state are unchanged,
  :meth:`~repro.controller.controller.MemoryController.decision_crosses_boundary`
  proves no refresh deadline or scheduler priority boundary was crossed,
  and its cached decision (if any) has not fallen behind the clock — keeps
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
* **Mitigations** may register their own timestamped callbacks through
  :meth:`EventKernel.schedule` (see
  :meth:`repro.mitigations.base.RowHammerMitigation.register_events`).

Stale heap entries are invalidated lazily with per-source generation
counters, so re-scheduling is O(log n) and no entry is ever searched for.

There is one event loop, :meth:`EventKernel.run`, with its per-event work
inlined over locals.  It calls each controller's fused select and issue
closures directly unless the controller's ``next_decision`` or
``issue_decision`` is overridden (on its class or on the instance, as a
benchmark's tracing wrappers do), in which case it calls the override.
Controllers must expose ``mutations``, ``scheduler``, ``next_refresh_due``
and ``dram_config``, the inputs the loop's untouched-channel skip reads,
and ``select_deferrable``, the deferral predicate (read once per run, so an
instance override of it is honoured).

Ties are broken the same way the seed loop's comparisons did: cores win over
controllers at equal timestamps, the lowest-numbered core wins among cores,
and the lowest-numbered channel wins among controllers.

Termination
-----------

When the heap runs dry before every core finished, the kernel retries every
blocked core exactly once (a queue slot may have freed without an event being
scheduled, e.g. under a test double).  If no retry makes progress the
simulation is provably wedged and the kernel raises
:class:`SimulationDeadlockError` instead of spinning time forward one cycle
at a time like the seed loop did.

``max_steps`` bounds the events one kernel processes.  Running out of it
with cores unfinished raises :class:`StepBudgetExhaustedError`: returning
would let the caller drain the queues and report a truncated run as a
complete result.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.controller.policies import NEVER, SchedulingPolicy
from repro.cpu.core import Core

#: Heap priorities: cores beat controllers at equal timestamps (the seed
#: loop's ``core_cycle <= controller_time`` comparison), and user callbacks
#: run after both so they observe a settled cycle.
_PRIORITY_CORE = 0
_PRIORITY_CONTROLLER = 1
_PRIORITY_CALLBACK = 2


def _as_cycle(time: float) -> int:
    """THE kernel-time → controller-cycle conversion point.

    Kernel timestamps may be fractional (core dispatch cycles are spaced at
    the sub-cycle issue rate); controllers operate on integer DRAM cycles.
    Every conversion funnels through this ceiling so the rounding rule lives
    in exactly one place — heap entries from integer sources (controller
    issue cycles, integer callback cycles) are pushed as ``int`` and pass
    through unchanged.
    """
    return math.ceil(time)


class SimulationDeadlockError(RuntimeError):
    """The event queue ran dry with unfinished cores and idle controllers."""


class StepBudgetExhaustedError(RuntimeError):
    """The kernel processed ``max_steps`` events with cores unfinished."""

    def __init__(self, steps: int, now: float, cores: Sequence[Core]) -> None:
        unfinished = [core for core in cores if not core.finished]
        self.steps = steps
        self.now = now
        self.unfinished = [core.core_id for core in unfinished]
        retired = ", ".join(
            f"core {core.core_id} {core.stats.retired_instructions}"
            for core in unfinished
        )
        super().__init__(
            f"step budget exhausted: {steps} events processed by cycle "
            f"{now:.0f} with cores {self.unfinished} unfinished "
            f"(instructions retired so far: {retired})"
        )


class EventKernel:
    """Min-heap event queue driving cores, controllers and mitigations.

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
        ``SystemConfig.max_steps``); exhausting it with cores unfinished
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
        self._callback_seq = 0
        self._callbacks: dict[int, Callable[[float], None]] = {}
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
            mitigation = getattr(ctl, "mitigation", None)
            if mitigation is not None:
                mitigation.register_events(self)

    # ------------------------------------------------------------------ #
    # Public scheduling interface
    # ------------------------------------------------------------------ #
    def schedule(self, cycle: float, callback: Callable[[float], None]) -> None:
        """Register ``callback(now)`` to run at ``cycle`` (clamped to now)."""
        self._callback_seq += 1
        token = self._callback_seq
        self._callbacks[token] = callback
        # Integer cycles stay integers on the heap (int/float compare
        # exactly for cycle magnitudes); only clamping to a fractional
        # ``now`` can produce a fractional timestamp.
        time = cycle if cycle >= self.now else self.now
        heapq.heappush(self._heap, (time, _PRIORITY_CALLBACK, token, 0))

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> float:
        """Process events until all cores finish; returns the final time.

        Each iteration pops the next live entry, dispatches it, re-queues
        the cores it woke, then makes one pass over the
        controllers: an untouched channel keeps its entry, a changed one
        selects again or, under the module docstring's guards, is deferred
        past a due core event.  On the benchmark's ``hammer_comet`` that
        cuts selects from 1.32 to 1.00 per issued command, with the same
        steps and command stream.

        The per-event work — the dirty-core flush, the pop of the next live
        entry, :meth:`_schedule_controller` and
        :meth:`~repro.controller.controller.MemoryController.decision_crosses_boundary`
        — runs inlined over locals.  Per-controller boundary inputs are
        pre-resolved once: the refresh-due dict (mutated in place for the
        controller's lifetime; empty with refresh off) replaces the
        ``refresh_crosses_due`` call, and the scheduler's
        ``priority_boundary_crossed`` hook is dropped entirely when it is
        the base-class constant ``False`` (every scheduler but BLISS).  Cold
        paths — setup, stall recovery, termination — stay in the helpers.
        ``self.now``/``self.steps`` are kept in sync before any component
        call because completion hooks and ``schedule()`` read them
        mid-event.
        """
        for index in range(len(self.cores)):
            self._schedule_core(index)
        self._schedule_controllers()

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
        callbacks = self._callbacks
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
        # Call the controllers' fused closures directly where they are
        # provably equivalent — the public methods are one-line delegations
        # to them (guarded against subclass or instance overrides, which
        # keep the delegating wrappers).
        from repro.controller.controller import MemoryController

        decision_fns = [
            ctl._fast_select
            if (
                getattr(ctl, "_fast_select", None) is not None
                and type(ctl).next_decision is MemoryController.next_decision
                and "next_decision" not in ctl.__dict__
            )
            else ctl.next_decision
            for ctl in controllers
        ]
        issue_fns = [
            ctl._fast_issue_fn
            if (
                getattr(ctl, "_fast_issue_fn", None) is not None
                and type(ctl).issue_decision is MemoryController.issue_decision
                and "issue_decision" not in ctl.__dict__
            )
            else ctl.issue_decision
            for ctl in controllers
        ]

        now = self.now
        steps = self.steps
        while steps < max_steps:
            time = 0.0
            priority = index = -1
            while heap:
                time, priority, index, gen = pop(heap)
                if priority == _PRIORITY_CORE:
                    if gen == core_gen[index]:
                        break
                elif priority == _PRIORITY_CONTROLLER:
                    if gen == ctl_gen[index]:
                        break
                elif index in callbacks:
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
                if core.has_blocked_request:
                    core.retry_blocked(now)
                elif not core.finished:
                    core.step(now)
                if core.has_blocked_request:
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
            elif priority == _PRIORITY_CONTROLLER:
                ctl = controllers[index]
                ctl_has_entry[index] = False
                if ctl_recheck[index]:
                    issued = ctl.issue_next(ceil(time))
                else:
                    issued = issue_fns[index](ctl_decision[index])
                if issued is not None and issued > now:
                    now = issued
                    self.now = now
            else:
                callback = callbacks.pop(index, None)
                if callback is not None:
                    callback(now)

            while True:
                # Re-queue the cores this event woke (a read completion, or
                # a freed slot: blocked cores retry at the latest issue)
                # before the deferral test looks at the heap; again after a
                # pass whose select retired a preventive refresh.
                while dirty_cores:
                    index = dirty_cores.pop()
                    core = cores[index]
                    core_gen[index] += 1
                    if core.has_blocked_request:
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
                        elif priority == _PRIORITY_CONTROLLER:
                            if gen == ctl_gen[index]:
                                break
                        elif index in callbacks:
                            break
                        pop(heap)
                for i in ctl_indices:
                    ctl = controllers[i]
                    decision = ctl_decision[i]
                    if ctl_cached_mutations[i] == ctl.mutations and (
                        decision is None or ctl_has_entry[i] and decision[0] >= cycle
                    ):
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
                    ctl_cached_mutations[i] = ctl.mutations
                    if decision is None:
                        ctl_decision[i] = None
                        ctl_has_entry[i] = False
                        continue
                    issue_cycle = decision[0]
                    ctl_decision[i] = decision
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
        self.now = now
        self.steps = steps
        self._check_budget()
        return now

    def _check_budget(self) -> None:
        """Raise when the loop ended on ``max_steps`` with cores unfinished."""
        if self.steps >= self.max_steps and not all(
            core.finished for core in self.cores
        ):
            raise StepBudgetExhaustedError(self.steps, self.now, self.cores)

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

    def _schedule_controllers(self) -> None:
        for index in range(len(self.controllers)):
            self._schedule_controller(index)

    def _schedule_controller(self, index: int) -> None:
        """Re-decide one controller after an event, unless provably unchanged.

        The event loop inlines this; setup and stall recovery call it.
        """
        ctl = self.controllers[index]
        cycle = _as_cycle(self.now)
        cached_mutations = self._ctl_cached_mutations[index]
        if cached_mutations is not None and cached_mutations == ctl.mutations:
            decision = self._ctl_decision[index]
            if decision is None:
                if not self._ctl_has_entry[index] and not ctl.decision_crosses_boundary(
                    self._ctl_cached_cycle[index], cycle
                ):
                    # Idle-channel skip: command selection previously found
                    # nothing to do, the controller's queues are untouched
                    # since (mutation counter unchanged) and no refresh
                    # deadline was crossed, so the recomputed decision would
                    # be "nothing" again.
                    return
            elif (
                self._ctl_has_entry[index]
                and decision[0] >= cycle
                and not ctl.decision_crosses_boundary(
                    self._ctl_cached_cycle[index], cycle
                )
            ):
                # Untouched-channel skip: the cached decision and its live
                # heap entry stay valid.  Safe because (a) no scheduler-
                # visible state changed (mutation counter unchanged), (b) no
                # refresh deadline or scheduler priority boundary lies in
                # (cached_cycle, cycle], and (c) the cached issue cycle has
                # not fallen behind the clock — re-running selection with
                # the clamp cycle raised to ``cycle`` can only raise losing
                # candidates' issue cycles, never change the winner or its
                # (still-future) issue cycle.  A decision already in the
                # past (``now`` jumped over it via a recheck-path issue)
                # must be re-clamped by a recompute.
                return
        self._ctl_gen[index] += 1
        decision = ctl.next_decision(cycle)
        self._ctl_cached_cycle[index] = cycle
        # Snapshot *after* next_decision: selection may retire already-done
        # preventive refreshes (queue pruning) and bump the counter.
        self._ctl_cached_mutations[index] = ctl.mutations
        if decision is None:
            self._ctl_decision[index] = None
            self._ctl_has_entry[index] = False
            return
        issue_cycle = decision[0]
        self._ctl_decision[index] = decision
        # A refresh deadline (outranks any cached demand command) or a
        # scheduler priority boundary (BLISS' clearing interval) inside
        # (cycle, issue_cycle] can change the right choice; recompute at
        # issue time in that case.
        self._ctl_recheck[index] = ctl.decision_crosses_boundary(cycle, issue_cycle)
        heapq.heappush(
            self._heap,
            (issue_cycle, _PRIORITY_CONTROLLER, index, self._ctl_gen[index]),
        )
        self._ctl_has_entry[index] = True

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
        if progressed:
            self._schedule_controllers()
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
