"""Trace-driven core model.

The core replays a :class:`~repro.cpu.trace.Trace` against the memory system.
It models the performance-relevant features of the 4-wide, 128-entry-window
out-of-order core of Table 2 without simulating individual instructions:

* non-memory instructions retire at ``width`` per CPU cycle;
* every trace entry is one post-LLC memory request (the workloads are
  generated as such streams, so no cache is modelled);
* memory reads occupy the instruction window until their data returns, and
  at most ``max_outstanding_reads`` reads may be in flight, so long DRAM
  latencies stall the core exactly the way a full window would;
* writes are posted (they never stall retirement unless the controller's
  write queue is full).

The core runs in memory-controller clock cycles (``cpu_to_mem_ratio`` CPU
cycles per memory cycle) because the rest of the simulator is event-driven in
that clock domain.  IPC is reported in CPU cycles.

The event kernel calls :meth:`Core.next_event_cycle` and :meth:`Core.step`
once per trace entry, so both are flat: they read the trace's entry list
and a dispatch end index (``min(len(trace), window_limit)``, kept current
by the :attr:`Core.window_limit` setter) instead of going through
``Trace`` and property chains.  ``step`` builds the
:class:`~repro.controller.request.MemoryRequest` and hands it straight to
its channel controller's ``enqueue``, bound when the core is built; a read
completes through one call, its :class:`_OutstandingRead` record.  The
trace must not change once the core is built.  The sampled executor
(:mod:`repro.sim.sampled`) moves the core through :meth:`Core.open_window`,
:meth:`Core.fast_forward_entry`, :meth:`Core.record_read_completion` and
:meth:`Core.resume_at`, never through its private fields.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Union

from repro.controller.controller import MemoryController
from repro.controller.policies import NEVER
from repro.controller.request import MemoryRequest, RequestType
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.address import AddressMapper


@dataclass(frozen=True)
class CoreConfig:
    """Core microarchitecture parameters (defaults follow Table 2)."""

    width: int = 4
    window_size: int = 128
    cpu_to_mem_ratio: float = 3.0
    max_outstanding_reads: int = 8

    @property
    def issue_rate_per_mem_cycle(self) -> float:
        """Instructions the core can dispatch per memory-controller cycle."""
        return self.width * self.cpu_to_mem_ratio


class _OutstandingRead:
    """Book-keeping for one in-flight read, and its completion callback.

    The controller calls the record itself as the request's ``on_complete``,
    so a read needs no per-request closure, and the whole completion — the
    core's clocks, the in-order retirement of completed reads and the
    kernel wakeup — is this one call.
    """

    __slots__ = ("core", "dispatched_instructions", "completion_cycle")

    def __init__(self, core: "Core", dispatched_instructions: int) -> None:
        self.core = core
        self.dispatched_instructions = dispatched_instructions
        self.completion_cycle: Optional[float] = None

    def __call__(self, request: MemoryRequest, cycle: int) -> None:
        core = self.core
        core._dispatch_memo = None
        cycle = float(cycle)
        self.completion_cycle = cycle
        if cycle > core._last_completion_cycle:
            core._last_completion_cycle = cycle
        stats = core.stats
        if cycle > stats.finish_cycle:
            stats.finish_cycle = cycle
        # Drop completed reads from the head, in program order, so
        # `finished` becomes observable.
        outstanding = core._outstanding
        while outstanding:
            completion = outstanding[0].completion_cycle
            if completion is None or completion > cycle:
                break
            outstanding.popleft()
        wakeup = core.kernel_wakeup
        if wakeup is not None:
            wakeup()


@dataclass
class CoreStatistics:
    retired_instructions: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    stall_events: int = 0
    finish_cycle: float = 0.0


_READ = RequestType.READ
_WRITE = RequestType.WRITE


class Core:
    """One trace-driven core attached to a shared memory controller.

    ``controller`` is a :class:`~repro.controller.fabric.ChannelFabric` (the
    core enqueues on the controller of each request's channel) or a single
    controller serving every channel.
    """

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        controller: MemoryController,
        config: Optional[CoreConfig] = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.controller = controller
        self.config = config or CoreConfig()
        self.mapper: AddressMapper = controller.mapper
        self.stats = CoreStatistics()
        self._issue_rate = self.config.issue_rate_per_mem_cycle
        self._max_outstanding = self.config.max_outstanding_reads
        self._window_size = self.config.window_size
        self._decode = self.mapper.decode
        # Each channel's bound ``enqueue``, looked up once: a class-level
        # wrap installed before the core is built still sees every call.
        channel_controllers = getattr(controller, "controllers", None)
        if channel_controllers is None:
            self._enqueues = (controller.enqueue,) * (
                self.mapper.config.organization.channels
            )
        else:
            self._enqueues = tuple(ctl.enqueue for ctl in channel_controllers)

        self._entries: List[TraceEntry] = trace.entries
        self._cursor = 0
        #: Dispatch stops once ``_cursor`` reaches this index:
        #: ``min(len(trace), window_limit)``, kept by the setter.
        self._dispatch_end = len(self._entries)
        self._window_limit: Optional[int] = None
        self._front_cycle = 0.0
        self._dispatched_instructions = 0
        self._outstanding: Deque[_OutstandingRead] = deque()
        self._blocked_on_queue: Optional[MemoryRequest] = None
        self._last_completion_cycle = 0.0
        #: Set by the event kernel; called whenever a state change may move
        #: this core's next event earlier (a read completion arriving).
        self.kernel_wakeup: Optional[Callable[[], None]] = None
        #: Memo for :meth:`next_event_cycle`: the event kernel asks for the
        #: next event cycle more than once between state changes (once to
        #: schedule, again after unrelated controllers advance), and the
        #: answer only moves when this core steps, a read completes, a
        #: blocked request gets enqueued, the window limit changes or the
        #: sampled executor moves the core — every such site clears the
        #: memo.  It is set only while the core is neither blocked nor at
        #: its dispatch end, so a set memo is the answer.
        self._dispatch_memo: Optional[Union[int, float]] = None

    # ------------------------------------------------------------------ #
    # Scheduling interface used by the system simulation
    # ------------------------------------------------------------------ #
    @property
    def window_limit(self) -> Optional[int]:
        """Trace-index budget for sampled simulation.

        When set, the core stops dispatching once its cursor reaches it
        (outstanding reads still drain), letting the event kernel run one
        detailed window and stop.  ``None`` (the default) is the unbounded
        core.
        """
        return self._window_limit

    @window_limit.setter
    def window_limit(self, limit: Optional[int]) -> None:
        self._window_limit = limit
        length = len(self._entries)
        self._dispatch_end = length if limit is None else min(length, limit)
        self._dispatch_memo = None

    @property
    def finished(self) -> bool:
        return (
            self._cursor >= self._dispatch_end
            and not self._outstanding
            and self._blocked_on_queue is None
        )

    def next_event_cycle(self) -> Union[int, float]:
        """Cycle at which the core next wants to act.

        Returns :data:`~repro.controller.policies.NEVER` (the typed integer
        sentinel, not ``float("inf")``) while the core waits on memory, so
        callers comparing against cycle counters stay in integer arithmetic.
        """
        memo = self._dispatch_memo
        if memo is not None:
            return memo
        if self._blocked_on_queue is not None:
            return NEVER
        cursor = self._cursor
        if cursor >= self._dispatch_end:
            return NEVER
        bubble_count = self._entries[cursor][0]
        outstanding = self._outstanding
        # Fast path: the reads in flight already leave room for the entry
        # (the first check of _dispatch_cycle_for_next_entry).  Dropping
        # completed reads only drops reads, and the survivors'
        # ``dispatched_instructions`` are no smaller than the head's (they
        # were dispatched in program order), so the rest would pass too.
        count = len(outstanding)
        if count < self._max_outstanding and (
            not count
            or self._dispatched_instructions
            + bubble_count
            + 1
            - outstanding[0].dispatched_instructions
            <= self._window_size
        ):
            memo = self._front_cycle + bubble_count / self._issue_rate
        else:
            memo = self._dispatch_cycle_for_next_entry()
        self._dispatch_memo = memo
        return memo

    def step(self, cycle: float) -> None:
        """Process the next trace entry at ``cycle`` (== :meth:`next_event_cycle`)."""
        self._dispatch_memo = None
        if self._blocked_on_queue is not None:
            self._retry_blocked_request(cycle)
            return
        cursor = self._cursor
        if cursor >= self._dispatch_end:
            return
        bubble_count, address, is_write = self._entries[cursor]
        outstanding = self._outstanding
        # Retire in program order every read whose data has arrived.
        while outstanding:
            completion = outstanding[0].completion_cycle
            if completion is None or completion > cycle:
                break
            outstanding.popleft()
        dispatched = self._dispatched_instructions
        stats = self.stats
        decoded = self._decode(address)
        if is_write:
            request = MemoryRequest(_WRITE, decoded, address, self.core_id)
            stats.memory_writes += 1
        else:
            record = _OutstandingRead(self, dispatched)
            outstanding.append(record)
            request = MemoryRequest(
                _READ, decoded, address, self.core_id, on_complete=record
            )
            stats.memory_reads += 1
        if not self._enqueues[decoded.channel](request, int(cycle)):
            self._blocked_on_queue = request
            stats.stall_events += 1
        self._cursor = cursor + 1
        dispatched += bubble_count + 1
        self._dispatched_instructions = dispatched
        stats.retired_instructions = dispatched
        self._front_cycle = cycle

    # ------------------------------------------------------------------ #
    # Internal mechanics
    # ------------------------------------------------------------------ #
    def _dispatch_cycle_for_next_entry(self) -> Union[int, float]:
        """The blocked case of :meth:`next_event_cycle`: wait for reads to
        complete until the window and the read limit leave room.

        Each round walks the outstanding reads in place, counting the reads
        still in flight at ``candidate`` and taking the first of them (the
        window's oldest), then moves ``candidate`` to that read's
        completion.  ``candidate`` only grows, so a read done at one round
        is done at every later one.
        """
        bubble_count = self._entries[self._cursor].bubble_count
        candidate = self._front_cycle + bubble_count / self._issue_rate
        # The window has room while the oldest read in flight was dispatched
        # at or after this instruction count.
        window_floor = (
            self._dispatched_instructions + bubble_count + 1 - self._window_size
        )
        max_outstanding = self._max_outstanding
        outstanding = self._outstanding
        while True:
            count = 0
            oldest = None
            for read in outstanding:
                completion = read.completion_cycle
                if completion is None or completion > candidate:
                    if oldest is None:
                        oldest = read
                    count += 1
            if count < max_outstanding and (
                oldest is None or oldest.dispatched_instructions >= window_floor
            ):
                return candidate
            completion = oldest.completion_cycle
            if completion is None:
                # Blocked on a read whose completion time the controller has
                # not determined yet; the completion callback will wake us.
                return NEVER
            # In flight at ``candidate``, so later than it.
            candidate = completion

    def _retry_blocked_request(self, cycle: float) -> None:
        request = self._blocked_on_queue
        if request is None:
            return
        if self._enqueues[request.address.channel](request, int(cycle)):
            self._blocked_on_queue = None
            self._front_cycle = max(self._front_cycle, cycle)
            self._dispatch_memo = None

    def retry_blocked(self, cycle: float) -> bool:
        """Retry a request rejected on a full queue; True when it got enqueued."""
        self._retry_blocked_request(cycle)
        return self._blocked_on_queue is None

    @property
    def has_blocked_request(self) -> bool:
        return self._blocked_on_queue is not None

    # ------------------------------------------------------------------ #
    # Sampled fast-forward (repro.sim.sampled)
    # ------------------------------------------------------------------ #
    @property
    def trace_exhausted(self) -> bool:
        """True once every trace entry has been dispatched."""
        return self._cursor >= len(self._entries)

    @property
    def dispatched_instructions(self) -> int:
        return self._dispatched_instructions

    @property
    def front_cycle(self) -> float:
        """Cycle of the core's latest dispatch."""
        return self._front_cycle

    def open_window(self, entries: int) -> bool:
        """Let the core dispatch at most ``entries`` more trace entries.

        Sets :attr:`window_limit`; True when the window admits any entry.
        """
        limit = min(len(self._entries), self._cursor + entries)
        self.window_limit = limit
        return limit > self._cursor

    def fast_forward_entry(self) -> TraceEntry:
        """Dispatch the next trace entry without the memory system.

        Advances the cursor and the retired-instruction count and returns
        the entry; the caller applies its accesses functionally.
        """
        entry = self._entries[self._cursor]
        self._cursor += 1
        self._dispatched_instructions += entry.bubble_count + 1
        self.stats.retired_instructions = self._dispatched_instructions
        return entry

    def record_read_completion(self, cycle: float) -> None:
        """Account a functionally served read that completes at ``cycle``."""
        if cycle > self._last_completion_cycle:
            self._last_completion_cycle = cycle
        if cycle > self.stats.finish_cycle:
            self.stats.finish_cycle = cycle

    def resume_at(self, cycle: float) -> None:
        """Move the dispatch front to ``cycle`` (after a fast-forward)."""
        self._front_cycle = cycle
        self._dispatch_memo = None

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def completion_cycle(self) -> float:
        """Memory cycle at which the core finished its trace (valid when finished)."""
        return max(self._front_cycle, self._last_completion_cycle)

    def instructions_per_cycle(self) -> float:
        """IPC in CPU cycles (the metric every performance figure reports)."""
        cycles = self.completion_cycle() * self.config.cpu_to_mem_ratio
        if cycles <= 0:
            return 0.0
        return self.stats.retired_instructions / cycles
