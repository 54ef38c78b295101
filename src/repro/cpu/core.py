"""Trace-driven core model.

The core replays a :class:`~repro.cpu.trace.Trace` against the memory system.
It models the performance-relevant features of the 4-wide, 128-entry-window
out-of-order core of Table 2 without simulating individual instructions:

* non-memory instructions retire at ``width`` per CPU cycle;
* memory reads (LLC misses) occupy the instruction window until their data
  returns, and at most ``max_outstanding_reads`` reads may be in flight, so
  long DRAM latencies stall the core exactly the way a full window would;
* writes are posted (they never stall retirement unless the controller's
  write queue is full).

The core runs in memory-controller clock cycles (``cpu_to_mem_ratio`` CPU
cycles per memory cycle) because the rest of the simulator is event-driven in
that clock domain.  IPC is reported in CPU cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Sequence, Union

from repro.controller.controller import MemoryController
from repro.controller.policies import NEVER
from repro.controller.request import MemoryRequest, RequestType
from repro.cpu.cache import LastLevelCache
from repro.cpu.trace import Trace
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
    so a read needs no per-request closure.
    """

    __slots__ = ("core", "dispatched_instructions", "completion_cycle")

    def __init__(self, core: "Core", dispatched_instructions: int) -> None:
        self.core = core
        self.dispatched_instructions = dispatched_instructions
        self.completion_cycle: Optional[float] = None

    def __call__(self, request: MemoryRequest, cycle: int) -> None:
        self.core._on_read_complete(self, cycle)


@dataclass
class CoreStatistics:
    retired_instructions: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    stall_events: int = 0
    finish_cycle: float = 0.0


class Core:
    """One trace-driven core attached to a shared memory controller."""

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        controller: MemoryController,
        config: Optional[CoreConfig] = None,
        cache: Optional[LastLevelCache] = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.controller = controller
        self.config = config or CoreConfig()
        self.cache = cache
        self.mapper: AddressMapper = controller.mapper
        self.stats = CoreStatistics()

        self._cursor = 0
        self._front_cycle = 0.0
        self._dispatched_instructions = 0
        self._outstanding: Deque[_OutstandingRead] = deque()
        self._blocked_on_queue: Optional[MemoryRequest] = None
        self._last_completion_cycle = 0.0
        self._trace_exhausted = len(trace) == 0
        #: Trace-index budget for sampled simulation: when set, the core acts
        #: exhausted once ``_cursor`` reaches it (outstanding reads still
        #: drain), letting the event kernel run one detailed window and stop.
        #: ``None`` (the default) is bit-identical to the unbounded core.
        self.window_limit: Optional[int] = None
        #: Set by the event kernel; called whenever a state change may move
        #: this core's next event earlier (a read completion arriving).
        self.kernel_wakeup: Optional[Callable[[], None]] = None
        #: Memo for :meth:`_dispatch_cycle_for_next_entry`: the event kernel
        #: asks for the next event cycle more than once between state
        #: changes (once to schedule, again after unrelated controllers
        #: advance), and the answer only moves when this core steps or a
        #: read completes — the two sites that clear the memo.
        self._dispatch_memo: Optional[Union[int, float]] = None

    # ------------------------------------------------------------------ #
    # Scheduling interface used by the system simulation
    # ------------------------------------------------------------------ #
    @property
    def _at_window_limit(self) -> bool:
        return self.window_limit is not None and self._cursor >= self.window_limit

    @property
    def finished(self) -> bool:
        return (
            (self._trace_exhausted or self._at_window_limit)
            and not self._outstanding
            and self._blocked_on_queue is None
        )

    def next_event_cycle(self) -> Union[int, float]:
        """Cycle at which the core next wants to act.

        Returns :data:`~repro.controller.policies.NEVER` (the typed integer
        sentinel, not ``float("inf")``) while the core waits on memory, so
        callers comparing against cycle counters stay in integer arithmetic.
        """
        if self.finished:
            return NEVER
        if self._blocked_on_queue is not None:
            return NEVER
        if self._trace_exhausted or self._at_window_limit:
            return NEVER
        memo = self._dispatch_memo
        if memo is not None:
            return memo
        memo = self._dispatch_cycle_for_next_entry()
        self._dispatch_memo = memo
        return memo

    def step(self, cycle: float) -> None:
        """Process the next trace entry at ``cycle`` (== :meth:`next_event_cycle`)."""
        self._dispatch_memo = None
        if self._blocked_on_queue is not None:
            self._retry_blocked_request(cycle)
            return
        if self._trace_exhausted or self._at_window_limit:
            return
        entry = self.trace[self._cursor]
        self._retire_completed(cycle)
        self._issue_entry(cycle, entry)
        self._cursor += 1
        self._dispatched_instructions += entry.bubble_count + 1
        self.stats.retired_instructions = self._dispatched_instructions
        self._front_cycle = cycle
        if self._cursor >= len(self.trace):
            self._trace_exhausted = True

    # ------------------------------------------------------------------ #
    # Internal mechanics
    # ------------------------------------------------------------------ #
    def _dispatch_cycle_for_next_entry(self) -> Union[int, float]:
        entry = self.trace[self._cursor]
        candidate = self._front_cycle + entry.bubble_count / self.config.issue_rate_per_mem_cycle
        # Exact shortcut: filtering only drops reads, and the survivors'
        # ``dispatched_instructions`` are no smaller than the head's (they
        # were dispatched in program order), so when the unfiltered reads
        # already pass both checks the filtered ones do too.
        if self._constraints_ok(self._outstanding, entry.bubble_count + 1):
            return candidate
        outstanding = list(self._outstanding)
        while True:
            outstanding = [
                read
                for read in outstanding
                if read.completion_cycle is None or read.completion_cycle > candidate
            ]
            if self._constraints_ok(outstanding, entry.bubble_count + 1):
                return candidate
            oldest = outstanding[0]
            if oldest.completion_cycle is None:
                # Blocked on a read whose completion time the controller has
                # not determined yet; the completion callback will wake us.
                return NEVER
            candidate = max(candidate, oldest.completion_cycle)
            outstanding.pop(0)

    def _constraints_ok(
        self, outstanding: Sequence[_OutstandingRead], new_instructions: int
    ) -> bool:
        if len(outstanding) >= self.config.max_outstanding_reads:
            return False
        if outstanding:
            window_usage = (
                self._dispatched_instructions
                + new_instructions
                - outstanding[0].dispatched_instructions
            )
            if window_usage > self.config.window_size:
                return False
        return True

    def _retire_completed(self, cycle: float) -> None:
        """Retire in program order every read whose data has arrived by ``cycle``."""
        while self._outstanding:
            oldest = self._outstanding[0]
            if oldest.completion_cycle is not None and oldest.completion_cycle <= cycle:
                self._outstanding.popleft()
            else:
                break

    def _issue_entry(self, cycle: float, entry) -> None:
        address = entry.address
        is_write = entry.is_write
        if self.cache is not None:
            result = self.cache.access(address, is_write=is_write)
            if result.hit:
                self.stats.llc_hits += 1
                return
            self.stats.llc_misses += 1
            if result.writeback_address is not None:
                self._send_write(result.writeback_address, cycle)
            # The demand access becomes a fill (read) regardless of r/w; a
            # write miss allocates the line and dirties it in the cache.
            self._send_read(result.fill_address, cycle)
            return
        if is_write:
            self._send_write(address, cycle)
        else:
            self._send_read(address, cycle)

    def _send_read(self, address: int, cycle: float) -> None:
        record = _OutstandingRead(self, self._dispatched_instructions)
        self._outstanding.append(record)
        request = MemoryRequest(
            request_type=RequestType.READ,
            address=self.mapper.decode(address),
            physical_address=address,
            core_id=self.core_id,
            on_complete=record,
        )
        self.stats.memory_reads += 1
        if not self.controller.enqueue(request, int(cycle)):
            self._blocked_on_queue = request
            self.stats.stall_events += 1

    def _send_write(self, address: int, cycle: float) -> None:
        request = MemoryRequest(
            request_type=RequestType.WRITE,
            address=self.mapper.decode(address),
            physical_address=address,
            core_id=self.core_id,
        )
        self.stats.memory_writes += 1
        if not self.controller.enqueue(request, int(cycle)):
            self._blocked_on_queue = request
            self.stats.stall_events += 1

    def _on_read_complete(self, record: _OutstandingRead, cycle: int) -> None:
        self._dispatch_memo = None
        record.completion_cycle = float(cycle)
        self._last_completion_cycle = max(self._last_completion_cycle, float(cycle))
        self.stats.finish_cycle = max(self.stats.finish_cycle, float(cycle))
        # Drop completed reads from the head so `finished` becomes observable.
        self._retire_completed(float(cycle))
        if self.kernel_wakeup is not None:
            self.kernel_wakeup()

    def _retry_blocked_request(self, cycle: float) -> None:
        request = self._blocked_on_queue
        if request is None:
            return
        if self.controller.enqueue(request, int(cycle)):
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
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Plain-data checkpoint; valid only at a drained point.

        Outstanding reads and queue-blocked requests hold completion closures
        that cannot round-trip through plain data, so checkpoints are taken
        between detailed windows, after the event kernel ran the system to
        quiescence.
        """
        if self._outstanding or self._blocked_on_queue is not None:
            raise RuntimeError(
                "Core.snapshot() requires a drained core (no in-flight reads)"
            )
        return {
            "cursor": self._cursor,
            "front_cycle": self._front_cycle,
            "dispatched_instructions": self._dispatched_instructions,
            "last_completion_cycle": self._last_completion_cycle,
            "trace_exhausted": self._trace_exhausted,
            "stats": dict(vars(self.stats)),
        }

    def restore(self, state: dict) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        self._cursor = state["cursor"]
        self._front_cycle = state["front_cycle"]
        self._dispatched_instructions = state["dispatched_instructions"]
        self._last_completion_cycle = state["last_completion_cycle"]
        self._trace_exhausted = state["trace_exhausted"]
        self._outstanding = deque()
        self._blocked_on_queue = None
        self._dispatch_memo = None
        for key, value in state["stats"].items():
            setattr(self.stats, key, value)

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
