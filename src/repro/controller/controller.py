"""Policy-driven memory controller with RowHammer-mitigation hooks.

The controller owns the read/write queues, the refresh schedule and the
preventive-refresh queue, and drives the :class:`~repro.dram.dram_system.DRAMSystem`
one command at a time.  It is deliberately event-driven: the event kernel
(:mod:`repro.sim.engine`) asks it for its best command as of a cycle
(:attr:`MemoryController.next_decision`: the command, the earliest cycle
it can issue at and the cycle until which that answer holds) and later tells
it to issue exactly that command (:attr:`MemoryController.issue_decision`),
so no cycles are spent spinning over idle periods.
:meth:`MemoryController.issue_next` does both at once.

What used to be one monolithic FR-FCFS/open-page/all-bank scheduler is now a
:class:`~repro.controller.policies.ControllerPolicySpec` naming one policy
per axis (see :mod:`repro.controller.policies`):

* the **scheduling policy** picks which pending request each bank serves
  next (``fr_fcfs`` with the column-cap starvation guard — the paper's
  Table 2 controller and the default — plus ``fcfs`` and the BLISS-style
  ``bliss``);
* the **row policy** decides what happens to an open row once its bank has
  no queued work (``open_page`` — the default — plus ``closed_page`` and
  ``adaptive_timeout``), contributing speculative PRE candidates that
  compete with demand commands on issue cycle;
* the **refresh policy** shapes the periodic-refresh schedule by rewriting
  ``tREFI``/``tRFC`` before the device model is built (``all_bank`` — the
  default — plus DDR4 ``fine_granularity`` 2x/4x modes).

The controller still owns everything policy-independent: queue capacity and
the write-drain watermarks (writes buffer until the queue passes
``write_drain_high`` and drain until ``write_drain_low``), refresh due-time
bookkeeping with priority over demand traffic, the preventive-refresh queue
mitigations fill (CoMeT's ACT+PRE victim refreshes, served with priority per
Section 7.2.2 of the paper), and the mitigation hooks (activation observers,
BlockHammer-style ACT throttling, mitigation-injected traffic).

Command selection is incremental: pending requests are indexed per bank in
arrival order as they enqueue (:class:`_BankPending`), under one record per
bank (:class:`_BankQueues`) that also holds what the select reads about the
bank (its timing-table slot, channel, bank group and rank ready lists).
Banks with pending demand sit in one dict, so each selection walks only the
records of banks that have work, with no per-bank lookup, and stops
scanning a bank as soon as the scheduling policy's answer is determined,
instead of re-bucketing and re-sorting the full queues on every call.  The
default policy triple is bit-identical to the pre-policy controller —
decision ties are broken by an explicit scan key that reproduces the old
queue-scan order exactly — and is pinned by the golden traces under
``tests/golden/``.

There is one issue path.  Selection and issue are two closures built once
per controller with their invariant inputs pre-bound
(:meth:`MemoryController._build_select` and
:meth:`MemoryController._build_issue`) and set as the instance attributes
:attr:`~MemoryController.next_decision` and
:attr:`~MemoryController.issue_decision`, which the event kernel calls as
they are.  The select computes every command's earliest legal cycle from the
device's own timing state (the bank timing table, the ranks' ready lists
and the bus cycles), so the issue hands each decision to
:attr:`~repro.dram.dram_system.DRAMSystem.apply` — the device model's only
update routine — without a second timing check, then does the controller's
bookkeeping.  What checks the timing instead is independent of this
package: the test suite's JEDEC oracle (``tests/oracle_commands.py``)
rebuilds the device state from the configuration and every issued command
(:meth:`~repro.dram.dram_system.DRAMSystem.add_command_observer`).
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.controller.policies import (
    NEVER,
    ControllerPolicySpec,
    DEFAULT_POLICY,
    RowPolicy,
    SchedulingPolicy,
)
from repro.controller.request import MemoryRequest, RequestType
from repro.dram.address import AddressMapper, DRAMAddress
from repro.dram.commands import Command, CommandKind
from repro.dram.config import DRAMConfig
from repro.dram.dram_system import DRAMSystem, Rank

_WRITE = RequestType.WRITE


@dataclass(frozen=True)
class ControllerConfig:
    """Scheduling parameters of the memory controller."""

    read_queue_size: int = 64
    write_queue_size: int = 64
    column_cap: int = 16
    write_drain_high: int = 48
    write_drain_low: int = 16


@dataclass
class ControllerStatistics:
    """Aggregate controller statistics used by metrics and reports.

    ``row_hits``/``row_misses``/``row_conflicts`` attribute every demand
    scheduling decision: a column command served from the open row is a hit,
    a demand ACT is a miss (the row had to be opened) and a demand PRE is a
    conflict (an open row had to make way).  Per-core dicts default missing
    cores to zero, so hot-path accounting needs no existence checks.
    """

    read_requests: int = 0
    write_requests: int = 0
    mitigation_requests: int = 0
    preventive_refreshes: int = 0
    early_refresh_operations: int = 0
    total_read_latency: int = 0
    completed_reads: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    #: Speculative precharges issued on behalf of the row policy.
    policy_precharges: int = 0
    per_core_read_latency: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    per_core_reads: Dict[int, int] = field(default_factory=lambda: defaultdict(int))

    @property
    def average_read_latency(self) -> float:
        if self.completed_reads == 0:
            return 0.0
        return self.total_read_latency / self.completed_reads


def _request_sort_key(request: MemoryRequest) -> Tuple[int, int]:
    return (request.arrival_cycle, request.request_id)


class _BankPending:
    """Pending requests of one bank, kept in (arrival, request-id) order.

    ``min_seq`` is the smallest controller enqueue sequence number among the
    requests — the deterministic tie-break reproducing the order in which
    the old full-queue scan first encountered each bank.
    """

    __slots__ = ("requests", "min_seq", "row_counts", "seq_ordered")

    def __init__(self) -> None:
        self.requests: List[MemoryRequest] = []
        self.min_seq: int = NEVER
        #: True while ``requests`` is also in enqueue-sequence order, i.e.
        #: every request so far was appended (sequence numbers only grow),
        #: so the smallest sequence number is the head's.  Cleared by an
        #: out-of-order insert; set again once the bank has drained.
        self.seq_ordered = True
        #: Pending-request count per row.  The FR-FCFS hit scan only has to
        #: walk ``requests`` when the open row actually has a pending
        #: request (``open_row in row_counts``); under a hammering pattern
        #: nearly every selection is a conflict and the scan is skipped.
        self.row_counts: Dict[int, int] = {}

    def add(self, request: MemoryRequest, seq: int) -> None:
        if seq < self.min_seq:
            self.min_seq = seq
        row = request.address.row
        self.row_counts[row] = self.row_counts.get(row, 0) + 1
        requests = self.requests
        if not requests or _request_sort_key(requests[-1]) <= _request_sort_key(request):
            requests.append(request)
        else:
            # Out-of-order arrival (a retried request that was created before
            # requests that beat it into the queue): keep the list sorted.
            insort(requests, request, key=_request_sort_key)
            self.seq_ordered = False

    def remove(self, request: MemoryRequest) -> None:
        requests = self.requests
        requests.remove(request)
        row = request.address.row
        count = self.row_counts[row] - 1
        if count:
            self.row_counts[row] = count
        else:
            del self.row_counts[row]
        if not requests:
            self.min_seq = NEVER
            self.seq_ordered = True
        elif request.enqueue_seq == self.min_seq:
            if self.seq_ordered:
                self.min_seq = requests[0].enqueue_seq
            else:
                self.min_seq = min(r.enqueue_seq for r in requests)


def _merge_pending(
    read_list: List[MemoryRequest], write_list: List[MemoryRequest]
) -> List[MemoryRequest]:
    """Merge two sorted per-bank lists in global (arrival, request-id) order."""
    merged: List[MemoryRequest] = []
    i = j = 0
    while i < len(read_list) and j < len(write_list):
        if _request_sort_key(read_list[i]) <= _request_sort_key(write_list[j]):
            merged.append(read_list[i])
            i += 1
        else:
            merged.append(write_list[j])
            j += 1
    merged.extend(read_list[i:])
    merged.extend(write_list[j:])
    return merged


class _BankQueues:
    """One bank's demand work and everything the select reads about it.

    ``reads``/``writes`` are the bank's pending read and write
    :class:`_BankPending` (``None`` while that queue holds nothing for the
    bank) and ``merged`` their cached read+write merge, dropped whenever
    either changes (ACT/PRE issues touch no queue, so a multi-command
    service pays for at most one merge).  The rest never changes: the
    bank's timing-table slot, its channel and bank group, and its rank's
    three ready lists (:class:`~repro.dram.dram_system.Rank`).  One record
    per bank, created at the bank's first enqueue and kept for the
    controller's lifetime.
    """

    __slots__ = (
        "reads",
        "writes",
        "merged",
        "index",
        "channel",
        "bankgroup",
        "act_ready",
        "read_ready",
        "write_ready",
    )

    def __init__(self, rank: Rank, channel: int, bankgroup: int, bank: int) -> None:
        self.reads: Optional[_BankPending] = None
        self.writes: Optional[_BankPending] = None
        self.merged: Optional[List[MemoryRequest]] = None
        self.index: int = rank.banks[(bankgroup, bank)].index
        self.channel = channel
        self.bankgroup = bankgroup
        self.act_ready: List[int] = rank.act_ready
        self.read_ready: List[int] = rank.read_ready
        self.write_ready: List[int] = rank.write_ready


class MemoryController:
    """One memory controller: all channels (legacy) or a single channel.

    Parameters
    ----------
    dram_config:
        DRAM organization/timing; a fresh :class:`DRAMSystem` is built from it
        (after the refresh policy and the mitigation had their chance to
        rewrite it).
    config:
        Queue sizes and scheduling knobs.
    mitigation:
        Optional RowHammer mitigation implementing the
        :class:`repro.mitigations.base.RowHammerMitigation` interface.  The
        mitigation may rewrite the DRAM config (REGA), observe activations,
        schedule preventive refreshes, inject its own memory traffic (Hydra)
        and throttle activations (BlockHammer).
    channel:
        When given, the controller is channel-scoped: it owns only that
        channel's DRAM ranks, schedules only that channel's refreshes, and
        expects every enqueued request to target that channel.  ``None``
        (the default) keeps the monolithic all-channel behaviour used by
        direct unit tests; the :class:`~repro.controller.fabric.ChannelFabric`
        always builds channel-scoped controllers.
    policy:
        The :class:`~repro.controller.policies.ControllerPolicySpec` naming
        the scheduling, row and refresh policies.  ``None`` selects the
        default triple (``fr_fcfs``, ``open_page``, ``all_bank``), which is
        bit-identical to the pre-policy controller.  Policy instances are
        built per controller (they may be stateful).
    """

    def __init__(
        self,
        dram_config: DRAMConfig,
        config: Optional[ControllerConfig] = None,
        mitigation=None,
        channel: Optional[int] = None,
        policy: Optional[ControllerPolicySpec] = None,
    ) -> None:
        self.config = config or ControllerConfig()
        self.mitigation = mitigation
        self.channel = channel
        self.policy_spec = policy or DEFAULT_POLICY
        self.scheduler, self.row_policy, self.refresh_policy = self.policy_spec.build()
        dram_config = self.refresh_policy.adjust_dram_config(dram_config)
        if mitigation is not None:
            dram_config = mitigation.adjust_dram_config(dram_config)
        self.dram_config = dram_config
        self.dram = DRAMSystem(dram_config, channel=channel)
        self.mapper = AddressMapper(dram_config)
        self.stats = ControllerStatistics()
        #: Monotonic count of scheduler-visible state changes (accepted
        #: enqueues, issues, request retirements, owed extra refreshes — a
        #: rejected enqueue changes nothing and does not count).  The event
        #: kernel compares snapshots of this counter to prove a channel's
        #: cached decision (or cached "nothing to do") is still valid
        #: without re-running command selection.
        self.mutations = 0
        #: Static proof that the row policy never emits close candidates
        #: (the default open-page case), letting the demand scan skip the
        #: close-candidate pass entirely.
        self._row_policy_closes = (
            type(self.row_policy).close_candidates is not RowPolicy.close_candidates
        )
        #: Active refresh policies (DDR5 RFM) observe ACT/REF traffic and
        #: owe bank-scoped RFM commands; passive policies skip all wiring.
        self._refresh_policy_rfm = getattr(self.refresh_policy, "ISSUES_RFM", False)
        #: Mitigations that assert Alert Back-Off (PRAC) stall demand issue;
        #: everything else skips the per-decision hook call.
        self._mitigation_blocks = mitigation is not None and getattr(
            mitigation, "BLOCKS_DEMAND", False
        )
        #: Mitigations that throttle activations (BlockHammer) are asked
        #: about every ACT candidate; the rest leave the base-class no-op.
        from repro.mitigations.base import RowHammerMitigation

        self._act_throttled = mitigation is not None and (
            type(mitigation).act_allowed_cycle
            is not RowHammerMitigation.act_allowed_cycle
        )
        #: One demand PRE per bank key for the select to hand out
        #: again: a frozen ``Command`` with empty metadata is the same
        #: value every time that bank is closed for a conflict.  Bounded by
        #: the bank count; policy-close PREs never enter it.
        self._pre_commands: Dict[Tuple[int, int, int, int], Command] = {}

        self.read_queue: List[MemoryRequest] = []
        self.write_queue: List[MemoryRequest] = []
        self.preventive_queue: List[MemoryRequest] = []
        #: Incremental per-bank index over the demand queues: requests are
        #: filed under their bank's record at enqueue time and removed at
        #: completion, so command selection never re-buckets the full
        #: queues.  ``_bank_queues`` holds every bank seen;
        #: ``_active_banks`` the ones with pending demand, the only ones the
        #: demand scan visits.
        self._bank_queues: Dict[Tuple[int, int, int, int], _BankQueues] = {}
        self._active_banks: Dict[Tuple[int, int, int, int], _BankQueues] = {}
        self._enqueue_seq = 0

        org = dram_config.organization
        channels = range(org.channels) if channel is None else (channel,)
        self._rank_keys = [
            (ch, rank)
            for ch in channels
            for rank in range(org.ranks_per_channel)
        ]
        # Stagger periodic refreshes across ranks so they do not collide.
        stagger = max(1, self.dram_config.tREFI // max(1, len(self._rank_keys)))
        self.next_refresh_due: Dict[Tuple[int, int], int] = {
            key: self.dram_config.tREFI + index * stagger
            for index, key in enumerate(self._rank_keys)
        }
        self.extra_rank_refreshes: Dict[Tuple[int, int], int] = {
            key: 0 for key in self._rank_keys
        }
        self._draining_writes = False
        self._slot_free_callbacks: List[Callable[[], None]] = []
        self.current_cycle = 0

        if mitigation is not None:
            mitigation.attach(self)
            self.dram.add_activation_observer(self._on_activation)
            self.dram.add_refresh_observer(self._on_refresh)
        if self._refresh_policy_rfm:
            self.refresh_policy.attach(self)
        #: The command select with every construction-stable input
        #: pre-bound.  Built last: it binds the queues, indexes, caches and
        #: the attached mitigation's hook resolutions.
        self._select = self._build_select()
        #: ``next_decision(cycle)``: ``(decision, valid_until)``.  The
        #: decision is the best command as of ``cycle``, as
        #: ``(issue_cycle, command, request)``, or ``None`` when idle.
        #: ``valid_until`` is the first cycle after ``cycle`` at which time
        #: alone could change the answer: the next periodic refresh deadline
        #: or the scheduler's next priority boundary (BLISS' clearing
        #: interval, ``scheduler.next_priority_boundary``), else ``NEVER``.
        #: Before it, only a change of :attr:`mutations` can change the
        #: answer, so the event kernel keeps the decision and hands it back
        #: to :attr:`issue_decision` if it holds through its issue cycle; it
        #: also defers a select a due core event would supersede.  Measured
        #: (perfbench, traced): 1.00 selects per issued command on
        #: ``hammer_comet`` and ``campaign_audit``, 1.30 on the 4-core
        #: mixes, where an enqueue while a decision waits forces another.
        self.next_decision = self._select
        #: ``issue_decision(decision)``: issue a decision produced by
        #: :attr:`next_decision` and return its cycle.  Both are instance
        #: attributes the event kernel calls as they are, so a wrapper set
        #: on the instance (a benchmark's tracing) sees every call.
        self.issue_decision = self._build_issue()

    # ------------------------------------------------------------------ #
    # External interface (cores, mitigations)
    # ------------------------------------------------------------------ #
    def add_slot_free_callback(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever queue space frees up."""
        self._slot_free_callbacks.append(callback)

    def enqueue(self, request: MemoryRequest, cycle: int) -> bool:
        """Add a request to the appropriate queue; returns False when full."""
        request.arrival_cycle = cycle
        if request.request_type is RequestType.READ:
            if len(self.read_queue) >= self.config.read_queue_size:
                return False
            self.mutations += 1
            self.read_queue.append(request)
            self._index_request(request, False)
            if request.is_mitigation_traffic:
                self.stats.mitigation_requests += 1
            else:
                self.stats.read_requests += 1
        elif request.request_type is RequestType.WRITE:
            if len(self.write_queue) >= self.config.write_queue_size:
                return False
            self.mutations += 1
            self.write_queue.append(request)
            self._index_request(request, True)
            if request.is_mitigation_traffic:
                self.stats.mitigation_requests += 1
            else:
                self.stats.write_requests += 1
        else:
            self.mutations += 1
            self.preventive_queue.append(request)
            self.stats.preventive_refreshes += 1
        return True

    def _index_request(self, request: MemoryRequest, is_write: bool) -> None:
        seq = self._enqueue_seq
        self._enqueue_seq += 1
        request.enqueue_seq = seq
        bank_key = request.address.bank_key
        record = self._active_banks.get(bank_key)
        if record is None:
            record = self._bank_queues.get(bank_key)
            if record is None:
                channel, rank, bankgroup, bank = bank_key
                record = self._bank_queues[bank_key] = _BankQueues(
                    self.dram.ranks[(channel, rank)], channel, bankgroup, bank
                )
            self._active_banks[bank_key] = record
        record.merged = None
        if is_write:
            pending = record.writes
            if pending is None:
                pending = record.writes = _BankPending()
        else:
            pending = record.reads
            if pending is None:
                pending = record.reads = _BankPending()
        pending.add(request, seq)

    def _unindex_request(self, request: MemoryRequest) -> None:
        bank_key = request.address.bank_key
        record = self._active_banks[bank_key]
        record.merged = None
        if request.request_type is _WRITE:
            pending = record.writes
            pending.remove(request)
            if not pending.requests:
                record.writes = None
        else:
            pending = record.reads
            pending.remove(request)
            if not pending.requests:
                record.reads = None
        if record.reads is None and record.writes is None:
            del self._active_banks[bank_key]

    def schedule_preventive_refresh(self, address: DRAMAddress, cycle: int) -> None:
        """Queue a preventive refresh (ACT+PRE) of ``address``'s row."""
        request = MemoryRequest(
            request_type=RequestType.PREVENTIVE_REFRESH,
            address=address,
            arrival_cycle=cycle,
            is_mitigation_traffic=True,
        )
        self.enqueue(request, cycle)

    def schedule_rank_refresh(self, channel: int, rank: int, count: int) -> None:
        """Queue ``count`` extra rank-level REF commands (early preventive refresh)."""
        self.mutations += 1
        self.extra_rank_refreshes[(channel, rank)] += count
        self.stats.early_refresh_operations += 1

    def enqueue_mitigation_request(
        self, address: DRAMAddress, is_write: bool, cycle: int
    ) -> bool:
        """Inject mitigation-generated DRAM traffic (e.g. Hydra counter accesses)."""
        request = MemoryRequest(
            request_type=RequestType.WRITE if is_write else RequestType.READ,
            address=address,
            arrival_cycle=cycle,
            is_mitigation_traffic=True,
        )
        return self.enqueue(request, cycle)

    def pending_requests(self) -> int:
        return len(self.read_queue) + len(self.write_queue) + len(self.preventive_queue)

    def has_work(self) -> bool:
        if self.pending_requests() > 0:
            return True
        return any(count > 0 for count in self.extra_rank_refreshes.values())

    def has_pending_for_bank(self, bank_key: Tuple[int, int, int, int]) -> bool:
        """True when any demand request targets ``bank_key`` (row policies)."""
        return bank_key in self._active_banks

    # ------------------------------------------------------------------ #
    # Observers wiring mitigation <-> DRAM
    # ------------------------------------------------------------------ #
    def _on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        if self.mitigation is not None:
            self.mitigation.on_activation(cycle, address, is_preventive)

    def _on_refresh(
        self, cycle: int, rank_key: Tuple[int, int], start_row: int, count: int
    ) -> None:
        if self.mitigation is not None:
            self.mitigation.on_refresh(cycle, rank_key, start_row, count)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def select_deferrable(self) -> bool:
        """True when a select now would change no state: no preventive
        refresh to retire, no write-drain flip, no throttled-ACT count.  The
        event kernel defers a select only then (see :mod:`repro.sim.engine`).
        """
        if self.preventive_queue or self._act_throttled:
            return False
        if self._draining_writes:
            return len(self.write_queue) > self.config.write_drain_low
        return len(self.write_queue) < self.config.write_drain_high

    def issue_next(self, cycle: int) -> Optional[int]:
        """Issue the best command at the earliest legal cycle >= ``cycle``.

        Returns the cycle at which the command was issued, or None if the
        controller has nothing to do.
        """
        decision, _ = self._select(cycle)
        if decision is None:
            return None
        return self.issue_decision(decision)

    # -- command selection ------------------------------------------------
    def _refresh_command(
        self, cycle: int
    ) -> Optional[Tuple[int, Command, Optional[MemoryRequest]]]:
        if not self.dram_config.refresh_enabled:
            return None
        best: Optional[Tuple[int, Command]] = None
        for rank_key in self._rank_keys:
            channel, rank_id = rank_key
            due = self.next_refresh_due[rank_key]
            owed_extra = self.extra_rank_refreshes[rank_key]
            if cycle < due and owed_extra == 0:
                continue
            rank = self.dram.rank(channel, rank_id)
            open_banks = [
                (bankgroup, bank)
                for (bankgroup, bank), state in rank.banks.items()
                if not state.is_closed()
            ]
            if open_banks:
                # Close one open bank so the REF can go out.
                candidates = []
                for bankgroup, bank in open_banks:
                    command = Command(
                        CommandKind.PRE,
                        channel=channel,
                        rank=rank_id,
                        bankgroup=bankgroup,
                        bank=bank,
                    )
                    candidates.append(
                        (self.dram.earliest_issue_cycle(command, cycle), command)
                    )
                candidate = min(candidates, key=lambda item: item[0])
            else:
                command = Command(CommandKind.REF, channel=channel, rank=rank_id)
                candidate = (self.dram.earliest_issue_cycle(command, cycle), command)
            if best is None or candidate[0] < best[0]:
                best = candidate
        if best is None:
            return None
        return best[0], best[1], None

    def _rfm_command(
        self, cycle: int
    ) -> Optional[Tuple[int, Command, Optional[MemoryRequest]]]:
        """Serve banks whose rolling activation count owes an RFM.

        Mirrors :meth:`_refresh_command`: an open bank is first closed with
        a PRE so the bank-scoped RFM can go out, and the earliest-issuable
        candidate wins.  Ranked above preventive and demand traffic so a
        bank at ``raaimt`` cannot keep accumulating activations — the DDR5
        contract that keeps RAA below ``raammt``.
        """
        best: Optional[Tuple[int, Command]] = None
        trfm = getattr(self.refresh_policy, "trfm", self.dram_config.timing.tRFC)
        for bank_key in self.refresh_policy.rfm_pending():
            channel, rank_id, bankgroup, bank = bank_key
            if self.dram.bank(channel, rank_id, bankgroup, bank).is_closed():
                command = Command(
                    CommandKind.RFM,
                    channel=channel,
                    rank=rank_id,
                    bankgroup=bankgroup,
                    bank=bank,
                    metadata={"trfm": trfm},
                )
            else:
                command = Command(
                    CommandKind.PRE,
                    channel=channel,
                    rank=rank_id,
                    bankgroup=bankgroup,
                    bank=bank,
                )
            issue_cycle = self.dram.earliest_issue_cycle(command, cycle)
            if best is None or issue_cycle < best[0]:
                best = (issue_cycle, command)
        if best is None:
            return None
        return best[0], best[1], None

    def _preventive_command(
        self, cycle: int
    ) -> Optional[Tuple[int, Command, Optional[MemoryRequest]]]:
        self._prune_preventive_queue(cycle)
        best: Optional[Tuple[int, Command, MemoryRequest]] = None
        seen_categories = set()
        for request in self.preventive_queue:
            # All queued refreshes of one bank in the same phase (awaiting
            # their ACT, or awaiting the closing PRE) produce the same command
            # kind at the same earliest cycle — the ACT/PRE constraints do not
            # depend on the row — and ties keep the earliest-queued request,
            # so only the first request per (bank, phase) can win the scan.
            category = (request.address.bank_key, request.refresh_activated)
            if category in seen_categories:
                continue
            seen_categories.add(category)
            command = self._next_command_for_refresh(request)
            issue_cycle = self.dram.earliest_issue_cycle(command, cycle)
            if best is None or issue_cycle < best[0]:
                best = (issue_cycle, command, request)
        return best

    def _prune_preventive_queue(self, cycle: int) -> None:
        """Complete preventive refreshes whose victim row was already closed.

        The victim row is refreshed by its preventive ACT; the trailing PRE
        only closes it.  If another command (a refresh PRE, a demand conflict
        PRE or another preventive refresh to the same bank) already closed the
        bank, the refresh is done and the request can retire.
        """
        finished = []
        for request in self.preventive_queue:
            if not request.refresh_activated:
                continue
            bank = self.dram.bank_for(request.address)
            if bank.is_closed() or bank.open_row != request.address.row:
                finished.append(request)
        for request in finished:
            self.mutations += 1
            self.preventive_queue.remove(request)
            request.complete(cycle)
            self.dram.stats.preventive_refresh_pairs += 1
            self._notify_slot_free()

    def _next_command_for_refresh(self, request: MemoryRequest) -> Command:
        address = request.address
        bank = self.dram.bank_for(address)
        if not request.refresh_activated:
            if bank.is_closed():
                return Command(
                    CommandKind.ACT,
                    channel=address.channel,
                    rank=address.rank,
                    bankgroup=address.bankgroup,
                    bank=address.bank,
                    row=address.row,
                    is_preventive=True,
                )
            return Command(
                CommandKind.PRE,
                channel=address.channel,
                rank=address.rank,
                bankgroup=address.bankgroup,
                bank=address.bank,
            )
        # Already activated: close the victim row to finish the refresh.
        return Command(
            CommandKind.PRE,
            channel=address.channel,
            rank=address.rank,
            bankgroup=address.bankgroup,
            bank=address.bank,
            is_preventive=True,
        )

    def _build_select(self):
        """Build the command select with every invariant pre-bound.

        One closure covers the whole priority chain: refresh > RFM >
        preventive > demand.  The refresh, RFM and preventive stages run
        behind cheap guards that replicate each helper's own "nothing to do"
        test (a due/owed rank, an attached active refresh policy, a
        non-empty preventive queue) and delegate to
        :meth:`_refresh_command`, :meth:`_rfm_command` and
        :meth:`_preventive_command` the moment the guard trips.

        The demand stage is one scan for every scheduler, against the
        struct-of-arrays timing table.  It walks the :class:`_BankQueues`
        records of the banks with pending demand (``self._active_banks``),
        taking a record's reads and writes only while that queue class is
        active, so no bank costs a dict lookup.  Each bank with pending
        work yields one candidate — ACT for a closed bank, else the
        scheduler's row hit (column command) or conflict (PRE) — and
        candidates compete on ``(issue, arrival, scan_key)``, where
        ``scan_key`` orders banks by their earliest-enqueued pending
        request, reads before writes.  A bank whose ``issue`` is later than
        the best so far loses there, before any tuple is built; the rest of
        its order is built only on a tie or a win, and the full
        ``best_order`` only once, after the scan, for the row policy's close
        candidates.  The walk's order cannot change the winner: every
        ``scan_key`` carries a distinct enqueue sequence number, so no two
        candidates' orders are equal.  The scan reads the shared
        :class:`~repro.dram.bank.BankTimingTable` arrays and each rank's
        ready lists (:class:`~repro.dram.dram_system.Rank`, where the rank
        rules are pushed at issue time: the bank group's slot and the
        any-group slot ``[-1]``) directly, and builds a
        :class:`~repro.dram.commands.Command` for the winner only, instead
        of materializing one per candidate through ``Bank``/``Rank`` method
        chains.  A demand PRE winner is not rebuilt: the frozen PRE for
        its bank comes from ``self._pre_commands``, created on the bank's
        first conflict and handed out again on every later one, so the
        table holds at most one command per bank.  ACT and RD/WR winners
        are built fresh, with positional arguments; memoizing them by row
        or column would grow with the footprint.  The scheduler enters
        through two facts resolved here:

        * :attr:`~repro.controller.policies.SchedulingPolicy.HITS_FIRST` —
          FR-FCFS' early-exit hit/conflict scan under the column cap.  A
          strict-FCFS scheduler runs the same scan over the bank's oldest
          request alone, where it reduces to "the row state picks ACT,
          column command or PRE".
        * :attr:`~repro.controller.policies.SchedulingPolicy.demoted_cores` —
          BLISS' blacklist, a live set.  Per-bank lists are in (arrival,
          request-id) order, so ``min`` over ``(demoted, arrival,
          request_id)`` is the first non-demoted request, else the first
          one, taken separately over hits and over conflicts: the same scan
          over the list with demoted requests moved (stably) to the back,
          which ``demoted_last`` shortens to the at most four requests such
          a scan can pick.  Demand candidates then order on ``(issue,
          demoted, arrival, scan_key)`` instead of ``(issue, arrival,
          scan_key)``.

        Both resolve per select into one list rewrite (``narrow``), applied
        only to banks with more than one pending request: for FR-FCFS — and
        for BLISS while its blacklist is empty — there is none, and the
        per-bank loop does no scheduler work beyond two ``None`` tests.
        Close candidates keep the scheduler's ``close_priority``.  The
        scheduler's ``before_demand_scan`` hook (BLISS' clearing) runs once,
        after the Alert Back-Off shift, only when some bank has demand work.
        Every return carries ``valid_until`` (see :attr:`next_decision`):
        the refresh guard's loop takes the earliest deadline after the asked
        cycle, and the scheduler's ``next_priority_boundary`` — pre-resolved
        to ``None`` for the time-invariant base class — is read last, after
        the demand scan, from the asked cycle, not the Alert Back-Off one.
        ``tests/test_fastpath_identity.py`` checks every decision against a
        brute-force ranker written from the policies' definitions, and the
        golden traces pin whole runs down to their command streams.

        Selection runs once per scheduling decision, and on low-parallelism
        shapes (one pending bank) rebinding its ~30 invariant inputs from
        ``self`` dominated its cost — so they are bound once here as closure
        defaults.  Positional ones: CPython fills a missing keyword-only
        default through a dict lookup on every call, a positional one by a
        copy, and ``select`` is only ever called as ``select(cycle)``.
        Everything bound is construction-stable: the timing-table
        lists, bus dicts and refresh-due dicts are created once and only
        ever mutated in place, and the queues/indexes/caches live for the
        controller's lifetime.
        The mitigation's ACT throttle is pre-resolved to ``None`` when it is
        the base-class no-op (CoMeT, PARA, Hydra...) so only real throttlers
        (BlockHammer) pay the per-candidate call.
        """
        dram = self.dram
        table = dram.timing_table
        timing = self.dram_config.timing
        mitigation = self.mitigation
        scheduler = self.scheduler
        hits_first = scheduler.HITS_FIRST
        demoted_cores = scheduler.demoted_cores

        def oldest_only(pending, open_row):
            return pending[:1]

        def demoted_last(pending, open_row):
            # The requests the hit/conflict scan can pick, demoted ones
            # behind: the first non-demoted hit and conflict, then the first
            # demoted hit and conflict, each group in arrival order.  A scan
            # over this list finds what a scan over the stable partition
            # (non-demoted first) finds, without building the partition.
            # A closed bank (open_row None) has one kind: every request
            # "conflicts", so the first non-demoted one ends the walk.
            kept = []
            kept_kinds = []
            behind = []
            behind_kinds = []
            for request in pending:
                hit = request.address.row == open_row
                if request.core_id in demoted_cores:
                    if hit not in behind_kinds and hit not in kept_kinds:
                        behind_kinds.append(hit)
                        behind.append(request)
                elif hit not in kept_kinds:
                    kept_kinds.append(hit)
                    kept.append(request)
                    if open_row is None or len(kept) == 2:
                        break
            kept.extend(behind)
            return kept if hits_first else kept[:1]

        def select(
            cycle: int,
            self=self,
            refresh_enabled=self.dram_config.refresh_enabled,
            rank_keys=tuple(self._rank_keys),
            next_refresh_due=self.next_refresh_due,
            extra_rank_refreshes=self.extra_rank_refreshes,
            refresh_command=self._refresh_command,
            refresh_policy_rfm=self._refresh_policy_rfm,
            preventive_queue=self.preventive_queue,
            preventive_command=self._preventive_command,
            mitigation_blocks=self._mitigation_blocks,
            before_demand_scan=(
                scheduler.before_demand_scan
                if type(scheduler).before_demand_scan
                is not SchedulingPolicy.before_demand_scan
                else None
            ),
            next_priority_boundary=(
                scheduler.next_priority_boundary
                if type(scheduler).next_priority_boundary
                is not SchedulingPolicy.next_priority_boundary
                else None
            ),
            demoted_cores=demoted_cores,
            base_narrow=None if hits_first else oldest_only,
            demoted_last=demoted_last,
            demand_blocked_until=(
                mitigation.demand_blocked_until
                if self._mitigation_blocks
                else None
            ),
            update_drain_mode=self._update_drain_mode,
            read_queue=self.read_queue,
            write_queue=self.write_queue,
            row_policy_closes=self._row_policy_closes,
            open_rows=table.open_row,
            col_accesses=table.col_accesses,
            next_act=table.next_act,
            next_pre=table.next_pre,
            next_read=table.next_read,
            next_write=table.next_write,
            tCL=timing.tCL,
            tCWL=timing.tCWL,
            command_bus_free=dram._command_bus_free,
            data_bus_free=dram._data_bus_free,
            column_cap=self.config.column_cap,
            act_allowed_cycle=(
                mitigation.act_allowed_cycle if self._act_throttled else None
            ),
            active_banks=self._active_banks,
            pre_commands=self._pre_commands,
            ACT=CommandKind.ACT,
            PRE=CommandKind.PRE,
            RD=CommandKind.RD,
            WR=CommandKind.WR,
            WRITE=RequestType.WRITE,
        ) -> Tuple[Optional[Tuple[int, Command, Optional[MemoryRequest]]], int]:
            # ``valid_until`` starts as the earliest refresh deadline after
            # ``cycle``; the scheduler's next priority boundary is folded in
            # on return.
            valid_until = NEVER
            decision = None
            # Stage 1: periodic refresh (outranks everything).  The guard is
            # _refresh_command's own per-rank "due or owed" test; the helper
            # runs only when some rank trips it.
            if refresh_enabled:
                refresh_owed = False
                for rank_key in rank_keys:
                    due = next_refresh_due[rank_key]
                    if cycle >= due or extra_rank_refreshes[rank_key]:
                        refresh_owed = True
                    if cycle < due < valid_until:
                        valid_until = due
                if refresh_owed:
                    decision = refresh_command(cycle)
            # Stage 2: owed bank-scoped RFMs (DDR5 active refresh policies).
            if decision is None and refresh_policy_rfm:
                decision = self._rfm_command(cycle)
            # Stage 3: queued preventive refreshes (priority over demand).
            # On an empty queue _preventive_command is a no-op returning
            # None (nothing to prune, nothing to scan), so the truthiness
            # guard is exact.
            if decision is None and preventive_queue:
                decision = preventive_command(cycle)
            if decision is not None:
                if next_priority_boundary is not None:
                    boundary = next_priority_boundary(cycle)
                    if boundary < valid_until:
                        valid_until = boundary
                return decision, valid_until
            # Stage 4: demand, stalled by Alert Back-Off when asserted.
            scan_cycle = cycle
            if mitigation_blocks:
                blocked = demand_blocked_until(cycle)
                if blocked > cycle:
                    scan_cycle = blocked
            update_drain_mode()
            reads_active = bool(read_queue)
            writes_active = bool(write_queue) and (
                self._draining_writes or not read_queue
            )
            if before_demand_scan is not None and (reads_active or writes_active):
                before_demand_scan(scan_cycle)
            # Per-bank list rewrite for this select: None (FR-FCFS, or BLISS
            # with nobody demoted) scans the live lists as they are.
            narrow = demoted_last if demoted_cores else base_narrow

            # The best demand candidate so far: its issue cycle, then the
            # rest of its order (``tail``), built only on a tie or a win.
            best_issue = NEVER
            best_tail: Optional[tuple] = None
            best_kind: Optional[CommandKind] = None
            best_request: Optional[MemoryRequest] = None

            for record in active_banks.values():
                reads = record.reads if reads_active else None
                writes = record.writes if writes_active else None
                if writes is None:
                    if reads is None:
                        continue
                    pending = reads.requests
                elif reads is None:
                    pending = writes.requests
                else:
                    pending = record.merged
                    if pending is None:
                        pending = record.merged = _merge_pending(
                            reads.requests, writes.requests
                        )
                bank_index = record.index
                channel = record.channel
                bankgroup = record.bankgroup

                bus = command_bus_free[channel]
                issue = scan_cycle if scan_cycle > bus else bus
                row = open_rows[bank_index]
                if narrow is not None and len(pending) > 1:
                    pending = narrow(pending, row)
                if row is None:
                    # Closed bank: the oldest request wins and needs an ACT.
                    request = pending[0]
                    if next_act[bank_index] > issue:
                        issue = next_act[bank_index]
                    ready = record.act_ready
                    if ready[bankgroup] > issue:
                        issue = ready[bankgroup]
                    if ready[-1] > issue:
                        issue = ready[-1]
                    if act_allowed_cycle is not None:
                        allowed = act_allowed_cycle(request.address, issue)
                        if allowed > issue:
                            issue = allowed
                    kind = ACT
                else:
                    cap_reached = col_accesses[bank_index] >= column_cap
                    first_hit: Optional[MemoryRequest] = None
                    first_conflict: Optional[MemoryRequest] = None
                    # The row index answers "any pending hit?" without
                    # walking the list; when there is none (every selection
                    # under a hammering pattern) the oldest request is the
                    # conflict and the scan below is skipped entirely.
                    if reads is None:
                        has_hit = row in writes.row_counts
                    elif writes is None:
                        has_hit = row in reads.row_counts
                    else:
                        has_hit = row in reads.row_counts or row in writes.row_counts
                    if not has_hit:
                        first_conflict = pending[0]
                    else:
                        for request in pending:
                            if request.address.row == row:
                                if first_hit is None:
                                    first_hit = request
                                    if not cap_reached or first_conflict is not None:
                                        break
                            elif first_conflict is None:
                                first_conflict = request
                                if first_hit is not None:
                                    break
                    if first_hit is not None and not (
                        cap_reached and first_conflict is not None
                    ):
                        request = first_hit
                        is_write = request.request_type is WRITE
                        if is_write:
                            bank_ready = next_write[bank_index]
                            ready = record.write_ready
                            data_latency = tCWL
                        else:
                            bank_ready = next_read[bank_index]
                            ready = record.read_ready
                            data_latency = tCL
                        if bank_ready > issue:
                            issue = bank_ready
                        if ready[bankgroup] > issue:
                            issue = ready[bankgroup]
                        if ready[-1] > issue:
                            issue = ready[-1]
                        bus_free = data_bus_free[channel]
                        if issue + data_latency < bus_free:
                            issue = bus_free - data_latency
                        kind = WR if is_write else RD
                    elif first_conflict is None:
                        continue
                    else:
                        # Row conflict (or column cap reached): precharge on
                        # behalf of the oldest conflicting request.
                        request = first_conflict
                        if next_pre[bank_index] > issue:
                            issue = next_pre[bank_index]
                        kind = PRE

                if issue > best_issue:
                    continue
                scan_key = (1, writes.min_seq) if reads is None else (0, reads.min_seq)
                if demoted_cores is None:
                    tail = (request.arrival_cycle, scan_key)
                else:
                    tail = (
                        request.core_id in demoted_cores,
                        request.arrival_cycle,
                        scan_key,
                    )
                if issue == best_issue and best_tail is not None and tail >= best_tail:
                    continue
                best_issue = issue
                best_tail = tail
                best_kind = kind
                best_request = request

            best_command: Optional[Command] = None
            if row_policy_closes:
                best_order = None if best_tail is None else (best_issue, *best_tail)
                for bank_key, opened_cycle, not_before in (
                    self.row_policy.close_candidates(self, scan_cycle)
                ):
                    bank = self.dram.bank(*bank_key)
                    if bank.is_closed():
                        continue
                    command = Command(
                        PRE,
                        channel=bank_key[0],
                        rank=bank_key[1],
                        bankgroup=bank_key[2],
                        bank=bank_key[3],
                        metadata={"policy_close": True},
                    )
                    issue_cycle = self.dram.earliest_issue_cycle(
                        command, max(scan_cycle, not_before)
                    )
                    order = (
                        issue_cycle,
                        *scheduler.close_priority(opened_cycle),
                        (2, *bank_key),
                    )
                    if best_order is None or order < best_order:
                        best_order = order
                        best_command = command
                        best_request = None
                if best_command is not None:
                    best_issue = best_order[0]

            # After the scan: BLISS' ``before_demand_scan`` may have moved
            # its clearing deadline.
            if next_priority_boundary is not None:
                boundary = next_priority_boundary(cycle)
                if boundary < valid_until:
                    valid_until = boundary
            if best_command is None:
                if best_request is None:
                    return None, valid_until
                address = best_request.address
                if best_kind is ACT:
                    best_command = Command(
                        ACT,
                        address.channel,
                        address.rank,
                        address.bankgroup,
                        address.bank,
                        address.row,
                    )
                elif best_kind is PRE:
                    best_command = pre_commands.get(address.bank_key)
                    if best_command is None:
                        best_command = pre_commands[address.bank_key] = Command(
                            PRE,
                            address.channel,
                            address.rank,
                            address.bankgroup,
                            address.bank,
                        )
                else:
                    best_command = Command(
                        best_kind,
                        address.channel,
                        address.rank,
                        address.bankgroup,
                        address.bank,
                        None,
                        address.column,
                    )
            return (best_issue, best_command, best_request), valid_until

        return select

    def _update_drain_mode(self) -> None:
        if self._draining_writes:
            if len(self.write_queue) <= self.config.write_drain_low:
                self._draining_writes = False
        elif len(self.write_queue) >= self.config.write_drain_high:
            self._draining_writes = True

    # -- issue ---------------------------------------------------------------
    def _notify_slot_free(self) -> None:
        for callback in self._slot_free_callbacks:
            callback()

    def _build_issue(self):
        """Build :attr:`issue_decision`: the device update, then bookkeeping.

        One closure for all six command kinds.  It hands the command to
        :attr:`~repro.dram.dram_system.DRAMSystem.apply` — the device half:
        buses, bank and rank state, device statistics, observers — and then
        does the controller's half: retire the served request (a RD/WR
        sets its completion cycle, calls its ``on_complete`` and adds a
        read's latency to the statistics right here), advance the refresh
        schedule, count row hits, misses and conflicts, and call the policy
        hooks.  No-op hooks are resolved away here (FR-FCFS, FCFS and
        the open-page row policy observe nothing; BLISS keeps its
        ``on_issue`` streak tracking), and every construction-stable input
        is pre-bound as a positional default, as in :meth:`_build_select`.
        ``tests/test_fastpath_identity.py`` recounts the row statistics from
        the issued decisions.
        """
        scheduler = self.scheduler
        row_policy = self.row_policy

        def issue(
            decision,
            self=self,
            apply=self.dram.apply,
            dram_stats=self.dram.stats,
            ctl_stats=self.stats,
            per_core_read_latency=self.stats.per_core_read_latency,
            per_core_reads=self.stats.per_core_reads,
            on_act_hook=(
                row_policy.on_act
                if type(row_policy).on_act is not RowPolicy.on_act
                else None
            ),
            on_pre_hook=(
                row_policy.on_pre
                if type(row_policy).on_pre is not RowPolicy.on_pre
                else None
            ),
            on_issue_hook=(
                scheduler.on_issue
                if type(scheduler).on_issue is not SchedulingPolicy.on_issue
                else None
            ),
            on_rfm=self.refresh_policy.on_rfm,
            read_queue=self.read_queue,
            write_queue=self.write_queue,
            preventive_queue=self.preventive_queue,
            unindex_request=self._unindex_request,
            slot_free_callbacks=self._slot_free_callbacks,
            next_refresh_due=self.next_refresh_due,
            extra_rank_refreshes=self.extra_rank_refreshes,
            tREFI=self.dram_config.tREFI,
            PREVENTIVE_REFRESH=RequestType.PREVENTIVE_REFRESH,
            READ=RequestType.READ,
            WRITE=RequestType.WRITE,
            ACT=CommandKind.ACT,
            PRE=CommandKind.PRE,
            RD=CommandKind.RD,
            WR=CommandKind.WR,
            REF=CommandKind.REF,
        ) -> int:
            issue_cycle, command, request = decision
            self.mutations += 1
            self.current_cycle = issue_cycle
            result = apply(command, issue_cycle)
            kind = command.kind

            if kind is ACT:
                if on_act_hook is not None:
                    on_act_hook(
                        (command.channel, command.rank, command.bankgroup, command.bank),
                        issue_cycle,
                    )
                if request is not None:
                    if request.request_type is PREVENTIVE_REFRESH:
                        request.refresh_activated = True
                    else:
                        # A demand request whose row had to be opened: a miss.
                        ctl_stats.row_misses += 1
                if on_issue_hook is not None:
                    on_issue_hook(command, request, issue_cycle)

            elif kind is PRE:
                if on_pre_hook is not None:
                    on_pre_hook(
                        (command.channel, command.rank, command.bankgroup, command.bank)
                    )
                if request is None:
                    if command.metadata.get("policy_close"):
                        # The row policy closing an idle row.
                        ctl_stats.policy_precharges += 1
                elif request.request_type is not PREVENTIVE_REFRESH:
                    # A demand PRE: an open row lost to a conflicting request.
                    ctl_stats.row_conflicts += 1
                elif request.refresh_activated:
                    # The PRE closing a preventive refresh's victim row.
                    preventive_queue.remove(request)
                    request.complete(issue_cycle)
                    dram_stats.preventive_refresh_pairs += 1
                    for callback in slot_free_callbacks:
                        callback()
                if on_issue_hook is not None:
                    on_issue_hook(command, request, issue_cycle)

            elif kind is RD or kind is WR:
                if request is not None:
                    request.issue_cycle = issue_cycle
                    request_type = request.request_type
                    queue = write_queue if request_type is WRITE else read_queue
                    queue.remove(request)
                    unindex_request(request)
                    # The request completes when its data burst ends.
                    request.completion_cycle = result
                    on_complete = request.on_complete
                    if on_complete is not None:
                        on_complete(request, result)
                    if request_type is READ and not request.is_mitigation_traffic:
                        latency = result - request.arrival_cycle
                        ctl_stats.total_read_latency += latency
                        ctl_stats.completed_reads += 1
                        core_id = request.core_id
                        if core_id is not None:
                            per_core_read_latency[core_id] += latency
                            per_core_reads[core_id] += 1
                    # Served straight from the open row: a row-buffer hit.
                    ctl_stats.row_hits += 1
                    if on_issue_hook is not None:
                        on_issue_hook(command, request, issue_cycle)
                    for callback in slot_free_callbacks:
                        callback()

            elif kind is REF:
                rank_key = (command.channel, command.rank)
                if extra_rank_refreshes[rank_key] > 0:
                    extra_rank_refreshes[rank_key] -= 1
                else:
                    next_refresh_due[rank_key] += tREFI

            else:
                # RFM: the device already blocked the bank; the policy
                # performs the device's management action (victim refresh,
                # RAA payback).
                on_rfm(
                    issue_cycle,
                    (command.channel, command.rank, command.bankgroup, command.bank),
                )
            return issue_cycle

        return issue
