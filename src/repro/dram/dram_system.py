"""Rank- and channel-level DRAM device model.

:class:`DRAMSystem` owns every bank of every rank of every channel, enforces
the cross-bank constraints (tRRD, tFAW, tCCD, data-bus occupancy, read/write
turnaround, tRFC) and exposes three operations to the memory controller:

* :meth:`DRAMSystem.earliest_issue_cycle` — the first cycle at or after a
  given cycle at which a command would be legal;
* :attr:`DRAMSystem.apply` — apply a command, updating all state.  It is the
  only code that changes the device for a command, for all six kinds, and
  it does not check timing: the memory controller's select has already
  computed every earliest legal cycle, and the controller calls it
  directly;
* :meth:`DRAMSystem.issue` — the timing check, then :attr:`apply`, for
  callers that computed nothing (tests, tools).

The model also maintains the ground-truth row activation bookkeeping that the
security verifier and the RowHammer mitigations observe: observers can be
registered for row activations and for row refreshes (both periodic REF
coverage and preventive ACT-based refreshes).  A command observer
(:meth:`DRAMSystem.add_command_observer`) sees every command :attr:`apply`
applies, which is how the test suite's independent JEDEC oracle checks the
whole stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.dram.address import DRAMAddress
from repro.dram.bank import Bank, BankTimingTable, TimingViolation
from repro.dram.commands import Command, CommandKind
from repro.dram.config import DRAMConfig


ActivationObserver = Callable[[int, DRAMAddress, bool], None]
RefreshObserver = Callable[[int, Tuple[int, int], int, int], None]
RowRefreshObserver = Callable[[int, DRAMAddress], None]
CommandObserver = Callable[[int, Command], None]

#: Batched activation observers receive SoA columns of buffered ACT events:
#: ``observer(cycles, addresses, flags)`` with three equal-length sequences.
BatchActivationObserver = Callable[[List[int], List[DRAMAddress], List[bool]], None]

#: Flush the batched-ACT buffer once it holds this many events even if no
#: natural drain point (refresh boundary, snapshot, run end) arrives first —
#: bounds buffer memory and keeps batch sizes cache-friendly.
_BATCH_FLUSH_LIMIT = 256


@dataclass
class DRAMStatistics:
    """Global command counts, used by the energy model and reports.

    The fields below the fold are DDR5-era accounting inputs for the
    energy model: ``refresh_rows`` (rows covered by periodic REFs, so
    fine-granularity refresh is charged by coverage rather than per
    command), ``rfms`` (RFM commands), ``in_dram_refresh_rows`` (victim
    rows the device refreshed itself during RFM/ABO service) and
    ``counter_updates`` (PRAC per-row counter read-modify-writes).  They
    are deliberately *not* part of :meth:`as_dict` — the seven-key report
    shape is pinned by the golden records — but they snapshot/restore and
    aggregate across channels like every other field.
    """

    acts: int = 0
    pres: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    preventive_acts: int = 0
    preventive_refresh_pairs: int = 0
    refresh_rows: int = 0
    rfms: int = 0
    in_dram_refresh_rows: int = 0
    counter_updates: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "acts": self.acts,
            "pres": self.pres,
            "reads": self.reads,
            "writes": self.writes,
            "refreshes": self.refreshes,
            "preventive_acts": self.preventive_acts,
            "preventive_refresh_pairs": self.preventive_refresh_pairs,
        }


class Rank:
    """One DRAM rank: a set of banks plus rank-scoped timing state.

    ``table``/``index_base`` place this rank's banks in the DRAM system's
    shared :class:`~repro.dram.bank.BankTimingTable` (dense, contiguous
    slots); standalone construction creates a private table.
    """

    def __init__(
        self,
        config: DRAMConfig,
        channel: int,
        rank: int,
        table: Optional[BankTimingTable] = None,
        index_base: int = 0,
    ) -> None:
        self.config = config
        self.channel = channel
        self.rank = rank
        org = config.organization
        timing = config.timing
        num_banks = org.bankgroups_per_rank * org.banks_per_bankgroup
        if table is None:
            table = BankTimingTable(num_banks)
            index_base = 0
        self.table = table
        self._bank_indices = range(index_base, index_base + num_banks)
        self.banks: Dict[Tuple[int, int], Bank] = {}
        index = index_base
        for bankgroup in range(org.bankgroups_per_rank):
            for bank in range(org.banks_per_bankgroup):
                key = (bankgroup, bank)
                self.banks[key] = Bank(
                    timing,
                    org.rows_per_bank,
                    bank_key=(channel, rank, bankgroup, bank),
                    table=table,
                    index=index,
                )
                index += 1
        # Rank-level ACT constraints.
        self.last_act_cycle = -(10**9)
        self.last_act_bankgroup: Optional[int] = None
        self.recent_act_cycles: Deque[int] = deque(maxlen=4)
        # Column command constraints (per rank, bank-group aware).
        self.last_col_cycle = -(10**9)
        self.last_col_bankgroup: Optional[int] = None
        self.last_col_was_write = False
        #: End of the latest write burst in the rank, and per bank group:
        #: a read waits tWTR_S after every write and tWTR_L after every
        #: write to its own bank group, not only after the last column
        #: command.
        self.write_end = -(10**9)
        self.bankgroup_write_end: List[int] = [-(10**9)] * org.bankgroups_per_rank
        # Refresh state.
        self.blocked_until = 0
        self.refresh_row_pointer = 0

    # ------------------------------------------------------------------ #
    # Constraint queries
    # ------------------------------------------------------------------ #
    def earliest_act(self, cycle: int, bankgroup: int, bank: int) -> int:
        timing = self.config.timing
        target = self.banks[(bankgroup, bank)]
        earliest = max(cycle, target.earliest_activate(), self.blocked_until)
        if self.last_act_bankgroup is not None:
            rrd = (
                timing.tRRD_L
                if bankgroup == self.last_act_bankgroup
                else timing.tRRD_S
            )
            earliest = max(earliest, self.last_act_cycle + rrd)
        if len(self.recent_act_cycles) == self.recent_act_cycles.maxlen:
            earliest = max(earliest, self.recent_act_cycles[0] + timing.tFAW)
        return earliest

    def earliest_pre(self, cycle: int, bankgroup: int, bank: int) -> int:
        target = self.banks[(bankgroup, bank)]
        return max(cycle, target.earliest_precharge(), self.blocked_until)

    def earliest_column(
        self, cycle: int, bankgroup: int, bank: int, is_write: bool
    ) -> int:
        timing = self.config.timing
        target = self.banks[(bankgroup, bank)]
        earliest = max(cycle, target.earliest_column(is_write), self.blocked_until)
        if self.last_col_bankgroup is not None:
            ccd = (
                timing.tCCD_L
                if bankgroup == self.last_col_bankgroup
                else timing.tCCD_S
            )
            earliest = max(earliest, self.last_col_cycle + ccd)
            if is_write:
                if not self.last_col_was_write:
                    earliest = max(earliest, self.last_col_cycle + timing.tRTW)
            else:
                earliest = max(
                    earliest,
                    self.write_end + timing.tWTR_S,
                    self.bankgroup_write_end[bankgroup] + timing.tWTR_L,
                )
        return earliest

    def earliest_refresh(self, cycle: int) -> int:
        """A REF may issue once every bank is precharged and tRP has elapsed."""
        earliest = max(cycle, self.blocked_until)
        table = self.table
        tRP = self.config.timing.tRP
        for i in self._bank_indices:
            if table.open_row[i] is not None:
                # The controller must precharge first; report the earliest
                # cycle the bank could be closed and reopened for REF.
                candidate = table.next_pre[i] + tRP
            else:
                candidate = table.next_act[i]
            if candidate > earliest:
                earliest = candidate
        return earliest

    def all_banks_closed(self) -> bool:
        table = self.table
        return all(table.open_row[i] is None for i in self._bank_indices)

    # ------------------------------------------------------------------ #
    # Command application
    # ------------------------------------------------------------------ #
    def apply_act(self, cycle: int, bankgroup: int, bank: int, row: int, preventive: bool) -> None:
        self.banks[(bankgroup, bank)].activate(cycle, row, preventive=preventive)
        self.last_act_cycle = cycle
        self.last_act_bankgroup = bankgroup
        self.recent_act_cycles.append(cycle)

    def apply_pre(self, cycle: int, bankgroup: int, bank: int) -> None:
        self.banks[(bankgroup, bank)].precharge(cycle)

    def apply_column(
        self, cycle: int, bankgroup: int, bank: int, row: int, is_write: bool
    ) -> int:
        target = self.banks[(bankgroup, bank)]
        data_end = target.write(cycle, row) if is_write else target.read(cycle, row)
        self.last_col_cycle = cycle
        self.last_col_bankgroup = bankgroup
        self.last_col_was_write = is_write
        if is_write:
            self.write_end = data_end
            self.bankgroup_write_end[bankgroup] = data_end
        return data_end

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict:
        """Plain-data checkpoint of the rank-scoped state plus its banks."""
        return {
            "last_act_cycle": self.last_act_cycle,
            "last_act_bankgroup": self.last_act_bankgroup,
            "recent_act_cycles": list(self.recent_act_cycles),
            "last_col_cycle": self.last_col_cycle,
            "last_col_bankgroup": self.last_col_bankgroup,
            "last_col_was_write": self.last_col_was_write,
            "write_end": self.write_end,
            "bankgroup_write_end": list(self.bankgroup_write_end),
            "blocked_until": self.blocked_until,
            "refresh_row_pointer": self.refresh_row_pointer,
            "banks": {key: bank.snapshot() for key, bank in self.banks.items()},
        }

    def restore(self, state: Dict) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        self.last_act_cycle = state["last_act_cycle"]
        self.last_act_bankgroup = state["last_act_bankgroup"]
        self.recent_act_cycles.clear()
        self.recent_act_cycles.extend(state["recent_act_cycles"])
        self.last_col_cycle = state["last_col_cycle"]
        self.last_col_bankgroup = state["last_col_bankgroup"]
        self.last_col_was_write = state["last_col_was_write"]
        self.write_end = state["write_end"]
        self.bankgroup_write_end[:] = state["bankgroup_write_end"]
        self.blocked_until = state["blocked_until"]
        self.refresh_row_pointer = state["refresh_row_pointer"]
        for key, bank_state in state["banks"].items():
            self.banks[tuple(key)].restore(bank_state)

    def apply_refresh(self, cycle: int) -> Tuple[int, int]:
        """Apply a rank-level REF; returns the (start_row, row_count) refreshed.

        Every bank of the rank refreshes ``rows_per_refresh`` consecutive rows
        starting at the rank's refresh pointer, and the whole rank is blocked
        for tRFC.
        """
        if not self.all_banks_closed():
            raise TimingViolation(
                f"REF issued to rank {self.rank} with open banks at cycle {cycle}"
            )
        timing = self.config.timing
        until = cycle + timing.tRFC
        self.blocked_until = max(self.blocked_until, until)
        for bank in self.banks.values():
            bank.refresh_block(cycle, until)
        rows_per_refresh = self.config.rows_per_refresh
        start_row = self.refresh_row_pointer
        self.refresh_row_pointer = (
            self.refresh_row_pointer + rows_per_refresh
        ) % self.config.organization.rows_per_bank
        return start_row, rows_per_refresh

    def earliest_rfm(self, cycle: int, bankgroup: int, bank: int) -> int:
        """An RFM may issue to a bank once that bank is precharged."""
        earliest = max(cycle, self.blocked_until)
        target = self.banks[(bankgroup, bank)]
        table, i = self.table, target.index
        if table.open_row[i] is not None:
            # The controller must precharge first; report the earliest
            # cycle the closed bank could accept the RFM.
            return max(earliest, table.next_pre[i] + self.config.timing.tRP)
        return max(earliest, table.next_act[i])

    def apply_rfm(self, cycle: int, bankgroup: int, bank: int, trfm: int) -> None:
        """Apply a bank-scoped RFM: the bank is busy refreshing for tRFM."""
        self.banks[(bankgroup, bank)].refresh_block(cycle, cycle + trfm)


class DRAMSystem:
    """The DRAM device model behind one memory controller.

    By default the model owns every channel of the organization (the
    monolithic single-controller layout).  A channel-partitioned fabric
    instead builds one :class:`DRAMSystem` per channel by passing
    ``channel``: the model then owns only that channel's ranks and buses,
    while addresses keep their true (globally unique) channel coordinate.
    There are no cross-channel timing constraints in DDR4 — each channel has
    its own command/data bus and rank set — so the partition is exact.
    """

    def __init__(self, config: DRAMConfig, channel: Optional[int] = None) -> None:
        self.config = config
        org = config.organization
        if channel is not None and not 0 <= channel < org.channels:
            raise ValueError(
                f"channel {channel} out of range for {org.channels}-channel organization"
            )
        self.channel = channel
        channels = range(org.channels) if channel is None else (channel,)
        # One shared struct-of-arrays timing table covering every bank this
        # system owns; ranks claim contiguous slot ranges in (channel, rank,
        # bankgroup, bank) order.  The controller's demand scan reads
        # these arrays directly (see MemoryController._build_select).
        banks_per_rank = org.bankgroups_per_rank * org.banks_per_bankgroup
        num_channels = org.channels if channel is None else 1
        self.timing_table = BankTimingTable(
            num_channels * org.ranks_per_channel * banks_per_rank
        )
        self.ranks: Dict[Tuple[int, int], Rank] = {}
        index_base = 0
        for ch in channels:
            for rank in range(org.ranks_per_channel):
                self.ranks[(ch, rank)] = Rank(
                    config, ch, rank, table=self.timing_table, index_base=index_base
                )
                index_base += banks_per_rank
        # One data bus and one command bus per channel.
        self._data_bus_free: Dict[int, int] = {ch: 0 for ch in channels}
        self._command_bus_free: Dict[int, int] = {ch: 0 for ch in channels}
        self.stats = DRAMStatistics()
        self._activation_observers: List[ActivationObserver] = []
        self._refresh_observers: List[RefreshObserver] = []
        self._row_refresh_observers: List[RowRefreshObserver] = []
        # Batched ACT delivery: pure observers (the streaming security
        # verifier) register here instead and receive SoA columns at drain
        # points.  Event order is preserved — the buffers are flushed before
        # any refresh notification is delivered, so increments and
        # deletions interleave exactly as in per-event delivery.
        self._batch_act_observers: List[BatchActivationObserver] = []
        self._batch_cycles: List[int] = []
        self._batch_addresses: List[DRAMAddress] = []
        self._batch_flags: List[bool] = []
        #: Called with every issued command; :attr:`apply` binds this list
        #: at build time, so it is only ever appended to.
        self._command_observers: List[CommandObserver] = []
        self.current_cycle = 0
        #: ``apply(command, cycle)``: THE device update, for every command
        #: kind, with no timing check — the caller vouches that ``cycle`` is
        #: legal (:meth:`issue` checks first).  Returns the data-completion
        #: cycle for RD/WR, the end of the refresh block for REF/RFM and
        #: ``None`` for ACT/PRE.  Built last: it binds the state above.
        self.apply = self._build_apply()

    # ------------------------------------------------------------------ #
    # Observer registration
    # ------------------------------------------------------------------ #
    def add_activation_observer(self, observer: ActivationObserver) -> None:
        """Observer called as ``observer(cycle, DRAMAddress, is_preventive)`` on each ACT."""
        self._activation_observers.append(observer)

    def add_refresh_observer(self, observer: RefreshObserver) -> None:
        """Observer called as ``observer(cycle, (channel, rank), start_row, count)`` on each REF."""
        self._refresh_observers.append(observer)

    def add_command_observer(self, observer: CommandObserver) -> None:
        """Observer called as ``observer(cycle, Command)`` for every issued command.

        Fired once per command, in issue order, by :attr:`apply` before it
        changes any state.  For checkers and recorders of the command stream
        (the test suite's JEDEC timing oracle); an observer must not feed
        back into the device or the controller.
        """
        self._command_observers.append(observer)

    def add_row_refresh_observer(self, observer: RowRefreshObserver) -> None:
        """Observer called as ``observer(cycle, DRAMAddress)`` whenever a single row is refreshed.

        Fired for preventive refreshes (the ACT to a victim row refreshes that
        row) and for DRAM-internal refreshes performed by mechanisms such as
        REGA (which calls :meth:`notify_row_refresh` directly).
        """
        self._row_refresh_observers.append(observer)

    def add_batch_activation_observer(self, observer: BatchActivationObserver) -> None:
        """Observer called as ``observer(cycles, addresses, flags)`` at drain points.

        The three arguments are equal-length lists (SoA columns) of the ACT
        events buffered since the previous flush, in issue order.  Batched
        delivery is for *pure* observers only — anything that feeds back into
        the command stream (scheduling preventive refreshes, throttling)
        must use :meth:`add_activation_observer`, which stays synchronous.
        Drain points: refresh notifications (REF, RFM victim sweeps,
        preventive ACTs via :meth:`notify_row_refresh`), :meth:`snapshot`,
        explicit :meth:`flush_activations` calls (the simulation flushes at
        window end), and the ``_BATCH_FLUSH_LIMIT`` size cap.
        """
        self._batch_act_observers.append(observer)

    def flush_activations(self) -> None:
        """Deliver buffered ACT events to the batched observers, in order."""
        if not self._batch_cycles:
            return
        cycles = self._batch_cycles
        addresses = self._batch_addresses
        flags = self._batch_flags
        self._batch_cycles = []
        self._batch_addresses = []
        self._batch_flags = []
        for observer in self._batch_act_observers:
            observer(cycles, addresses, flags)

    def notify_row_refresh(self, cycle: int, address: DRAMAddress) -> None:
        """Report that ``address``'s row was refreshed by an in-DRAM mechanism."""
        # Row refreshes reset disturbance state downstream; buffered ACT
        # increments must land first to preserve per-event ordering.
        if self._batch_cycles:
            self.flush_activations()
        for observer in self._row_refresh_observers:
            observer(cycle, address)

    def deliver_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        """Deliver one ACT event: buffer for batched observers, call the rest.

        The single delivery point shared by :attr:`apply` and the sampled
        fidelity's functional fast-forward (which reconstructs ACTs without
        issuing commands) — any path that synthesizes activation events must
        go through here so batched observers see the same stream as
        per-event ones.
        """
        if self._batch_act_observers:
            self._batch_cycles.append(cycle)
            self._batch_addresses.append(address)
            self._batch_flags.append(is_preventive)
            if len(self._batch_cycles) >= _BATCH_FLUSH_LIMIT:
                self.flush_activations()
        for observer in self._activation_observers:
            observer(cycle, address, is_preventive)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def rank(self, channel: int, rank: int) -> Rank:
        return self.ranks[(channel, rank)]

    def bank(self, channel: int, rank: int, bankgroup: int, bank: int) -> Bank:
        return self.ranks[(channel, rank)].banks[(bankgroup, bank)]

    def bank_for(self, address: DRAMAddress) -> Bank:
        return self.bank(address.channel, address.rank, address.bankgroup, address.bank)

    def iter_banks(self):
        for rank in self.ranks.values():
            for bank in rank.banks.values():
                yield bank

    # ------------------------------------------------------------------ #
    # Timing queries
    # ------------------------------------------------------------------ #
    def earliest_issue_cycle(self, command: Command, cycle: int) -> int:
        """First cycle >= ``cycle`` at which ``command`` satisfies all constraints."""
        rank = self.ranks[(command.channel, command.rank)]
        earliest = max(cycle, self._command_bus_free[command.channel])
        if command.kind is CommandKind.ACT:
            return max(
                earliest, rank.earliest_act(cycle, command.bankgroup, command.bank)
            )
        if command.kind is CommandKind.PRE:
            return max(
                earliest, rank.earliest_pre(cycle, command.bankgroup, command.bank)
            )
        if command.kind in (CommandKind.RD, CommandKind.WR):
            is_write = command.kind is CommandKind.WR
            earliest = max(
                earliest,
                rank.earliest_column(cycle, command.bankgroup, command.bank, is_write),
            )
            # The data burst must also find the channel data bus free.
            timing = self.config.timing
            data_latency = timing.tCWL if is_write else timing.tCL
            data_start = earliest + data_latency
            bus_free = self._data_bus_free[command.channel]
            if data_start < bus_free:
                earliest += bus_free - data_start
            return earliest
        if command.kind is CommandKind.REF:
            return max(earliest, rank.earliest_refresh(cycle))
        if command.kind is CommandKind.RFM:
            return max(
                earliest, rank.earliest_rfm(cycle, command.bankgroup, command.bank)
            )
        raise ValueError(f"unknown command kind {command.kind}")

    def can_issue(self, command: Command, cycle: int) -> bool:
        return self.earliest_issue_cycle(command, cycle) <= cycle

    # ------------------------------------------------------------------ #
    # Command application
    # ------------------------------------------------------------------ #
    def issue(self, command: Command, cycle: int) -> Optional[int]:
        """Check ``command``'s timing at ``cycle``, then :attr:`apply` it.

        Raises :class:`~repro.dram.bank.TimingViolation` when the command is
        early.  For callers that have not computed the earliest legal cycle
        themselves (tests, tools); the memory controller's select has, so
        its issue calls :attr:`apply` directly.
        """
        earliest = self.earliest_issue_cycle(command, cycle)
        if earliest > cycle:
            raise TimingViolation(
                f"{command.describe()} issued at cycle {cycle}, "
                f"earliest legal cycle is {earliest}"
            )
        return self.apply(command, cycle)

    def _build_apply(self) -> Callable[[Command, int], Optional[int]]:
        """Build :attr:`apply` with every construction-stable input pre-bound.

        Positional defaults, as in the controller's select: the rank dict,
        the bus dicts, the statistics and the observer lists are mutated in
        place for the system's lifetime (see :meth:`restore`).  The ACT-event
        :class:`DRAMAddress` is memoized per row, since hammering workloads
        re-activate the same rows by construction.
        """

        def apply(
            command: Command,
            cycle: int,
            self=self,
            ranks=self.ranks,
            stats=self.stats,
            command_bus_free=self._command_bus_free,
            data_bus_free=self._data_bus_free,
            command_observers=self._command_observers,
            refresh_observers=self._refresh_observers,
            deliver_activation=self.deliver_activation,
            notify_row_refresh=self.notify_row_refresh,
            tRFC=self.config.timing.tRFC,
            act_addresses={},
            act_memo_limit=1 << 20,
            ACT=CommandKind.ACT,
            PRE=CommandKind.PRE,
            RD=CommandKind.RD,
            WR=CommandKind.WR,
            REF=CommandKind.REF,
            RFM=CommandKind.RFM,
        ) -> Optional[int]:
            if command_observers:
                for observer in command_observers:
                    observer(cycle, command)
            channel = command.channel
            rank_id = command.rank
            rank = ranks[(channel, rank_id)]
            if cycle > self.current_cycle:
                self.current_cycle = cycle
            command_bus_free[channel] = cycle + 1
            kind = command.kind

            if kind is ACT:
                bankgroup = command.bankgroup
                bank = command.bank
                row = command.row
                preventive = command.is_preventive
                rank.apply_act(cycle, bankgroup, bank, row, preventive)
                stats.acts += 1
                if preventive:
                    stats.preventive_acts += 1
                row_key = (channel, rank_id, bankgroup, bank, row)
                address = act_addresses.get(row_key)
                if address is None:
                    address = DRAMAddress(
                        channel=channel,
                        rank=rank_id,
                        bankgroup=bankgroup,
                        bank=bank,
                        row=row,
                        column=0,
                    )
                    if len(act_addresses) < act_memo_limit:
                        act_addresses[row_key] = address
                deliver_activation(cycle, address, preventive)
                if preventive:
                    # A preventive ACT refreshes the activated (victim) row
                    # itself; notify_row_refresh drains the batch buffer first.
                    notify_row_refresh(cycle, address)
                return None

            if kind is PRE:
                rank.apply_pre(cycle, command.bankgroup, command.bank)
                stats.pres += 1
                return None

            if kind is RD or kind is WR:
                bankgroup = command.bankgroup
                bank = command.bank
                is_write = kind is WR
                data_end = rank.apply_column(
                    cycle, bankgroup, bank,
                    rank.banks[(bankgroup, bank)].open_row, is_write,
                )
                data_bus_free[channel] = data_end
                if is_write:
                    stats.writes += 1
                else:
                    stats.reads += 1
                return data_end

            if kind is REF:
                start_row, count = rank.apply_refresh(cycle)
                stats.refreshes += 1
                stats.refresh_rows += count
                # REF deletes disturbance state downstream; drain buffered
                # ACT increments first so batch delivery preserves event
                # order.
                if self._batch_cycles:
                    self.flush_activations()
                for observer in refresh_observers:
                    observer(cycle, (channel, rank_id), start_row, count)
                return cycle + tRFC

            if kind is RFM:
                trfm = command.metadata.get("trfm", tRFC)
                rank.apply_rfm(cycle, command.bankgroup, command.bank, trfm)
                stats.rfms += 1
                return cycle + trfm

            raise ValueError(f"unknown command kind {kind}")

        return apply

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict:
        """Plain-data checkpoint: every rank (with its banks), the per-channel
        bus state and the global statistics.  Observers are wiring, not
        state, and are not captured; buffered batch events are drained first
        so a restored system never replays them."""
        self.flush_activations()
        return {
            "ranks": {key: rank.snapshot() for key, rank in self.ranks.items()},
            "data_bus_free": dict(self._data_bus_free),
            "command_bus_free": dict(self._command_bus_free),
            "stats": dict(vars(self.stats)),
            "current_cycle": self.current_cycle,
        }

    def restore(self, state: Dict) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        self._batch_cycles = []
        self._batch_addresses = []
        self._batch_flags = []
        for key, rank_state in state["ranks"].items():
            self.ranks[tuple(key)].restore(rank_state)
        # In-place updates: apply and the controller's demand scan bind
        # these dicts once at construction, so the objects must stay
        # identical.
        self._data_bus_free.update(state["data_bus_free"])
        self._command_bus_free.update(state["command_bus_free"])
        for key, value in state["stats"].items():
            setattr(self.stats, key, value)
        self.current_cycle = state["current_cycle"]

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    def total_activations(self) -> int:
        return self.stats.acts

    def row_activation_counts(self) -> Dict[Tuple[int, int, int, int, int], int]:
        """Ground-truth activation count per row (for analysis and verification)."""
        counts: Dict[Tuple[int, int, int, int, int], int] = {}
        for (channel, rank_id), rank in self.ranks.items():
            for (bankgroup, bank_id), bank in rank.banks.items():
                for row, count in bank.activation_counts.items():
                    counts[(channel, rank_id, bankgroup, bank_id, row)] = count
        return counts
