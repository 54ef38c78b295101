"""Rank- and channel-level DRAM device model.

:class:`DRAMSystem` owns every bank of every rank of every channel, enforces
the cross-bank constraints (tRRD, tFAW, tCCD, data-bus occupancy, read/write
turnaround, tRFC) and exposes two operations to the memory controller:

* :meth:`DRAMSystem.earliest_issue_cycle` — the first cycle at or after a
  given cycle at which a command would be legal;
* :attr:`DRAMSystem.apply` — apply a command, updating all state.  It is the
  only code that changes the device for a command, for all six kinds.  It
  raises :class:`~repro.dram.bank.TimingViolation` when a command breaks a
  bank's state or bank-scoped timing (an ACT to an open bank or before
  tRC/tRP, a PRE to a closed bank or before tRAS/tRTP/tWR, a RD/WR to a
  closed bank or before tRCD, a REF with a bank open), but it does not
  check the rank rules or the buses: the caller has already computed the
  earliest legal cycle (the memory controller's select, or
  :meth:`earliest_issue_cycle`).

There is one timing model.  Bank-scoped rules live in the banks' shared
:class:`~repro.dram.bank.BankTimingTable`; rank-scoped rules are pushed at
issue time, by :attr:`DRAMSystem.apply`, into the per-bank-group ready
lists of :class:`Rank`; each channel's command and data bus is one
"free from" cycle.  The controller's select reads the same table, lists
and bus cycles.

The model also maintains the ground-truth row activation bookkeeping that the
security verifier and the RowHammer mitigations observe: observers can be
registered for row activations and for row refreshes (both periodic REF
coverage and preventive ACT-based refreshes).  Every ACT reaches every
activation observer through one call each, audit observers (the verifier)
first, so the verifier counts an ACT before any row refresh a mitigation
performs inside its own ACT callback.  A command observer
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
    shape is pinned by the golden records — but they aggregate across
    channels like every other field.
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
    """One DRAM rank: a set of banks plus the rank-scoped timing rules.

    ``table``/``index_base`` place this rank's banks in the DRAM system's
    shared :class:`~repro.dram.bank.BankTimingTable` (dense, contiguous
    slots).

    The rank rules are pushed at issue time, not re-derived per query:
    :attr:`DRAMSystem.apply` raises three per-bank-group lists of earliest
    cycles on every ACT and column command, so each rule is one lookup for
    every reader (:meth:`earliest_act`, :meth:`earliest_column` and the
    memory controller's select):

    * ``act_ready[bg]`` — tRRD_L/tRRD_S after every ACT (same/other bank
      group) and, once four ACTs are recorded, the fourth-last ACT + tFAW;
    * ``read_ready[bg]`` — tCCD_L/tCCD_S after every column command, and
      tWTR_L/tWTR_S after the end of every write burst;
    * ``write_ready[bg]`` — tCCD_L/tCCD_S after every column command, and
      tRTW after every read.

    The lists never touch REF or RFM, which read the banks' ``next_act``
    only.  tRFC needs no rank state: a REF raises every bank's
    ``next_act`` past it (:meth:`~repro.dram.bank.Bank.refresh_block`) and
    leaves every bank closed, so nothing reaches a bank before tRFC ends.
    """

    def __init__(
        self,
        config: DRAMConfig,
        channel: int,
        rank: int,
        table: BankTimingTable,
        index_base: int,
    ) -> None:
        self.config = config
        self.timing = config.timing
        self.channel = channel
        self.rank = rank
        org = config.organization
        num_banks = org.bankgroups_per_rank * org.banks_per_bankgroup
        self.table = table
        self._bank_indices = range(index_base, index_base + num_banks)
        self.banks: Dict[Tuple[int, int], Bank] = {}
        index = index_base
        for bankgroup in range(org.bankgroups_per_rank):
            for bank in range(org.banks_per_bankgroup):
                key = (bankgroup, bank)
                self.banks[key] = Bank((channel, rank, bankgroup, bank), table, index)
                index += 1
        # Earliest cycles per bank group, raised by every ACT and column
        # command.  Mutated in place only: DRAMSystem.apply and the
        # controller's select bind these lists.
        self.act_ready: List[int] = [0] * org.bankgroups_per_rank
        self.read_ready: List[int] = [0] * org.bankgroups_per_rank
        self.write_ready: List[int] = [0] * org.bankgroups_per_rank
        #: The last four ACTs, for tFAW.
        self.recent_act_cycles: Deque[int] = deque(maxlen=4)
        self.refresh_row_pointer = 0

    # ------------------------------------------------------------------ #
    # Constraint queries
    # ------------------------------------------------------------------ #
    def earliest_act(self, cycle: int, bankgroup: int, bank: int) -> int:
        i = self.banks[(bankgroup, bank)].index
        return max(cycle, self.table.next_act[i], self.act_ready[bankgroup])

    def earliest_pre(self, cycle: int, bankgroup: int, bank: int) -> int:
        return max(cycle, self.table.next_pre[self.banks[(bankgroup, bank)].index])

    def earliest_column(
        self, cycle: int, bankgroup: int, bank: int, is_write: bool
    ) -> int:
        i = self.banks[(bankgroup, bank)].index
        if is_write:
            return max(cycle, self.table.next_write[i], self.write_ready[bankgroup])
        return max(cycle, self.table.next_read[i], self.read_ready[bankgroup])

    def earliest_refresh(self, cycle: int) -> int:
        """A REF may issue once every bank is precharged and tRP has elapsed."""
        earliest = cycle
        table = self.table
        tRP = self.timing.tRP
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
        until = cycle + self.timing.tRFC
        for bank in self.banks.values():
            bank.refresh_block(cycle, until)
        return self.advance_refresh_pointer()

    def advance_refresh_pointer(self) -> Tuple[int, int]:
        """Move the refresh pointer past one REF's rows; returns the
        ``(start_row, row_count)`` that REF covers.

        The pointer wraps at ``rows_per_bank``.  :meth:`apply_refresh` and
        the sampled fidelity's functional REFs both advance it here.
        """
        rows_per_refresh = self.config.rows_per_refresh
        start_row = self.refresh_row_pointer
        self.refresh_row_pointer = (
            start_row + rows_per_refresh
        ) % self.config.organization.rows_per_bank
        return start_row, rows_per_refresh

    def earliest_rfm(self, cycle: int, bankgroup: int, bank: int) -> int:
        """An RFM may issue to a bank once that bank is precharged."""
        table, i = self.table, self.banks[(bankgroup, bank)].index
        if table.open_row[i] is not None:
            # The controller must precharge first; report the earliest
            # cycle the closed bank could accept the RFM.
            return max(cycle, table.next_pre[i] + self.timing.tRP)
        return max(cycle, table.next_act[i])

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
        #: Called in order on every ACT: the audit observers first, then
        #: every other one in registration order.
        self._activation_observers: List[ActivationObserver] = []
        #: How many leading entries of ``_activation_observers`` are audit
        #: observers (see :meth:`add_audit_activation_observer`).
        self._audit_observers = 0
        self._refresh_observers: List[RefreshObserver] = []
        self._row_refresh_observers: List[RowRefreshObserver] = []
        #: Called with every issued command; :attr:`apply` binds this list
        #: at build time, so it is only ever appended to.
        self._command_observers: List[CommandObserver] = []
        self.current_cycle = 0
        #: ``apply(command, cycle)``: THE device update, for every command
        #: kind.  It raises :class:`~repro.dram.bank.TimingViolation` on every
        #: bank-state and bank-timing violation, and ``ValueError`` for an
        #: ACT row out of range; the rank rules and the buses are the
        #: caller's to respect (see :meth:`earliest_issue_cycle`).  Returns
        #: the data-completion cycle for RD/WR, the end of the refresh block
        #: for REF/RFM and ``None`` for ACT/PRE.  Built last: it binds the
        #: state above.
        self.apply = self._build_apply()

    # ------------------------------------------------------------------ #
    # Observer registration
    # ------------------------------------------------------------------ #
    def add_activation_observer(self, observer: ActivationObserver) -> None:
        """Observer called as ``observer(cycle, DRAMAddress, is_preventive)`` on each ACT.

        Observers run in registration order, after every audit observer.
        """
        self._activation_observers.append(observer)

    def add_audit_activation_observer(self, observer: ActivationObserver) -> None:
        """Like :meth:`add_activation_observer`, but ``observer`` runs first.

        Audit observers (the security verifier) run in their own
        registration order ahead of every observer added with
        :meth:`add_activation_observer`, whenever either was registered.  A
        mitigation observer may refresh rows inside its ACT callback (PRAC's
        alert, REGA), so an audit observer registered this way counts every
        ACT before any row refresh the same ACT triggers.  It must not feed
        back into the device or the controller.
        """
        self._activation_observers.insert(self._audit_observers, observer)
        self._audit_observers += 1

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

    def notify_row_refresh(self, cycle: int, address: DRAMAddress) -> None:
        """Report that ``address``'s row was refreshed by an in-DRAM mechanism."""
        for observer in self._row_refresh_observers:
            observer(cycle, address)

    def deliver_refresh(
        self, cycle: int, rank_key: Tuple[int, int], start_row: int, count: int
    ) -> None:
        """Count one REF of ``count`` rows from ``start_row`` on ``rank_key``
        and call every refresh observer on it.

        Shared by :attr:`apply`'s REF branch and the sampled fidelity's
        functional REFs, so both report the same statistics and events.
        """
        stats = self.stats
        stats.refreshes += 1
        stats.refresh_rows += count
        for observer in self._refresh_observers:
            observer(cycle, rank_key, start_row, count)

    def deliver_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        """Call every activation observer, audit observers first, on one ACT.

        The single delivery point shared by :attr:`apply` and the sampled
        fidelity's functional fast-forward (which reconstructs ACTs without
        issuing commands): any path that synthesizes activation events must
        go through here so every observer sees the same stream.
        """
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

    # ------------------------------------------------------------------ #
    # Command application
    # ------------------------------------------------------------------ #
    def _build_apply(self) -> Callable[[Command, int], Optional[int]]:
        """Build :attr:`apply` with every construction-stable input pre-bound.

        One flat closure for all six command kinds.  ACT, PRE, RD and WR
        check the bank-scoped rules and write the shared
        :class:`~repro.dram.bank.BankTimingTable` slots and the rank's
        ``act_ready``/``read_ready``/``write_ready`` lists here, with no
        ``Rank``/``Bank`` method in between; REF and RFM go through
        :meth:`Rank.apply_refresh` and :meth:`Rank.apply_rfm`.  Positional
        defaults, as in the controller's select: the slot map, the table
        lists, the ready lists, the bus dicts, the statistics and the
        observer lists are created once at construction and only ever
        mutated in place, and the timing constants never change.  The
        ACT-event :class:`DRAMAddress` is memoized per row, since hammering
        workloads re-activate the same rows by construction.
        """
        table = self.timing_table
        timing = self.config.timing
        # (channel, rank, bankgroup, bank) -> the bank's table slot and its
        # rank's per-bank-group ready lists and tFAW window.
        slots = {
            (rank.channel, rank.rank, bankgroup, bank): (
                view.index,
                rank.act_ready,
                rank.read_ready,
                rank.write_ready,
                rank.recent_act_cycles,
            )
            for rank in self.ranks.values()
            for (bankgroup, bank), view in rank.banks.items()
        }

        def apply(
            command: Command,
            cycle: int,
            self=self,
            slots=slots,
            ranks=self.ranks,
            stats=self.stats,
            command_bus_free=self._command_bus_free,
            data_bus_free=self._data_bus_free,
            command_observers=self._command_observers,
            deliver_refresh=self.deliver_refresh,
            deliver_activation=self.deliver_activation,
            notify_row_refresh=self.notify_row_refresh,
            open_rows=table.open_row,
            col_accesses=table.col_accesses,
            next_act=table.next_act,
            next_pre=table.next_pre,
            next_read=table.next_read,
            next_write=table.next_write,
            rows=self.config.organization.rows_per_bank,
            tRCD=timing.tRCD,
            tRAS=timing.tRAS,
            tRC=timing.tRC,
            tRP=timing.tRP,
            tRTP=timing.tRTP,
            tWR=timing.tWR,
            tRRD_L=timing.tRRD_L,
            tRRD_S=timing.tRRD_S,
            tFAW=timing.tFAW,
            tCCD_L=timing.tCCD_L,
            tCCD_S=timing.tCCD_S,
            tWTR_L=timing.tWTR_L,
            tWTR_S=timing.tWTR_S,
            tRTW=timing.tRTW,
            read_data=timing.tCL + timing.tBURST,
            write_data=timing.tCWL + timing.tBURST,
            tRFC=timing.tRFC,
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
            if cycle > self.current_cycle:
                self.current_cycle = cycle
            command_bus_free[channel] = cycle + 1
            kind = command.kind

            if kind is ACT:
                bankgroup = command.bankgroup
                bank = command.bank
                row = command.row
                preventive = command.is_preventive
                i, act_ready, _, _, recent = slots[(channel, rank_id, bankgroup, bank)]
                if open_rows[i] is not None or cycle < next_act[i]:
                    state = "closed" if open_rows[i] is None else "open"
                    raise TimingViolation(
                        f"ACT to bank {(channel, rank_id, bankgroup, bank)} row {row} "
                        f"at cycle {cycle}: bank state={state}, next_act={next_act[i]}"
                    )
                if not 0 <= row < rows:
                    raise ValueError(f"row {row} out of range for bank with {rows} rows")
                open_rows[i] = row
                col_accesses[i] = 0
                ready = cycle + tRCD
                if ready > next_read[i]:
                    next_read[i] = ready
                if ready > next_write[i]:
                    next_write[i] = ready
                ready = cycle + tRAS
                if ready > next_pre[i]:
                    next_pre[i] = ready
                ready = cycle + tRC
                if ready > next_act[i]:
                    next_act[i] = ready
                # tRRD_L/tRRD_S after every ACT and, once four are recorded,
                # the fourth-last ACT + tFAW; a ready entry is never lowered.
                recent.append(cycle)
                same = cycle + tRRD_L
                other = cycle + tRRD_S
                if len(recent) == 4:
                    faw = recent[0] + tFAW
                    if faw > same:
                        same = faw
                    if faw > other:
                        other = faw
                for group, value in enumerate(act_ready):
                    floor = same if group == bankgroup else other
                    if floor > value:
                        act_ready[group] = floor
                stats.acts += 1
                if preventive:
                    stats.preventive_acts += 1
                row_key = (i, row)
                address = act_addresses.get(row_key)
                if address is None:
                    address = DRAMAddress(channel, rank_id, bankgroup, bank, row, 0)
                    if len(act_addresses) < act_memo_limit:
                        act_addresses[row_key] = address
                deliver_activation(cycle, address, preventive)
                if preventive:
                    # A preventive ACT refreshes the activated (victim) row
                    # itself.
                    notify_row_refresh(cycle, address)
                return None

            if kind is PRE:
                bankgroup = command.bankgroup
                bank = command.bank
                i = slots[(channel, rank_id, bankgroup, bank)][0]
                if open_rows[i] is None or cycle < next_pre[i]:
                    state = "closed" if open_rows[i] is None else "open"
                    raise TimingViolation(
                        f"PRE to bank {(channel, rank_id, bankgroup, bank)} at cycle "
                        f"{cycle}: state={state}, next_pre={next_pre[i]}"
                    )
                open_rows[i] = None
                col_accesses[i] = 0
                ready = cycle + tRP
                if ready > next_act[i]:
                    next_act[i] = ready
                stats.pres += 1
                return None

            if kind is RD or kind is WR:
                bankgroup = command.bankgroup
                bank = command.bank
                i, _, read_ready, write_ready, _ = slots[(channel, rank_id, bankgroup, bank)]
                row = open_rows[i]
                # tCCD_L/tCCD_S after every column command, plus tWTR_L/tWTR_S
                # after a write burst's end and tRTW after a read.
                same = cycle + tCCD_L
                other = cycle + tCCD_S
                if kind is WR:
                    if row is None or cycle < next_write[i]:
                        raise TimingViolation(
                            f"WR to bank {(channel, rank_id, bankgroup, bank)} row {row} "
                            f"at cycle {cycle}: open_row={row}, next_write={next_write[i]}"
                        )
                    data_end = cycle + write_data
                    ready = data_end + tWR
                    if ready > next_pre[i]:
                        next_pre[i] = ready
                    pushed, turned = write_ready, read_ready
                    turn_same = data_end + tWTR_L
                    turn_other = data_end + tWTR_S
                    stats.writes += 1
                else:
                    if row is None or cycle < next_read[i]:
                        raise TimingViolation(
                            f"RD to bank {(channel, rank_id, bankgroup, bank)} row {row} "
                            f"at cycle {cycle}: open_row={row}, next_read={next_read[i]}"
                        )
                    data_end = cycle + read_data
                    ready = cycle + tRTP
                    if ready > next_pre[i]:
                        next_pre[i] = ready
                    pushed, turned = read_ready, write_ready
                    turn_same = turn_other = cycle + tRTW
                    stats.reads += 1
                col_accesses[i] += 1
                if turn_same < same:
                    turn_same = same
                if turn_other < other:
                    turn_other = other
                for group, value in enumerate(pushed):
                    floor = same if group == bankgroup else other
                    if floor > value:
                        pushed[group] = floor
                for group, value in enumerate(turned):
                    floor = turn_same if group == bankgroup else turn_other
                    if floor > value:
                        turned[group] = floor
                data_bus_free[channel] = data_end
                return data_end

            rank = ranks[(channel, rank_id)]
            if kind is REF:
                start_row, count = rank.apply_refresh(cycle)
                deliver_refresh(cycle, (channel, rank_id), start_row, count)
                return cycle + tRFC

            if kind is RFM:
                trfm = command.metadata.get("trfm", tRFC)
                rank.apply_rfm(cycle, command.bankgroup, command.bank, trfm)
                stats.rfms += 1
                return cycle + trfm

            raise ValueError(f"unknown command kind {kind}")

        return apply

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    def total_activations(self) -> int:
        return self.stats.acts

