"""An independent JEDEC command-stream oracle for the simulated DRAM.

The simulator chooses every command's issue cycle from its own timing model
(:class:`repro.dram.bank.BankTimingTable` and the rank/bus state of
:class:`repro.dram.dram_system.DRAMSystem`) and then applies the command
without checking it again.  A timing bug in that shared model would make
every schedule it produces wrong in the same way, and the golden files would
pin the wrong schedule.  This module is the second opinion: it watches the
issued commands through :meth:`DRAMSystem.add_command_observer` and rebuilds
the device state from scratch, from nothing but the :class:`DRAMConfig`
parameters and the command records themselves.  It imports nothing else
from ``repro.dram`` or ``repro.controller``.

Rules, all checked pairwise against every earlier command they apply to:

* bank state machine: ACT only to a closed bank, PRE/RD/WR only to an open
  one (RD/WR to the open row is implied: a column command names no row),
  REF only with every bank of the rank closed, RFM only to a closed bank;
* bank timing: tRCD (ACT→RD/WR), tRAS (ACT→PRE), tRP (PRE→ACT/REF/RFM),
  tRC (ACT→ACT), tRTP (RD→PRE) and tWR (end of write data→PRE);
* rank timing: tRRD_S/L (ACT→ACT), tFAW (five ACTs), tCCD_S/L (column→
  column), tWTR_S/L (end of write data→RD), tRTW (RD→WR), tRFC (REF→any
  command to the rank) and the RFM window ``trfm`` from the command's
  metadata (RFM→ACT/REF/RFM to the bank);
* buses: one command per channel per cycle, data bursts never overlap;
* refresh cadence: with refresh enabled, no rank goes more than
  ``MAX_POSTPONED_REFRESHES + 1`` refresh intervals without a REF;
* PRAC Alert Back-Off, when the run's mitigation is PRAC: the checker
  recounts activations per row (every ACT counts; at the alert threshold the
  device alerts and the alerting row's count restarts; a REF restarts the
  ``rows_per_refresh`` rows it covers in every bank of its rank, from a
  per-rank pointer that wraps at ``rows_per_bank``) and flags any
  non-preventive ACT, RD or WR issued before the alert plus the back-off
  window (``tABO``).  PREs are not checked: a demand PRE and the PRE that
  closes a bank for a preventive ACT look alike on the bus.

:class:`DisturbanceRecount` is the second opinion on the RowHammer verdict,
from the same command records: it recounts per-victim disturbance the way
the paper's Section 5 invariant states it, without the DRAM model's
activation and refresh callbacks that
:class:`~repro.analysis.security.SecurityVerifier` counts from.

:func:`checked_runs` attaches a checker to every DRAM system of every
simulation run inside it and hashes the whole command stream, which is
how ``tests/golden/channels1.json`` pins each golden run's schedule.

:func:`issue` is the test suite's checked entry point for driving a
:class:`~repro.dram.dram_system.DRAMSystem` by hand: the simulator's own
timing check, then :attr:`~repro.dram.dram_system.DRAMSystem.apply`.
It is the one helper here that imports ``repro.dram`` beyond the command
and configuration types; the checker does not use it.
"""

from __future__ import annotations

import hashlib
from collections import Counter, deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.dram.commands import Command, CommandKind
from repro.dram.config import DRAMConfig

#: DDR4 lets a controller postpone up to eight REF commands.
MAX_POSTPONED_REFRESHES = 8

#: "Long ago": every constraint measured from it is already satisfied.
_PAST = -(10**12)

_ACT = CommandKind.ACT
_PRE = CommandKind.PRE
_RD = CommandKind.RD
_WR = CommandKind.WR
_REF = CommandKind.REF
_RFM = CommandKind.RFM


def command_line(cycle: int, command: Command) -> str:
    """One canonical text line per issued command (the hashed record)."""
    line = (
        f"{cycle} {command.kind.value} ch{command.channel} ra{command.rank} "
        f"bg{command.bankgroup} ba{command.bank}"
    )
    if command.row is not None:
        line += f" row{command.row}"
    if command.column is not None:
        line += f" col{command.column}"
    if command.is_preventive:
        line += " preventive"
    for key in sorted(command.metadata):
        line += f" {key}={command.metadata[key]}"
    return line


class CommandRecorder:
    """Hashes every command it observes, in order, and counts them by kind."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.kinds: Counter = Counter()

    def __call__(self, cycle: int, command: Command) -> None:
        self._hash.update(command_line(cycle, command).encode())
        self._hash.update(b"\n")
        self.kinds[command.kind] += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class _Bank:
    __slots__ = ("open_row", "act", "pre", "rd", "wr_end", "busy_until", "row_acts")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.act = _PAST  # last ACT
        self.pre = _PAST  # last PRE
        self.rd = _PAST  # last RD
        self.wr_end = _PAST  # end of the last write burst
        self.busy_until = _PAST  # end of the last RFM window
        #: PRAC: activations per row since the row's count last restarted.
        self.row_acts: Dict[int, int] = {}


class _Rank:
    __slots__ = (
        "banks", "acts", "columns", "wr_end", "rd", "ref_end", "last_ref", "ref_row"
    )

    def __init__(self, bankgroups: int, banks: int) -> None:
        self.banks: Dict[Tuple[int, int], _Bank] = {
            (bg, b): _Bank() for bg in range(bankgroups) for b in range(banks)
        }
        #: The last four ACTs, ``(cycle, bankgroup)`` — enough for tRRD
        #: (within one tFAW window) and tFAW itself.
        self.acts: Deque[Tuple[int, int]] = deque(maxlen=4)
        #: The last four column commands, ``(cycle, bankgroup)``.
        self.columns: Deque[Tuple[int, int]] = deque(maxlen=4)
        #: Per bank group, the end of its latest write burst (tWTR_S/L).
        self.wr_end: Dict[int, int] = {}
        self.rd = _PAST  # last RD anywhere in the rank (tRTW)
        self.ref_end = _PAST  # last REF + tRFC
        self.last_ref = 0
        self.ref_row = 0  # first row the next REF covers


class CommandStreamChecker:
    """Checks one DRAM system's command stream against ``config``.

    ``channel`` scopes the checker to one channel of the organization (a
    channel-partitioned controller's DRAM system); ``None`` covers them all.
    ``alert_back_off`` is PRAC's ``(alert threshold, back-off window)`` in
    activations and cycles; ``None`` (no PRAC) skips the check.  Call the
    checker as a command observer, then :meth:`finish` at the end of the
    run; :attr:`violations` lists what broke, first offence first.
    """

    #: Violation messages kept (the count keeps going).
    KEEP = 20

    def __init__(
        self,
        config: DRAMConfig,
        channel: Optional[int] = None,
        alert_back_off: Optional[Tuple[int, int]] = None,
    ) -> None:
        org = config.organization
        self.t = config.timing
        self.rows = org.rows_per_bank
        self.rows_per_refresh = config.rows_per_refresh
        self.alert_back_off = alert_back_off
        #: End of the latest Alert Back-Off window.
        self.abo_until = _PAST
        self.columns_per_row = org.columns_per_row
        channels = range(org.channels) if channel is None else (channel,)
        self.ranks: Dict[Tuple[int, int], _Rank] = {
            (ch, r): _Rank(org.bankgroups_per_rank, org.banks_per_bankgroup)
            for ch in channels
            for r in range(org.ranks_per_channel)
        }
        self.command_bus: Dict[int, int] = {ch: _PAST for ch in channels}
        self.data_bus_end: Dict[int, int] = {ch: _PAST for ch in channels}
        self.refresh_limit = (
            (MAX_POSTPONED_REFRESHES + 1) * config.tREFI
            if config.refresh_enabled
            else None
        )
        self.last_cycle = 0
        self.violation_count = 0
        self.violations: List[str] = []
        #: Per rule, how many commands issued exactly at its limit: a rule
        #: that never binds is one whose off-by-one no run could expose.
        self.tight: Counter = Counter()

    # ------------------------------------------------------------------ #
    def _record(self, violation: str) -> None:
        self.violation_count += 1
        if len(self.violations) < self.KEEP:
            self.violations.append(violation)

    def _fail(self, cycle: int, command: Command, rule: str) -> None:
        self._record(f"{command_line(cycle, command)}: {rule}")

    def _not_before(self, cycle, command, ready, rule) -> None:
        if cycle < ready:
            self._fail(cycle, command, f"{rule} (legal from cycle {ready})")
        elif cycle == ready:
            self.tight[rule] += 1

    def __call__(self, cycle: int, command: Command) -> None:
        t = self.t
        rank = self.ranks.get((command.channel, command.rank))
        if rank is None:
            self._fail(cycle, command, "no such rank in this DRAM system")
            return
        kind = command.kind
        if cycle < self.last_cycle:
            self._fail(cycle, command, f"issued after cycle {self.last_cycle}")
        self.last_cycle = max(self.last_cycle, cycle)
        channel = command.channel
        self._not_before(cycle, command, self.command_bus[channel] + 1, "command bus")
        self.command_bus[channel] = cycle
        self._not_before(cycle, command, rank.ref_end, "tRFC")

        if kind is _REF:
            self._refresh(cycle, command, rank)
            return
        if (
            self.alert_back_off is not None
            and kind in (_ACT, _RD, _WR)
            and not command.is_preventive
        ):
            self._not_before(cycle, command, self.abo_until, "tABO")
        bank = rank.banks.get((command.bankgroup, command.bank))
        if bank is None:
            self._fail(cycle, command, "no such bank")
            return
        bg = command.bankgroup
        if kind is _ACT:
            if bank.open_row is not None:
                self._fail(cycle, command, f"ACT to an open bank (row {bank.open_row})")
            if not 0 <= command.row < self.rows:
                self._fail(cycle, command, "row out of range")
            self._not_before(cycle, command, bank.pre + t.tRP, "tRP")
            self._not_before(cycle, command, bank.act + t.tRC, "tRC")
            self._not_before(cycle, command, bank.busy_until, "tRFM")
            for act_cycle, act_bg in rank.acts:
                rrd = t.tRRD_L if act_bg == bg else t.tRRD_S
                self._not_before(
                    cycle, command, act_cycle + rrd, "tRRD_L" if act_bg == bg else "tRRD_S"
                )
            if len(rank.acts) == 4:
                self._not_before(cycle, command, rank.acts[0][0] + t.tFAW, "tFAW")
            rank.acts.append((cycle, bg))
            bank.open_row = command.row
            bank.act = cycle
            if self.alert_back_off is not None:
                self._count_activation(cycle, bank, command.row)
        elif kind is _PRE:
            if bank.open_row is None:
                self._fail(cycle, command, "PRE to a closed bank")
            self._not_before(cycle, command, bank.act + t.tRAS, "tRAS")
            self._not_before(cycle, command, bank.rd + t.tRTP, "tRTP")
            self._not_before(cycle, command, bank.wr_end + t.tWR, "tWR")
            bank.open_row = None
            bank.pre = cycle
        elif kind is _RD or kind is _WR:
            self._column(cycle, command, rank, bank, kind is _WR)
        elif kind is _RFM:
            trfm = command.metadata.get("trfm")
            if not isinstance(trfm, int) or trfm < 1:
                self._fail(cycle, command, "RFM without a positive trfm")
                trfm = 0
            if bank.open_row is not None:
                self._fail(cycle, command, "RFM to an open bank")
            self._not_before(cycle, command, bank.pre + t.tRP, "tRP")
            self._not_before(cycle, command, bank.busy_until, "tRFM")
            bank.busy_until = cycle + trfm
        else:
            self._fail(cycle, command, "unknown command kind")

    def _column(self, cycle, command, rank: _Rank, bank: _Bank, is_write: bool) -> None:
        t = self.t
        bg = command.bankgroup
        if bank.open_row is None:
            self._fail(cycle, command, "column command to a closed bank")
        if not 0 <= command.column < self.columns_per_row:
            self._fail(cycle, command, "column out of range")
        self._not_before(cycle, command, bank.act + t.tRCD, "tRCD")
        for col_cycle, col_bg in rank.columns:
            ccd = t.tCCD_L if col_bg == bg else t.tCCD_S
            self._not_before(
                cycle, command, col_cycle + ccd, "tCCD_L" if col_bg == bg else "tCCD_S"
            )
        rank.columns.append((cycle, bg))
        data_start = cycle + (t.tCWL if is_write else t.tCL)
        data_end = data_start + t.tBURST
        channel = command.channel
        if data_start < self.data_bus_end[channel]:
            self._fail(
                cycle, command,
                f"data burst overlaps the previous one (bus busy until "
                f"{self.data_bus_end[channel]})",
            )
        self.data_bus_end[channel] = max(self.data_bus_end[channel], data_end)
        if is_write:
            self._not_before(cycle, command, rank.rd + t.tRTW, "tRTW")
            bank.wr_end = data_end
            rank.wr_end[bg] = data_end
        else:
            for wr_bg, wr_end in rank.wr_end.items():
                wtr = t.tWTR_L if wr_bg == bg else t.tWTR_S
                self._not_before(
                    cycle, command, wr_end + wtr, "tWTR_L" if wr_bg == bg else "tWTR_S"
                )
            bank.rd = cycle
            rank.rd = cycle

    def _count_activation(self, cycle: int, bank: _Bank, row: int) -> None:
        threshold, window = self.alert_back_off
        count = bank.row_acts.get(row, 0) + 1
        if count >= threshold:
            self.abo_until = max(self.abo_until, cycle + window)
            bank.row_acts.pop(row, None)
        else:
            bank.row_acts[row] = count

    def _refresh(self, cycle: int, command: Command, rank: _Rank) -> None:
        t = self.t
        for key, bank in rank.banks.items():
            if bank.open_row is not None:
                self._fail(cycle, command, f"REF with bank {key} open")
            self._not_before(cycle, command, bank.pre + t.tRP, "tRP")
            self._not_before(cycle, command, bank.busy_until, "tRFM")
        self._cadence(cycle, command, rank)
        rank.ref_end = cycle + t.tRFC
        rank.last_ref = cycle
        if self.alert_back_off is not None:
            first = rank.ref_row
            last = first + self.rows_per_refresh
            for bank in rank.banks.values():
                for row in [r for r in bank.row_acts if first <= r < last]:
                    del bank.row_acts[row]
            rank.ref_row = last % self.rows

    def _cadence(self, cycle: int, command: Optional[Command], rank: _Rank) -> None:
        limit = self.refresh_limit
        if limit is not None and cycle - rank.last_ref > limit:
            message = (
                f"refresh postponed: {cycle - rank.last_ref} cycles since the "
                f"last REF (limit {limit})"
            )
            if command is None:
                self._record(f"end of run at cycle {cycle}: {message}")
            else:
                self._fail(cycle, command, message)

    def finish(self) -> None:
        """End-of-run checks: no rank is overdue at the last command."""
        for rank in self.ranks.values():
            self._cadence(self.last_cycle, None, rank)


class DisturbanceRecount:
    """Per-victim disturbance recounted from command records alone.

    Call it as a command observer.  An ACT, demand or preventive, adds one
    to the rows at distance 1 in its bank; a preventive ACT then clears its
    own row (it refreshes the victim it opens); a REF clears
    ``rows_per_refresh`` rows in every bank of its rank, starting at a
    per-rank pointer that wraps at ``rows_per_bank``.  Every (ACT, victim)
    pair that brings the victim to ``nrh`` counts as one violation, and
    :attr:`max_disturbance` is the largest value any victim reached.

    Mechanisms that refresh rows inside DRAM (PRAC, REGA, the RFM refresh
    policy) do so without a command, so for them the recount is an upper
    bound on what the verifier sees; for controller-side mechanisms it is
    exact.
    """

    def __init__(self, config: DRAMConfig, nrh: int) -> None:
        self.nrh = nrh
        self.rows = config.organization.rows_per_bank
        self.rows_per_refresh = config.rows_per_refresh
        #: ``(channel, rank)`` -> first row the rank's next REF covers.
        self.ref_row: Dict[Tuple[int, int], int] = {}
        #: ``(channel, rank, bankgroup, bank, row)`` -> aggressor ACTs since
        #: the row was last refreshed.
        self.disturbance: Dict[Tuple[int, int, int, int, int], int] = {}
        self.max_disturbance = 0
        self.violation_count = 0

    def __call__(self, cycle: int, command: Command) -> None:
        kind = command.kind
        bank = (command.channel, command.rank, command.bankgroup, command.bank)
        if kind is _ACT:
            row = command.row
            for victim in (row - 1, row + 1):
                if not 0 <= victim < self.rows:
                    continue
                key = bank + (victim,)
                value = self.disturbance.get(key, 0) + 1
                self.disturbance[key] = value
                self.max_disturbance = max(self.max_disturbance, value)
                if value >= self.nrh:
                    self.violation_count += 1
            if command.is_preventive:
                self.disturbance.pop(bank + (row,), None)
        elif kind is _REF:
            rank = (command.channel, command.rank)
            first = self.ref_row.get(rank, 0)
            last = first + self.rows_per_refresh
            self.disturbance = {
                key: value
                for key, value in self.disturbance.items()
                if key[:2] != rank or not first <= key[4] < last
            }
            self.ref_row[rank] = last % self.rows


def issue(dram, command: Command, cycle: int) -> Optional[int]:
    """Check ``command``'s timing at ``cycle`` on ``dram``, then apply it.

    Raises :class:`~repro.dram.bank.TimingViolation` when the command is
    early; otherwise returns what :attr:`DRAMSystem.apply` returns.
    """
    from repro.dram.bank import TimingViolation

    earliest = dram.earliest_issue_cycle(command, cycle)
    if earliest > cycle:
        raise TimingViolation(
            f"{command.describe()} issued at cycle {cycle}, "
            f"earliest legal cycle is {earliest}"
        )
    return dram.apply(command, cycle)


def alert_back_off(mitigation) -> Optional[Tuple[int, int]]:
    """PRAC's ``(alert threshold, back-off window)`` from its configuration
    (``nrh // alert_divider`` activations, at least one, and
    ``tabo_cycles``); ``None`` for any other mitigation."""
    if getattr(mitigation, "name", None) != "prac":
        return None
    config = mitigation.config
    return max(1, config.nrh // config.alert_divider), config.tabo_cycles


class CheckedRun:
    """One simulation run under the oracle: a checker per DRAM system plus
    one recorder over the whole run's command stream, in issue order."""

    def __init__(self, system) -> None:
        self.name = system.name
        self.recorder = CommandRecorder()
        self.checkers: List[CommandStreamChecker] = []
        for controller in system.fabric.controllers:
            dram = controller.dram
            checker = CommandStreamChecker(
                dram.config,
                channel=dram.channel,
                alert_back_off=alert_back_off(controller.mitigation),
            )
            dram.add_command_observer(checker)
            dram.add_command_observer(self.recorder)
            self.checkers.append(checker)

    def finish(self) -> None:
        for checker in self.checkers:
            checker.finish()

    @property
    def tight(self) -> Counter:
        """Per rule, the commands of the run issued exactly at its limit."""
        return sum((checker.tight for checker in self.checkers), Counter())

    @property
    def violations(self) -> List[str]:
        return [v for checker in self.checkers for v in checker.violations]

    def assert_clean(self) -> None:
        count = sum(checker.violation_count for checker in self.checkers)
        assert count == 0, (
            f"{self.name}: {count} command-stream violations; first: "
            + "; ".join(self.violations[:5])
        )

    def hexdigest(self) -> str:
        return self.recorder.hexdigest()


@contextmanager
def checked_runs() -> Iterator[List[CheckedRun]]:
    """Put every :meth:`System.run` inside the block under the oracle.

    Yields the list the block's runs are appended to, in run order.  Each
    run's checkers are attached before the run starts and finished when it
    returns (sampled-fidelity runs do not go through ``System.run`` and are
    not covered).
    """
    from repro.sim.system import System

    original = System.run
    runs: List[CheckedRun] = []

    def run(system):
        checked = CheckedRun(system)
        runs.append(checked)
        result = original(system)
        checked.finish()
        return result

    System.run = run
    try:
        yield runs
    finally:
        System.run = original
