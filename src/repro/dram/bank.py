"""Per-bank state machine and timing bookkeeping.

Each :class:`Bank` tracks its open row, the earliest cycle at which each
command type may legally be issued to it, and its command counts.  The
bank only owns the bank-scoped constraints (tRCD, tRAS, tRC, tRP, tRTP,
tWR), plus the tRFC/tRFM block that a REF or RFM pushes into
``next_act``.  Rank-scoped constraints (tRRD, tFAW, tCCD, tRTW, tWTR) are
pushed at issue time into :class:`repro.dram.dram_system.Rank`'s
per-bank-group ready lists, and the buses are
:class:`repro.dram.dram_system.DRAMSystem`'s.  Nothing here answers "when
may this command issue?": readers take ``max`` over the table slot, the
rank's ready list and the bus (``DRAMSystem.earliest_issue_cycle`` and the
controller's select).

The timing state itself lives in a :class:`BankTimingTable`, one
struct-of-arrays earliest-cycle table shared by every bank of a
:class:`~repro.dram.dram_system.DRAMSystem`: ``next_act[i]``,
``open_row[i]`` and friends are plain list slots indexed by the bank's
dense index.  A :class:`Bank` is a *view* into its slot — its attribute
interface (``bank.next_act``, ``bank.open_row``, ``bank.state``) is
unchanged and remains the single source of truth — while the memory
controller's demand scan reads the shared arrays directly and evaluates
every candidate bank against one earliest-issue vector instead of chasing
``ranks[...].banks[...]`` object chains per check.  A bank constructed
standalone (unit tests) owns a private 1-slot table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dram.config import DRAMTiming


class BankState(enum.Enum):
    """Row-buffer state of a bank."""

    CLOSED = "closed"
    OPEN = "open"


@dataclass
class BankStatistics:
    """Per-bank activity counters."""

    activations: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    preventive_activations: int = 0


class BankTimingTable:
    """Struct-of-arrays bank timing state: one slot per bank.

    ``open_row[i] is None`` encodes the closed state (there is no separate
    state array — a bank is open exactly when it holds an open row), and
    ``col_accesses[i]`` counts column commands served from the currently
    open row (the FR-FCFS column-cap input).  All cycle entries are
    integers; consumers compare them against integer controller cycles.
    """

    __slots__ = (
        "next_act",
        "next_pre",
        "next_read",
        "next_write",
        "open_row",
        "col_accesses",
    )

    def __init__(self, count: int) -> None:
        self.next_act: List[int] = [0] * count
        self.next_pre: List[int] = [0] * count
        self.next_read: List[int] = [0] * count
        self.next_write: List[int] = [0] * count
        self.open_row: List[Optional[int]] = [None] * count
        self.col_accesses: List[int] = [0] * count


class Bank:
    """One DRAM bank: open-row tracking plus bank-scoped timing constraints.

    ``table``/``index`` locate this bank's slot in the shared
    :class:`BankTimingTable`; when omitted the bank owns a private 1-slot
    table (standalone construction in unit tests).
    """

    def __init__(
        self,
        timing: DRAMTiming,
        rows: int,
        bank_key: tuple = (),
        table: Optional[BankTimingTable] = None,
        index: int = 0,
    ) -> None:
        self.timing = timing
        self.rows = rows
        self.bank_key = bank_key
        if table is None:
            table = BankTimingTable(1)
            index = 0
        self.table = table
        self.index = index
        self.stats = BankStatistics()

    # ------------------------------------------------------------------ #
    # Timing-table views (the attribute interface of the pre-SoA Bank)
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> BankState:
        return BankState.CLOSED if self.table.open_row[self.index] is None else BankState.OPEN

    @property
    def open_row(self) -> Optional[int]:
        return self.table.open_row[self.index]

    @open_row.setter
    def open_row(self, value: Optional[int]) -> None:
        self.table.open_row[self.index] = value

    @property
    def next_act(self) -> int:
        return self.table.next_act[self.index]

    @next_act.setter
    def next_act(self, value: int) -> None:
        self.table.next_act[self.index] = value

    @property
    def next_pre(self) -> int:
        return self.table.next_pre[self.index]

    @next_pre.setter
    def next_pre(self, value: int) -> None:
        self.table.next_pre[self.index] = value

    @property
    def next_read(self) -> int:
        return self.table.next_read[self.index]

    @next_read.setter
    def next_read(self, value: int) -> None:
        self.table.next_read[self.index] = value

    @property
    def next_write(self) -> int:
        return self.table.next_write[self.index]

    @next_write.setter
    def next_write(self, value: int) -> None:
        self.table.next_write[self.index] = value

    @property
    def open_row_column_accesses(self) -> int:
        return self.table.col_accesses[self.index]

    @open_row_column_accesses.setter
    def open_row_column_accesses(self, value: int) -> None:
        self.table.col_accesses[self.index] = value

    # ------------------------------------------------------------------ #
    # Command application
    # ------------------------------------------------------------------ #
    def activate(self, cycle: int, row: int, preventive: bool = False) -> None:
        """Apply an ACT command at ``cycle``; raises if the bank is not ready."""
        table, i = self.table, self.index
        if table.open_row[i] is not None or cycle < table.next_act[i]:
            raise TimingViolation(
                f"ACT to bank {self.bank_key} row {row} at cycle {cycle}: "
                f"bank state={self.state.value}, next_act={table.next_act[i]}"
            )
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range for bank with {self.rows} rows")
        timing = self.timing
        table.open_row[i] = row
        table.col_accesses[i] = 0
        if cycle + timing.tRCD > table.next_read[i]:
            table.next_read[i] = cycle + timing.tRCD
        if cycle + timing.tRCD > table.next_write[i]:
            table.next_write[i] = cycle + timing.tRCD
        if cycle + timing.tRAS > table.next_pre[i]:
            table.next_pre[i] = cycle + timing.tRAS
        if cycle + timing.tRC > table.next_act[i]:
            table.next_act[i] = cycle + timing.tRC
        self.stats.activations += 1
        if preventive:
            self.stats.preventive_activations += 1

    def precharge(self, cycle: int) -> None:
        """Apply a PRE command at ``cycle``."""
        table, i = self.table, self.index
        if table.open_row[i] is None or cycle < table.next_pre[i]:
            raise TimingViolation(
                f"PRE to bank {self.bank_key} at cycle {cycle}: "
                f"state={self.state.value}, next_pre={table.next_pre[i]}"
            )
        table.open_row[i] = None
        table.col_accesses[i] = 0
        if cycle + self.timing.tRP > table.next_act[i]:
            table.next_act[i] = cycle + self.timing.tRP
        self.stats.precharges += 1

    def read(self, cycle: int, row: int) -> int:
        """Apply a RD command; returns the cycle at which data transfer completes."""
        table, i = self.table, self.index
        if table.open_row[i] != row or cycle < table.next_read[i]:
            raise TimingViolation(
                f"RD to bank {self.bank_key} row {row} at cycle {cycle}: "
                f"open_row={table.open_row[i]}, next_read={table.next_read[i]}"
            )
        timing = self.timing
        if cycle + timing.tRTP > table.next_pre[i]:
            table.next_pre[i] = cycle + timing.tRTP
        self.stats.reads += 1
        table.col_accesses[i] += 1
        return cycle + timing.tCL + timing.tBURST

    def write(self, cycle: int, row: int) -> int:
        """Apply a WR command; returns the cycle at which data transfer completes."""
        table, i = self.table, self.index
        if table.open_row[i] != row or cycle < table.next_write[i]:
            raise TimingViolation(
                f"WR to bank {self.bank_key} row {row} at cycle {cycle}: "
                f"open_row={table.open_row[i]}, next_write={table.next_write[i]}"
            )
        timing = self.timing
        data_end = cycle + timing.tCWL + timing.tBURST
        if data_end + timing.tWR > table.next_pre[i]:
            table.next_pre[i] = data_end + timing.tWR
        self.stats.writes += 1
        table.col_accesses[i] += 1
        return data_end

    def refresh_block(self, cycle: int, until: int) -> None:
        """Block the bank until ``until`` (rank-level REF under way)."""
        table, i = self.table, self.index
        if table.open_row[i] is not None:
            raise TimingViolation(
                f"REF issued while bank {self.bank_key} has row {table.open_row[i]} open"
            )
        if until > table.next_act[i]:
            table.next_act[i] = until

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict:
        """Plain-data checkpoint: the bank's timing-table slot and statistics."""
        table, i = self.table, self.index
        return {
            "next_act": table.next_act[i],
            "next_pre": table.next_pre[i],
            "next_read": table.next_read[i],
            "next_write": table.next_write[i],
            "open_row": table.open_row[i],
            "col_accesses": table.col_accesses[i],
            "stats": dict(vars(self.stats)),
        }

    def restore(self, state: Dict) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        table, i = self.table, self.index
        table.next_act[i] = state["next_act"]
        table.next_pre[i] = state["next_pre"]
        table.next_read[i] = state["next_read"]
        table.next_write[i] = state["next_write"]
        table.open_row[i] = state["open_row"]
        table.col_accesses[i] = state["col_accesses"]
        for key, value in state["stats"].items():
            setattr(self.stats, key, value)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def is_row_hit(self, row: int) -> bool:
        return self.table.open_row[self.index] == row

    def is_closed(self) -> bool:
        return self.table.open_row[self.index] is None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Bank(key={self.bank_key}, state={self.state.value}, "
            f"open_row={self.open_row}, acts={self.stats.activations})"
        )


class TimingViolation(RuntimeError):
    """Raised when a command is applied before its timing constraints allow."""
