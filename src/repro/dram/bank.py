"""Per-bank timing state.

Each bank has an open row and the earliest cycle at which each command
type may legally be issued to it.  The bank slots hold only the
bank-scoped constraints (tRCD, tRAS, tRC, tRP, tRTP, tWR), plus the
tRFC/tRFM block that a REF or RFM pushes into ``next_act``.
:attr:`repro.dram.dram_system.DRAMSystem.apply` checks and writes them for
every ACT, PRE, RD and WR, and pushes the rank-scoped constraints (tRRD,
tFAW, tCCD, tRTW, tWTR) into :class:`repro.dram.dram_system.Rank`'s
ready lists (a slot per bank group and one for all of them) at the same
time; the buses are :class:`repro.dram.dram_system.DRAMSystem`'s.  Nothing
here answers "when may this command issue?": readers take ``max`` over the
table slot, the rank's two ready slots and the bus
(``DRAMSystem.earliest_issue_cycle`` and the controller's select).

The timing state itself lives in a :class:`BankTimingTable`, one
struct-of-arrays earliest-cycle table shared by every bank of a
:class:`~repro.dram.dram_system.DRAMSystem`: ``next_act[i]``,
``open_row[i]`` and friends are plain list slots indexed by the bank's
dense index.  A :class:`Bank` is a *view* into its slot (``bank.next_act``,
``bank.open_row``, ``bank.state`` read and write the table), while the
memory controller's demand scan and :attr:`DRAMSystem.apply` read and
write the shared arrays directly instead of chasing
``ranks[...].banks[...]`` object chains per command.
"""

from __future__ import annotations

import enum
from typing import List, Optional


class BankState(enum.Enum):
    """Row-buffer state of a bank."""

    CLOSED = "closed"
    OPEN = "open"


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
    """One DRAM bank: a view of its slot in the shared timing table.

    ``table``/``index`` locate this bank's slot in the shared
    :class:`BankTimingTable`; ``bank_key`` is its ``(channel, rank,
    bankgroup, bank)`` coordinate.
    """

    def __init__(self, bank_key: tuple, table: BankTimingTable, index: int) -> None:
        self.bank_key = bank_key
        self.table = table
        self.index = index

    # ------------------------------------------------------------------ #
    # Timing-table views (the attribute interface of the pre-SoA Bank)
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> BankState:
        return BankState.CLOSED if self.table.open_row[self.index] is None else BankState.OPEN

    @property
    def open_row(self) -> Optional[int]:
        return self.table.open_row[self.index]

    @property
    def next_act(self) -> int:
        return self.table.next_act[self.index]

    @property
    def next_pre(self) -> int:
        return self.table.next_pre[self.index]

    @property
    def next_read(self) -> int:
        return self.table.next_read[self.index]

    @property
    def next_write(self) -> int:
        return self.table.next_write[self.index]

    @property
    def open_row_column_accesses(self) -> int:
        return self.table.col_accesses[self.index]

    # ------------------------------------------------------------------ #
    # Refresh
    # ------------------------------------------------------------------ #
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
    # Queries
    # ------------------------------------------------------------------ #

    def is_closed(self) -> bool:
        return self.table.open_row[self.index] is None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Bank(key={self.bank_key}, state={self.state.value}, "
            f"open_row={self.open_row})"
        )


class TimingViolation(RuntimeError):
    """Raised when a command is applied before its timing constraints allow."""
