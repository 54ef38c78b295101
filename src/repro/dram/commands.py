"""DRAM command definitions.

The memory controller drives the DRAM device model with the five DDR4
commands the paper's mechanisms care about: ``ACT``, ``PRE``, ``RD``, ``WR``
and the rank-level ``REF``.  Preventive refreshes issued by RowHammer
mitigations are not a distinct DRAM command — per Section 7.2.2 of the paper
they are performed as an ACT+PRE pair to the victim row — but commands carry
a ``is_preventive`` flag so statistics and the energy model can attribute
them separately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class CommandKind(enum.Enum):
    """The DRAM command types modelled by the simulator.

    ``RFM`` (Refresh Management) is the DDR5 addition: a bank-scoped
    command that gives the device a ``tRFM`` window to refresh the
    potential victims of recent activations.  The window length rides in
    :attr:`Command.metadata` under ``"trfm"`` because it is a policy
    parameter, not a device constant.
    """

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"
    RFM = "RFM"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_ACT = CommandKind.ACT
_RD = CommandKind.RD
_WR = CommandKind.WR


@dataclass(frozen=True, init=False)
class Command:
    """One DRAM command addressed to a specific location.

    ``rank``/``bankgroup``/``bank`` identify the target bank; ``row`` is
    required for ACT, ``column`` for RD/WR.  REF is rank-level and ignores the
    bank fields.

    ``__init__`` is hand-written because a command is built for every
    scheduling decision: the generated frozen-dataclass ``__init__`` routes
    each field through ``object.__setattr__`` and then ``__post_init__``,
    which costs about three times as much as filling the instance
    ``__dict__`` directly (2.2–4.3 µs against 0.8–1.2 µs per keyword-built
    ACT or PRE, CPython 3.11.7 on a 2-vCPU VM).  Everything else stays
    generated and behaves as before: ``__eq__``/``__hash__``/``__repr__``
    over the nine fields (``metadata`` excluded from eq and hash),
    :class:`dataclasses.FrozenInstanceError` on assignment,
    :func:`dataclasses.fields`/:func:`dataclasses.replace` and pickling.
    Each command gets its own ``metadata`` dict unless one is passed in.

    Being frozen is what lets one command instance be shared: the
    controller select hands out the same demand PRE per bank on every
    decision that closes that bank for a row conflict (see
    :meth:`repro.controller.controller.MemoryController._build_select`).
    """

    kind: CommandKind
    channel: int = 0
    rank: int = 0
    bankgroup: int = 0
    bank: int = 0
    row: Optional[int] = None
    column: Optional[int] = None
    is_preventive: bool = False
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __init__(
        self,
        kind: CommandKind,
        channel: int = 0,
        rank: int = 0,
        bankgroup: int = 0,
        bank: int = 0,
        row: Optional[int] = None,
        column: Optional[int] = None,
        is_preventive: bool = False,
        metadata: Optional[dict] = None,
    ) -> None:
        if kind is _ACT:
            if row is None:
                raise ValueError("ACT command requires a row")
        elif (kind is _RD or kind is _WR) and column is None:
            raise ValueError(f"{kind} command requires a column")
        state = self.__dict__
        state["kind"] = kind
        state["channel"] = channel
        state["rank"] = rank
        state["bankgroup"] = bankgroup
        state["bank"] = bank
        state["row"] = row
        state["column"] = column
        state["is_preventive"] = is_preventive
        state["metadata"] = {} if metadata is None else metadata

    @property
    def bank_key(self) -> tuple:
        """(bankgroup, bank) pair identifying the target bank within its rank."""
        return (self.bankgroup, self.bank)

    def describe(self) -> str:
        """Human-readable one-line description (used in logs and error messages)."""
        location = f"ch{self.channel}/ra{self.rank}/bg{self.bankgroup}/ba{self.bank}"
        if self.kind is CommandKind.ACT:
            location += f"/row{self.row}"
        elif self.kind in (CommandKind.RD, CommandKind.WR):
            location += f"/col{self.column}"
        preventive = " (preventive)" if self.is_preventive else ""
        return f"{self.kind}{preventive} -> {location}"
