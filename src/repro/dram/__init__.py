"""DDR4 DRAM device model.

This subpackage is the reproduction's substitute for Ramulator's DRAM model:
a command-granularity, timing-accurate model of a DDR4 memory system
(channel / rank / bank-group / bank / row / column) sufficient to reproduce
the command streams, bandwidth contention and refresh behaviour that the
CoMeT paper's evaluation depends on.

Main entry points:

* :class:`~repro.dram.config.DRAMConfig` — organization + timing parameters
  (defaults model the paper's DDR4 configuration in Table 2).
* :class:`~repro.dram.address.AddressMapper` — physical address to DRAM
  coordinate translation.
* :class:`~repro.dram.dram_system.DRAMSystem` — the device model itself:
  computes the earliest legal cycle of each command, applies commands,
  tracks open rows and delivers every ACT, REF and row refresh to its
  observers (the security verifier and the RowHammer mitigations).
"""

from repro.dram.config import DRAMConfig, DRAMTiming, DRAMOrganization
from repro.dram.commands import Command, CommandKind
from repro.dram.address import AddressMapper, DRAMAddress
from repro.dram.bank import Bank, BankState
from repro.dram.dram_system import DRAMSystem, Rank

__all__ = [
    "DRAMConfig",
    "DRAMTiming",
    "DRAMOrganization",
    "Command",
    "CommandKind",
    "AddressMapper",
    "DRAMAddress",
    "Bank",
    "BankState",
    "Rank",
    "DRAMSystem",
]
