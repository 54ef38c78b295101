"""DRAM organization and timing configuration.

The defaults reproduce the simulated system of Table 2 in the CoMeT paper:
DDR4, 1 channel, 2 ranks per channel, 4 bank groups, 4 banks per bank group,
128K rows per bank.  Timing values are DDR4-2400 (tCK = 0.833 ns) taken from
the JEDEC DDR4 specification / Micron datasheets referenced by the paper.

All timings are stored in DRAM clock cycles.  The refresh window ``tREFW``
and the derived refresh interval ``tREFI`` can be scaled down with
``refresh_window_scale`` so that experiments over short synthetic traces span
several counter-reset windows (the paper's RowHammer mechanisms all operate
per refresh window); EXPERIMENTS.md documents where this scaling is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class DRAMOrganization:
    """Geometry of the simulated memory system."""

    channels: int = 1
    ranks_per_channel: int = 2
    bankgroups_per_rank: int = 4
    banks_per_bankgroup: int = 4
    rows_per_bank: int = 128 * 1024
    columns_per_row: int = 1024
    device_width_bits: int = 8
    bus_width_bits: int = 64
    burst_length: int = 8

    @property
    def banks_per_rank(self) -> int:
        return self.bankgroups_per_rank * self.banks_per_bankgroup

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def total_rows(self) -> int:
        return self.total_banks * self.rows_per_bank

    @property
    def row_size_bytes(self) -> int:
        """Size of one DRAM row (page) in bytes as seen by the channel."""
        return self.columns_per_row * self.bus_width_bits // 8

    @property
    def cacheline_bytes(self) -> int:
        """Bytes transferred per read/write burst."""
        return self.bus_width_bits // 8 * self.burst_length

    @property
    def columns_per_cacheline(self) -> int:
        return self.burst_length


@dataclass(frozen=True)
class DRAMTiming:
    """DDR4-2400 timing parameters, in DRAM clock cycles.

    ``tCK_ns`` converts cycles to nanoseconds.  ``tREFW`` defaults to 64 ms
    (DDR4 normal temperature range); ``tREFI`` to 7.8 us.
    """

    tCK_ns: float = 0.833

    tRCD: int = 16      # ACT -> RD/WR
    tRP: int = 16       # PRE -> ACT
    tCL: int = 16       # RD -> data
    tCWL: int = 12      # WR -> data
    tRAS: int = 39      # ACT -> PRE
    tRC: int = 55       # ACT -> ACT, same bank
    tRRD_S: int = 4     # ACT -> ACT, different bank group
    tRRD_L: int = 6     # ACT -> ACT, same bank group
    tFAW: int = 26      # four-ACT window
    tCCD_S: int = 4     # RD/WR -> RD/WR, different bank group
    tCCD_L: int = 6     # RD/WR -> RD/WR, same bank group
    tWR: int = 18       # end of write data -> PRE
    tRTP: int = 9       # RD -> PRE
    tWTR_S: int = 3     # write data -> RD, different bank group
    tWTR_L: int = 9     # write data -> RD, same bank group
    tRTW: int = 8       # RD -> WR turnaround
    tRFC: int = 420     # REF -> next command, same rank (350 ns / tCK)
    tREFI: int = 9363   # REF interval (7.8 us / tCK)
    tREFW_ms: float = 64.0  # refresh window in milliseconds
    tBURST: int = 4     # burst length 8 / double data rate

    def __post_init__(self) -> None:
        # JEDEC's ordering of the bank-group rules; the device model's rank
        # ready lists keep one same-group and one any-group floor per rule
        # and are exact only under it (see repro.dram.dram_system.Rank).
        for long, short in (
            ("tRRD_L", "tRRD_S"),
            ("tCCD_L", "tCCD_S"),
            ("tWTR_L", "tWTR_S"),
        ):
            long_value, short_value = getattr(self, long), getattr(self, short)
            if long_value < short_value:
                raise ValueError(
                    f"{long} ({long_value}) must be >= {short} ({short_value})"
                )

    @property
    def tREFW(self) -> int:
        """Refresh window in DRAM clock cycles."""
        return int(round(self.tREFW_ms * 1e6 / self.tCK_ns))

    @property
    def refreshes_per_window(self) -> int:
        """Number of REF commands issued per refresh window (typically 8192)."""
        return max(1, self.tREFW // self.tREFI)

    def ns(self, cycles: int) -> float:
        """Convert a cycle count to nanoseconds."""
        return cycles * self.tCK_ns

    def cycles(self, nanoseconds: float) -> int:
        """Convert nanoseconds to (rounded-up) cycle counts."""
        import math

        return int(math.ceil(nanoseconds / self.tCK_ns - 1e-9))


@dataclass(frozen=True)
class DRAMConfig:
    """Complete DRAM configuration: organization + timing + scaling knobs."""

    organization: DRAMOrganization = field(default_factory=DRAMOrganization)
    timing: DRAMTiming = field(default_factory=DRAMTiming)
    refresh_window_scale: float = 1.0
    refresh_enabled: bool = True

    def __post_init__(self) -> None:
        if self.refresh_window_scale <= 0:
            raise ValueError("refresh_window_scale must be positive")

    @property
    def tREFW(self) -> int:
        """Refresh window in cycles, after scaling."""
        return max(1, int(self.timing.tREFW * self.refresh_window_scale))

    @property
    def tREFI(self) -> int:
        """Refresh interval in cycles.

        Deliberately *not* scaled by ``refresh_window_scale``: scaling only
        the window keeps the refresh duty cycle (tRFC / tREFI) realistic while
        reducing the number of REF commands per window, so scaled simulations
        spend the same ~4.5% of time refreshing as real DDR4 does.
        """
        return max(1, self.timing.tREFI)

    @property
    def refreshes_per_window(self) -> int:
        return max(1, self.tREFW // self.tREFI)

    @property
    def rows_per_refresh(self) -> int:
        """Rows of each bank refreshed by a single REF command."""
        return max(
            1, -(-self.organization.rows_per_bank // self.refreshes_per_window)
        )

    @property
    def max_activations_per_window(self) -> int:
        """Upper bound on ACTs to a single bank within one refresh window.

        Used to size Graphene tables and to reason about how many rows can be
        hammered concurrently (Section 3.2 of the paper).
        """
        return max(1, self.tREFW // self.timing.tRC)

    def scaled(self, refresh_window_scale: float) -> "DRAMConfig":
        """Return a copy with a different refresh-window scale."""
        return replace(self, refresh_window_scale=refresh_window_scale)


def small_test_config(
    rows_per_bank: int = 1024,
    banks_per_bankgroup: int = 2,
    bankgroups_per_rank: int = 2,
    ranks_per_channel: int = 1,
    refresh_window_scale: float = 1.0 / 1024.0,
    channels: int = 1,
) -> DRAMConfig:
    """A scaled-down configuration used throughout the test-suite and benches.

    The organization is shrunk (fewer banks and rows) and the refresh window
    shortened so that complete refresh windows and counter-reset periods
    elapse within traces of a few thousand requests.  ``channels`` sizes the
    channel-partitioned fabric; every dimension must stay a power of two so
    the address mapping is alias-free (validated here eagerly, so a bad
    geometry fails at configuration time rather than at trace generation).
    """
    organization = DRAMOrganization(
        channels=channels,
        ranks_per_channel=ranks_per_channel,
        bankgroups_per_rank=bankgroups_per_rank,
        banks_per_bankgroup=banks_per_bankgroup,
        rows_per_bank=rows_per_bank,
    )
    config = DRAMConfig(
        organization=organization,
        refresh_window_scale=refresh_window_scale,
    )
    # Imported here to avoid a circular import (address.py imports config).
    from repro.dram.address import validate_mappable_geometry

    validate_mappable_geometry(config)
    return config
