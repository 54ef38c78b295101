"""Hydra: hybrid tracking with in-DRAM per-row counters (Qureshi et al., ISCA 2022).

Hydra is the paper's "best prior low-area-cost" comparison point.  It keeps:

* a small SRAM **Group Count Table (GCT)** in the memory controller — rows are
  grouped (128 rows per group) and each group has one counter;
* a **Row Count Table (RCT)** of per-row counters stored *in DRAM*, initialized
  lazily when a group's counter first reaches the group threshold;
* a **Row Count Cache (RCC)** in the memory controller that caches RCT entries
  to avoid a DRAM access on every activation.

The performance problem the CoMeT paper highlights (Section 3.2) comes from
two effects that this model reproduces directly: (1) group counters
overestimate row activation counts, triggering unnecessary preventive
refreshes, and (2) RCC misses generate extra DRAM reads (and dirty
writebacks), stealing bandwidth from demand requests and inflating memory
latency — the dominant effect at low RowHammer thresholds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.address import DRAMAddress
from repro.mitigations.base import RowHammerMitigation
from repro.experiment.registry import register_mitigation


@dataclass(frozen=True)
class HydraConfig:
    """Hydra parameters (defaults follow the original work's configuration)."""

    nrh: int
    rows_per_group: int = 128
    group_threshold_divider: int = 4
    rcc_entries: int = 4096
    counter_width_bits: int = 8
    group_counter_width_bits: int = 16
    reset_divider: int = 2

    @property
    def group_threshold(self) -> int:
        """Activation count at which a group switches to per-row tracking."""
        return max(1, self.nrh // self.group_threshold_divider)

    @property
    def row_threshold(self) -> int:
        """Per-row activation count that triggers a preventive refresh."""
        return max(1, self.nrh // 2)


@register_mitigation("hydra")
class Hydra(RowHammerMitigation):
    """Hybrid group/per-row tracking with counters stored in DRAM."""

    name = "hydra"

    def __init__(
        self,
        nrh: int,
        config: Optional[HydraConfig] = None,
        blast_radius: int = 1,
    ) -> None:
        super().__init__(nrh=nrh, blast_radius=blast_radius)
        self.config = config or HydraConfig(nrh=nrh)
        # Group Count Table: (bank_key, group) -> count.
        self._gct: Dict[Tuple, int] = {}
        # Groups that switched to per-row tracking.
        self._tracked_groups: Dict[Tuple, bool] = {}
        # Row Count Table (lives in DRAM): (bank_key, row) -> count.
        self._rct: Dict[Tuple, int] = {}
        # Row Count Cache: OrderedDict used as an LRU of (bank_key, row) -> dirty.
        self._rcc: "OrderedDict[Tuple, bool]" = OrderedDict()
        self._next_reset_cycle: Optional[int] = None
        self._reset_period: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def attach(self, controller) -> None:
        super().attach(controller)
        self._reset_period = max(1, self.dram_config.tREFW // self.config.reset_divider)
        self._next_reset_cycle = self._reset_period

    # ------------------------------------------------------------------ #
    # Event hooks
    # ------------------------------------------------------------------ #
    def on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        # Preventive ACTs are tracked like demand activations: they disturb
        # their own neighbours, so ignoring them would leave a blind spot.
        self._maybe_reset(cycle)
        self.stats.observed_activations += 1
        bank_key = address.bank_key
        group = address.row // self.config.rows_per_group
        group_key = (bank_key, group)

        if not self._tracked_groups.get(group_key, False):
            count = self._gct.get(group_key, 0) + 1
            self._gct[group_key] = count
            if count >= self.config.group_threshold:
                # Switch the group to per-row tracking: every row of the group
                # inherits the group count (a deliberate overestimate).
                self._tracked_groups[group_key] = True
                self.stats.bump("group_promotions")
            return

        # Per-row tracking: the row counter lives in DRAM and is accessed
        # through the Row Count Cache.
        row_key = (bank_key, address.row)
        self._access_row_counter(cycle, address, row_key, group_key)
        count = self._rct.get(row_key, self.config.group_threshold) + 1
        self._rct[row_key] = count
        self._mark_dirty(row_key)
        if count >= self.config.row_threshold:
            self.refresh_victims(cycle, address)
            self._rct[row_key] = 0

    def _access_row_counter(
        self, cycle: int, address: DRAMAddress, row_key: Tuple, group_key: Tuple
    ) -> None:
        """Model the RCC lookup; a miss costs a DRAM read (plus a writeback)."""
        if row_key in self._rcc:
            self._rcc.move_to_end(row_key)
            self.stats.bump("rcc_hits")
            return
        self.stats.bump("rcc_misses")
        # Miss: fetch the counter line from DRAM.
        counter_address = self._counter_dram_address(address)
        self.controller.enqueue_mitigation_request(counter_address, is_write=False, cycle=cycle)
        self.stats.mitigation_memory_requests += 1
        # Evict the LRU entry; dirty entries must be written back to DRAM.
        if len(self._rcc) >= self.config.rcc_entries:
            victim_key, dirty = self._rcc.popitem(last=False)
            if dirty:
                victim_bank_key, victim_row = victim_key
                victim_address = DRAMAddress(
                    channel=victim_bank_key[0],
                    rank=victim_bank_key[1],
                    bankgroup=victim_bank_key[2],
                    bank=victim_bank_key[3],
                    row=victim_row,
                    column=0,
                )
                writeback_address = self._counter_dram_address(victim_address)
                self.controller.enqueue_mitigation_request(
                    writeback_address, is_write=True, cycle=cycle
                )
                self.stats.mitigation_memory_requests += 1
                self.stats.bump("rcc_writebacks")
        self._rcc[row_key] = False

    def _mark_dirty(self, row_key: Tuple) -> None:
        if row_key in self._rcc:
            self._rcc[row_key] = True
            self._rcc.move_to_end(row_key)

    def _counter_dram_address(self, address: DRAMAddress) -> DRAMAddress:
        """DRAM location of the RCT entry for ``address``'s row.

        The RCT is packed into the top rows of the same bank: one byte per
        row counter, ``row_size_bytes`` counters per DRAM row.
        """
        org = self.dram_config.organization
        counters_per_row = org.row_size_bytes // (self.config.counter_width_bits // 8 or 1)
        counters_per_row = max(1, counters_per_row)
        counter_row = org.rows_per_bank - 1 - (address.row // counters_per_row)
        counter_row = max(0, counter_row)
        column = (address.row % counters_per_row) % org.columns_per_row
        return DRAMAddress(
            channel=address.channel,
            rank=address.rank,
            bankgroup=address.bankgroup,
            bank=address.bank,
            row=counter_row,
            column=column,
        )

    def _maybe_reset(self, cycle: int) -> None:
        if self._next_reset_cycle is None or cycle < self._next_reset_cycle:
            return
        while cycle >= self._next_reset_cycle:
            self._next_reset_cycle += self._reset_period
        self._gct.clear()
        self._tracked_groups.clear()
        self._rct.clear()
        self._rcc.clear()
        self.stats.counter_resets += 1

    # ------------------------------------------------------------------ #
    # Storage model (Table 4)
    # ------------------------------------------------------------------ #
    def storage_bits_per_bank(self) -> int:
        """SRAM bits per bank: the GCT share plus the RCC share.

        Hydra's structures are per-channel rather than per-bank; dividing by
        the bank count keeps the interface uniform for the area model.
        """
        org = (
            self.dram_config.organization
            if self.dram_config is not None
            else None
        )
        rows_per_bank = org.rows_per_bank if org is not None else 128 * 1024
        banks = self.bank_count() if self.dram_config is not None else 32
        groups_per_bank = -(-rows_per_bank // self.config.rows_per_group)
        gct_bits = groups_per_bank * self.config.group_counter_width_bits
        rcc_bits_total = self.config.rcc_entries * (
            self.config.counter_width_bits + 20  # counter + tag
        )
        return gct_bits + rcc_bits_total // banks

    def storage_report(self) -> Dict[str, float]:
        banks = self.bank_count() if self.dram_config is not None else 32
        total_bits = self.storage_bits_per_bank() * banks
        org = self.dram_config.organization if self.dram_config is not None else None
        # Rows this instance protects: all rows of its banks (bank_count is
        # channel-scoped on a fabric instance, so per-channel reports sum to
        # the legacy whole-system figure).
        rows = banks * org.rows_per_bank if org is not None else 32 * 128 * 1024
        dram_bits = rows * self.config.counter_width_bits
        return {
            "sram_KiB": total_bits / 8 / 1024,
            "in_dram_counters_KiB": dram_bits / 8 / 1024,
            "total_KiB": total_bits / 8 / 1024,
        }
