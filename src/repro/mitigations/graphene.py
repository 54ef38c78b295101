"""Graphene: Misra-Gries-based RowHammer mitigation (Park et al., MICRO 2020).

Graphene keeps one Misra-Gries table of tagged (CAM) counters per bank.  Each
row activation updates the table; whenever a tracked row's counter reaches a
multiple of the Graphene threshold, the row's neighbours are preventively
refreshed.  The table is reset every tracking window.

Configuration follows the original work, as the CoMeT paper does (Section 6):

* tracking window: ``tREFW / reset_divider`` (``reset_divider = 2``),
* Graphene threshold ``T = NRH / 4`` — an aggressor can accumulate up to
  ``T - 1`` activations before a window reset and must still be caught before
  reaching ``NRH`` afterwards, and victims may also be disturbed from both
  sides, hence the /4 margin,
* table size ``ceil(W / T) + 1`` entries where ``W`` is the maximum number of
  activations a bank can receive in one window.

The entry count — and therefore the CAM storage reported in Table 1 — grows
roughly as ``1/NRH``, which is the scaling problem CoMeT addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.address import DRAMAddress
from repro.dram.config import DRAMConfig
from repro.mitigations.base import RowHammerMitigation
from repro.experiment.registry import register_mitigation
from repro.sketch.misra_gries import MisraGriesSummary, graphene_table_entries


@dataclass(frozen=True)
class GrapheneConfig:
    """Graphene parameters derived from the RowHammer threshold."""

    nrh: int
    reset_divider: int = 2
    threshold_divider: int = 4
    counter_width_bits: int = 12
    row_tag_bits: int = 17

    @property
    def threshold(self) -> int:
        """Graphene's per-table activation threshold."""
        return max(1, self.nrh // self.threshold_divider)

    def table_entries(self, max_activations_per_window: int) -> int:
        window_activations = max(1, max_activations_per_window // self.reset_divider)
        return graphene_table_entries(window_activations, self.threshold) + 1

    def storage_bits_per_bank(self, max_activations_per_window: int) -> int:
        entries = self.table_entries(max_activations_per_window)
        per_entry = self.row_tag_bits + self.counter_width_bits
        return entries * per_entry + self.counter_width_bits


@register_mitigation("graphene")
class Graphene(RowHammerMitigation):
    """Per-bank Misra-Gries tracking with preventive refresh."""

    name = "graphene"

    def __init__(
        self,
        nrh: int,
        config: Optional[GrapheneConfig] = None,
        blast_radius: int = 1,
    ) -> None:
        super().__init__(nrh=nrh, blast_radius=blast_radius)
        self.config = config or GrapheneConfig(nrh=nrh)
        self._tables: Dict[Tuple[int, int, int, int], MisraGriesSummary] = {}
        self._last_refresh_trigger: Dict[Tuple, int] = {}
        self._next_reset_cycle: Optional[int] = None
        self._table_entries: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def attach(self, controller) -> None:
        super().attach(controller)
        self._table_entries = self.config.table_entries(
            self.dram_config.max_activations_per_window
        )
        self._reset_period = max(1, self.dram_config.tREFW // self.config.reset_divider)
        self._next_reset_cycle = self._reset_period

    def _table_for(self, bank_key: Tuple[int, int, int, int]) -> MisraGriesSummary:
        table = self._tables.get(bank_key)
        if table is None:
            table = MisraGriesSummary(
                num_entries=self._table_entries,
                key_width_bits=self.config.row_tag_bits,
                counter_width_bits=self.config.counter_width_bits,
            )
            self._tables[bank_key] = table
        return table

    # ------------------------------------------------------------------ #
    # Event hooks
    # ------------------------------------------------------------------ #
    def on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        self._maybe_reset(cycle)
        self.stats.observed_activations += 1
        table = self._table_for(address.bank_key)
        estimate = table.update(address.row)
        threshold = self.config.threshold
        if estimate < threshold:
            return
        # Refresh the victims each time the counter crosses a new multiple of
        # the threshold (Graphene does not reset counters on refresh).
        trigger_key = (address.bank_key, address.row)
        triggered = estimate // threshold
        if triggered > self._last_refresh_trigger.get(trigger_key, 0):
            self._last_refresh_trigger[trigger_key] = triggered
            self.refresh_victims(cycle, address)

    def _maybe_reset(self, cycle: int) -> None:
        if self._next_reset_cycle is None or cycle < self._next_reset_cycle:
            return
        while cycle >= self._next_reset_cycle:
            self._next_reset_cycle += self._reset_period
        for table in self._tables.values():
            table.reset()
        self._last_refresh_trigger.clear()
        self.stats.counter_resets += 1

    # ------------------------------------------------------------------ #
    # Storage model (Table 1)
    # ------------------------------------------------------------------ #
    def storage_bits_per_bank(self) -> int:
        max_acts = (
            self.dram_config.max_activations_per_window
            if self.dram_config is not None
            else DRAMConfig().max_activations_per_window
        )
        return self.config.storage_bits_per_bank(max_acts)

    def storage_report(self) -> Dict[str, float]:
        banks = self.bank_count() if self.dram_config is not None else 32
        bits = self.storage_bits_per_bank() * banks
        return {
            "table_KiB": bits / 8 / 1024,
            "total_KiB": bits / 8 / 1024,
        }
