"""PRAC + ABO: per-row activation counting with Alert Back-Off (DDR5).

The JEDEC DDR5 update (JESD79-5C) moves RowHammer tracking into the DRAM
array itself: every row stores an activation counter that the device
increments during the ACT/PRE cycle (Per Row Activation Counting), and when
a counter crosses the alert threshold the device asserts the ``ALERT_n``
pin (Alert Back-Off).  The memory controller must then stop issuing demand
traffic for a recovery window while the device refreshes the victims of the
alerting row and resets its counter.

The model here follows that contract:

* each ACT increments the target row's in-DRAM counter (charged through
  ``DRAMStatistics.counter_updates`` by the energy model);
* at ``alert_threshold`` activations the device raises ABO: demand issue is
  stalled for ``tabo_cycles`` through the
  :meth:`~repro.mitigations.base.RowHammerMitigation.demand_blocked_until`
  hook, the aggressor's neighbours are refreshed in-DRAM (observed by the
  security verifier through ``notify_row_refresh`` and charged as
  ``in_dram_refresh_rows``) and the counter resets;
* periodic refresh rewrites the refreshed rows' counters (a refresh
  rewrites the whole row, counter bits included).

With ``alert_threshold = nrh // 2`` a victim can accumulate at most
``2 * (threshold - 1) + 1 < nrh`` disturbances between its refreshes — each
of its two aggressors is caught and the victim refreshed before either
reaches the threshold plus one final alerting ACT — so the mechanism stays
secure at arbitrarily low thresholds without any SRAM tracking state, which
is exactly the scaling argument for the DDR5 direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.address import DRAMAddress
from repro.experiment.registry import register_mitigation
from repro.mitigations.base import RowHammerMitigation


@dataclass(frozen=True)
class PRACConfig:
    """PRAC/ABO parameters derived from the RowHammer threshold."""

    nrh: int
    #: Alert threshold as a fraction of nrh: ``T = max(1, nrh // divider)``.
    #: 2 is the tightest safe divider for blast radius 1 (two aggressors per
    #: victim); larger dividers alert earlier and trade performance for
    #: margin.
    alert_divider: int = 2
    #: Demand-issue stall per ABO alert, in DRAM cycles (JEDEC tABO_ACT is
    #: ~180 ns; 256 cycles at 1.6 GHz is the same order).
    tabo_cycles: int = 256
    #: Width of the in-DRAM per-row activation counter.
    counter_bits: int = 10

    @property
    def alert_threshold(self) -> int:
        return max(1, self.nrh // self.alert_divider)


@register_mitigation("prac")
class PRAC(RowHammerMitigation):
    """In-DRAM per-row counters with Alert Back-Off demand back-pressure."""

    name = "prac"
    BLOCKS_DEMAND = True

    def __init__(
        self,
        nrh: int,
        config: Optional[PRACConfig] = None,
        blast_radius: int = 1,
    ) -> None:
        super().__init__(nrh=nrh, blast_radius=blast_radius)
        self.config = config or PRACConfig(nrh=nrh)
        #: In-DRAM counters: per bank, activations per row since the row's
        #: counter was last reset (alert or periodic refresh).
        self._counters: Dict[Tuple[int, int, int, int], Dict[int, int]] = {}
        #: End of the current Alert Back-Off window (0: no alert pending).
        self._abo_until: int = 0

    # ------------------------------------------------------------------ #
    # Event hooks
    # ------------------------------------------------------------------ #
    def on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        self.stats.observed_activations += 1
        bank_key = address.bank_key
        rows = self._counters.get(bank_key)
        if rows is None:
            rows = self._counters[bank_key] = {}
        count = rows.get(address.row, 0) + 1
        rows[address.row] = count
        if self.controller is not None:
            self.controller.dram.stats.counter_updates += 1
        if count >= self.config.alert_threshold:
            self._alert(cycle, address, rows)

    def _alert(
        self, cycle: int, aggressor: DRAMAddress, rows: Dict[int, int]
    ) -> None:
        """The device asserts ALERT_n: back off, refresh victims, reset."""
        self._abo_until = max(self._abo_until, cycle + self.config.tabo_cycles)
        del rows[aggressor.row]
        self.stats.counter_resets += 1
        self.stats.bump("abo_alerts")
        if self.controller is None:
            return
        victims = self.controller.mapper.neighbors(aggressor, self.blast_radius)
        dram = self.controller.dram
        for victim in victims:
            dram.notify_row_refresh(cycle, victim)
        dram.stats.in_dram_refresh_rows += len(victims)
        self.stats.bump("abo_victim_refreshes", len(victims))

    def on_refresh(
        self, cycle: int, rank_key: Tuple[int, int], start_row: int, count: int
    ) -> None:
        # A refresh rewrites the whole row, counter bits included, so the
        # covered rows restart from zero in every bank of the rank.
        channel, rank = rank_key
        end = start_row + count
        for bank_key, rows in self._counters.items():
            if bank_key[0] != channel or bank_key[1] != rank:
                continue
            stale = [row for row in rows if start_row <= row < end]
            for row in stale:
                del rows[row]

    def demand_blocked_until(self, cycle: int) -> int:
        return self._abo_until

    # ------------------------------------------------------------------ #
    # Storage model
    # ------------------------------------------------------------------ #
    def storage_bits_per_bank(self) -> int:
        """On-chip SRAM/CAM: none — PRAC's counters live in the DRAM rows."""
        return 0

    def storage_report(self) -> Dict[str, float]:
        if self.dram_config is not None:
            rows_per_bank = self.dram_config.organization.rows_per_bank
        else:
            rows_per_bank = 128 * 1024
        banks = self.bank_count() if self.dram_config is not None else 32
        in_dram_bits = rows_per_bank * self.config.counter_bits * banks
        return {
            "in_dram_counters_KiB": in_dram_bits / 8 / 1024,
            "total_KiB": 0.0,
        }
