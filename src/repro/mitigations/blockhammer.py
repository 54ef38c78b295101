"""BlockHammer: counting-Bloom-filter blacklisting with throttling (HPCA 2021).

BlockHammer tracks per-bank row activation *rates* in a pair of counting
Bloom filters (one active, one passive, swapping roles every epoch) and
throttles — i.e. delays — activations to rows whose estimated activation
count exceeds a blacklisting threshold, so that no row can reach the
RowHammer threshold within a refresh window.

The CoMeT paper compares against BlockHammer in two ways, both reproduced
here and in :mod:`repro.analysis.false_positive`:

* Figure 17 contrasts the false-positive rates of BlockHammer's tracker
  (hash functions share one counter array) with CoMeT's Counter Table
  (one counter set per hash function).
* Figure 18 compares end-to-end performance; BlockHammer loses at low
  thresholds because false positives cause benign rows to be throttled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.address import DRAMAddress
from repro.mitigations.base import RowHammerMitigation
from repro.experiment.registry import register_mitigation
from repro.sketch.counting_bloom import DualCountingBloomFilter


@dataclass(frozen=True)
class BlockHammerConfig:
    """BlockHammer parameters."""

    nrh: int
    num_counters: int = 1024
    num_hashes: int = 4
    counter_width_bits: int = 16
    #: Fraction of NRH at which a row becomes blacklisted.
    blacklist_fraction: float = 0.5
    #: Number of epochs per refresh window (the CBFs swap roles each epoch).
    epochs_per_window: int = 2
    #: Safety factor on the throttling delay.
    delay_safety_factor: float = 2.0

    @property
    def blacklist_threshold(self) -> int:
        return max(1, int(self.nrh * self.blacklist_fraction))


@register_mitigation("blockhammer", seedable=True)
class BlockHammer(RowHammerMitigation):
    """Counting-Bloom-filter tracker plus activation throttling."""

    name = "blockhammer"

    def __init__(
        self,
        nrh: int,
        config: Optional[BlockHammerConfig] = None,
        blast_radius: int = 1,
        seed: int = 0,
    ) -> None:
        super().__init__(nrh=nrh, blast_radius=blast_radius)
        self.config = config or BlockHammerConfig(nrh=nrh)
        self._seed = seed
        self._filters: Dict[Tuple[int, int, int, int], DualCountingBloomFilter] = {}
        self._last_blacklisted_act: Dict[Tuple, int] = {}
        self._next_epoch_cycle: Optional[int] = None
        self._epoch_length: Optional[int] = None
        self._throttle_gap_cycles: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def attach(self, controller) -> None:
        super().attach(controller)
        self._epoch_length = max(
            1, self.dram_config.tREFW // self.config.epochs_per_window
        )
        self._next_epoch_cycle = self._epoch_length
        # A blacklisted row may be activated at most (NRH - blacklist
        # threshold) more times before the window ends; spacing those
        # activations evenly over the window (with a safety factor) keeps the
        # total below NRH.
        budget = max(1, self.nrh - self.config.blacklist_threshold)
        self._throttle_gap_cycles = int(
            self.config.delay_safety_factor * self.dram_config.tREFW / budget
        )

    def _filter_for(self, bank_key: Tuple[int, int, int, int]) -> DualCountingBloomFilter:
        cbf = self._filters.get(bank_key)
        if cbf is None:
            cbf = DualCountingBloomFilter(
                num_counters=self.config.num_counters,
                num_hashes=self.config.num_hashes,
                counter_width_bits=self.config.counter_width_bits,
                seed=self._seed + hash(bank_key) % 1024,
            )
            self._filters[bank_key] = cbf
        return cbf

    # ------------------------------------------------------------------ #
    # Event hooks
    # ------------------------------------------------------------------ #
    def on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        # Preventive ACTs disturb their neighbours like any other activation,
        # so they are tracked as well (they are never throttled, though:
        # act_allowed_cycle only applies to demand requests).
        self._maybe_rollover(cycle)
        self.stats.observed_activations += 1
        cbf = self._filter_for(address.bank_key)
        estimate = cbf.update(address.row)
        if estimate >= self.config.blacklist_threshold:
            self._last_blacklisted_act[(address.bank_key, address.row)] = cycle

    def act_allowed_cycle(self, address: DRAMAddress, cycle: int) -> int:
        """Delay activations to blacklisted rows (the RowBlocker throttle)."""
        if self._throttle_gap_cycles is None:
            return cycle
        cbf = self._filters.get(address.bank_key)
        if cbf is None:
            return cycle
        if cbf.estimate(address.row) < self.config.blacklist_threshold:
            return cycle
        key = (address.bank_key, address.row)
        last = self._last_blacklisted_act.get(key)
        if last is None:
            return cycle
        allowed = last + self._throttle_gap_cycles
        if allowed > cycle:
            self.stats.throttled_activations += 1
        return max(cycle, allowed)

    def _maybe_rollover(self, cycle: int) -> None:
        if self._next_epoch_cycle is None or cycle < self._next_epoch_cycle:
            return
        # Roll over once per elapsed epoch so long idle gaps age out history
        # from both filters, exactly as elapsed wall-clock time would.
        while cycle >= self._next_epoch_cycle:
            self._next_epoch_cycle += self._epoch_length
            for cbf in self._filters.values():
                cbf.rollover()
            self.stats.counter_resets += 1
        self._last_blacklisted_act.clear()

    # ------------------------------------------------------------------ #
    # Storage model
    # ------------------------------------------------------------------ #
    def storage_bits_per_bank(self) -> int:
        # Two CBFs per bank plus the per-row throttle bookkeeping (modelled as
        # part of the scheduler in the original work).
        return 2 * self.config.num_counters * self.config.counter_width_bits
