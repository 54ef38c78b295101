"""The CoMeT RowHammer mitigation mechanism (Section 4 of the paper).

Operation on every row activation (Section 4.1):

1. **Periodic reset** (lazy): if the counter reset period (``tREFW / k``)
   elapsed, all Counter Table and RAT counters are cleared.
2. **Activation count estimation**: the activation count is the row's RAT
   counter if the row has a RAT entry, otherwise the minimum of its Counter
   Table counter group.
3. **Update / preventive refresh**: if the updated count reaches the
   preventive refresh threshold ``NPR = NRH / (k+1)``, CoMeT preventively
   refreshes the row's two neighbours and resets (RAT hit) or allocates
   (RAT miss) the row's RAT entry with counter 0, saturating the row's CT
   counter group at ``NPR`` on a miss; otherwise it increments the RAT
   counter (if present) or the CT counter group (conservative update).

   Below ``NPR`` an ACT costs one table look-up, as in the hardware: a RAT
   hit never touches the CT (the row's CT group has been at ``NPR`` since
   its entry was allocated, and only a reset of both tables lowers it), and
   a RAT miss estimates and counts the ACT in one pass over the row's
   counter group (:meth:`~repro.core.counter_table.CounterTable.record_activation`).
   Only an aggressor that missed the RAT visits its counter group twice:
   once to count, once to saturate.
4. **Early preventive refresh** (Section 4.2): every RAT miss by a row whose
   CT counters were *already* at ``NPR`` is a capacity miss (the row was
   evicted from the RAT); if the RAT-miss history vector holds more capacity
   misses than the early-preventive-refresh threshold, CoMeT refreshes the
   whole rank (tREFW/tREFI REF commands) and resets all counters.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.core.config import CoMeTConfig
from repro.core.counter_table import CounterTable
from repro.core.rat import RecentAggressorTable
from repro.dram.address import DRAMAddress
from repro.mitigations.base import RowHammerMitigation
from repro.experiment.registry import register_mitigation

BankKey = Tuple[int, int, int, int]


class _BankTracker:
    """Per-bank CoMeT state: one Counter Table, one RAT, one miss-history vector."""

    def __init__(self, config: CoMeTConfig, bank_seed: int) -> None:
        self.counter_table = CounterTable(config, bank_seed=bank_seed)
        self.rat = RecentAggressorTable(config.rat_entries, seed=bank_seed)
        self.miss_history: Deque[int] = deque(maxlen=config.rat_miss_history_length)

    def reset(self) -> None:
        self.counter_table.reset()
        self.rat.reset()
        self.miss_history.clear()

    @property
    def capacity_misses_in_history(self) -> int:
        return sum(self.miss_history)


@register_mitigation("comet")
class CoMeT(RowHammerMitigation):
    """Count-Min-Sketch-based row tracking to mitigate RowHammer at low cost."""

    name = "comet"

    def __init__(
        self,
        nrh: int,
        config: Optional[CoMeTConfig] = None,
        blast_radius: int = 1,
    ) -> None:
        super().__init__(nrh=nrh, blast_radius=blast_radius)
        self.config = config or CoMeTConfig(nrh=nrh, blast_radius=blast_radius)
        self._banks: Dict[BankKey, _BankTracker] = {}
        # Read once per ACT; the config is frozen.
        self._npr = self.config.npr
        self._next_reset_cycle: Optional[int] = None
        self._reset_period: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def attach(self, controller) -> None:
        super().attach(controller)
        self._reset_period = self.config.reset_period_cycles(self.dram_config.tREFW)
        self._next_reset_cycle = self._reset_period

    def bank_tracker(self, bank_key: BankKey) -> _BankTracker:
        tracker = self._banks.get(bank_key)
        if tracker is None:
            seed = self.config.hash_seed + (hash(bank_key) % 997)
            tracker = _BankTracker(self.config, bank_seed=seed)
            self._banks[bank_key] = tracker
        return tracker

    # ------------------------------------------------------------------ #
    # Main event hook (Section 4.1)
    # ------------------------------------------------------------------ #
    def on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        # Preventive ACTs are tracked like any other activation: the Counter
        # Table counts every ACT command the scheduler issues, and a
        # preventively refreshed victim row disturbs *its* neighbours, so
        # skipping these would leave refresh storms unobserved.
        next_reset = self._next_reset_cycle
        if next_reset is not None and cycle >= next_reset:
            self._periodic_reset(cycle)
        self.stats.observed_activations += 1

        bank_key = address.bank_key
        tracker = self._banks.get(bank_key)
        if tracker is None:
            tracker = self.bank_tracker(bank_key)
        row = address.row
        npr = self._npr

        # Step 2: activation count estimation (RAT wins over CT when present).
        # A RAT hit never touches the CT: the row's counter group has been at
        # NPR since the entry was allocated, and only a reset of both tables
        # lowers it.
        rat = tracker.rat
        rat_value = rat.lookup(row)
        if rat_value is not None:
            # Step 3 on a RAT hit.
            if rat_value + 1 >= npr:
                self.refresh_victims(cycle, address)
                rat.set(row, 0)
            else:
                rat.increment(row)
            return

        # Steps 2 and 3 on a RAT miss, in one pass over the CT counter group:
        # the estimate from before this ACT, and the conservative +1 unless
        # the ACT makes the row an aggressor.
        ct_estimate = tracker.counter_table.record_activation(row)
        if ct_estimate + 1 >= npr:
            self._handle_aggressor(cycle, address, tracker, ct_estimate)

    def _handle_aggressor(
        self,
        cycle: int,
        address: DRAMAddress,
        tracker: _BankTracker,
        ct_estimate: int,
    ) -> None:
        """Refresh the victims of a RAT-missing aggressor and give it a RAT entry."""
        row = address.row
        self.refresh_victims(cycle, address)
        tracker.counter_table.saturate(row)

        # Classify the RAT miss for the early-preventive-refresh mechanism.
        # A row whose CT counters were already at NPR before this activation
        # must have been identified as an aggressor earlier in this reset
        # period and then evicted from the RAT -> capacity miss.
        capacity_miss = ct_estimate >= self._npr
        tracker.miss_history.append(1 if capacity_miss else 0)
        if capacity_miss:
            tracker.rat.stats.capacity_misses += 1
        else:
            tracker.rat.stats.compulsory_misses += 1

        evicted = tracker.rat.allocate(row, 0)
        if evicted is not None:
            self.stats.bump("rat_evictions")

        # Step 4: early preventive refresh at coarse granularity (Section 4.2).
        if tracker.capacity_misses_in_history >= self.config.early_refresh_threshold:
            self._early_preventive_refresh(cycle, address)

    # ------------------------------------------------------------------ #
    # Early preventive refresh (Section 4.2)
    # ------------------------------------------------------------------ #
    def _early_preventive_refresh(self, cycle: int, address: DRAMAddress) -> None:
        """Refresh every row of the rank and reset all counters of its banks."""
        refresh_commands = max(1, self.dram_config.tREFW // self.dram_config.tREFI)
        self.controller.schedule_rank_refresh(address.channel, address.rank, refresh_commands)
        self.stats.early_refresh_operations += 1
        for bank_key, tracker in self._banks.items():
            if bank_key[0] == address.channel and bank_key[1] == address.rank:
                tracker.reset()

    # ------------------------------------------------------------------ #
    # Periodic counter reset (Section 4.3)
    # ------------------------------------------------------------------ #
    def _periodic_reset(self, cycle: int) -> None:
        """Clear every table; :meth:`on_activation` calls it once ``cycle``
        reaches the next reset boundary."""
        while cycle >= self._next_reset_cycle:
            self._next_reset_cycle += self._reset_period
        for tracker in self._banks.values():
            tracker.reset()
        self.stats.counter_resets += 1

    # ------------------------------------------------------------------ #
    # Storage model (Section 7.2 / Table 4)
    # ------------------------------------------------------------------ #
    def storage_bits_per_bank(self) -> int:
        return self.config.storage_bits_per_bank

    def storage_report(self) -> Dict[str, float]:
        banks = self.bank_count() if self.dram_config is not None else 32
        ct_bits = self.config.ct_storage_bits_per_bank * banks
        rat_bits = self.config.rat_storage_bits_per_bank * banks
        history_bits = self.config.history_storage_bits_per_bank * banks
        total = ct_bits + rat_bits + history_bits
        return {
            "ct_KiB": ct_bits / 8 / 1024,
            "rat_KiB": rat_bits / 8 / 1024,
            "history_KiB": history_bits / 8 / 1024,
            "total_KiB": total / 8 / 1024,
        }
