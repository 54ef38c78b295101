"""CoMeT's Counter Table (CT).

The CT is a Count-Min Sketch with conservative updates whose counters
saturate at the preventive refresh threshold ``NPR``.  Each DRAM bank has its
own CT (Section 7.2.1), and the CT is only ever reset in bulk — after a
periodic counter reset or an early preventive refresh — never per row,
because counters are shared between rows (Section 4).

CoMeT consults the CT only for rows without a RAT entry, and then estimates
and counts the ACT in one step: :meth:`CounterTable.record_activation`
hashes the row once, returns the estimate from before the ACT and
increments the counter group unless the ACT makes the row an aggressor.  An
aggressor's group is saturated at NPR instead (:meth:`CounterTable.saturate`).
:meth:`CounterTable.increment`, which counts up to NPR itself, serves the
tracker comparison of Figure 17 (:mod:`repro.analysis.false_positive`).
"""

from __future__ import annotations

from typing import List

from repro.core.config import CoMeTConfig
from repro.sketch.count_min import ConservativeCountMinSketch, SketchConfig


class CounterTable:
    """Per-bank hash-based activation counters (CMS-CU saturating at NPR)."""

    def __init__(self, config: CoMeTConfig, bank_seed: int = 0) -> None:
        self.config = config
        sketch_config = SketchConfig(
            num_hashes=config.num_hashes,
            counters_per_hash=config.counters_per_hash,
            counter_width_bits=config.counter_width_bits,
            seed=config.hash_seed + bank_seed,
        )
        # The sketch's default hash family is CoMeT's shift-mask family,
        # seeded per bank from ``sketch_config.seed``.
        self._sketch = ConservativeCountMinSketch(
            sketch_config, saturation_value=config.npr
        )

    # ------------------------------------------------------------------ #
    # CoMeT operations (Section 4.1)
    # ------------------------------------------------------------------ #
    def estimate(self, row: int) -> int:
        """Min-counter estimate of the row's activation count (never underestimates)."""
        return self._sketch.estimate(row)

    def record_activation(self, row: int) -> int:
        """Count one ACT of ``row`` and return its estimate from before the ACT.

        The group is incremented (conservative update) only when the new
        estimate stays below NPR; at NPR the row is an aggressor and CoMeT
        calls :meth:`saturate` instead.
        """
        return self._sketch.estimate_and_increment(row)

    def increment(self, row: int) -> int:
        """Conservative-update increment of the row's counter group."""
        return self._sketch.update(row, 1)

    def saturate(self, row: int) -> None:
        """Set every counter in the row's group to NPR (after a preventive refresh)."""
        self._sketch.set_group(row, self.config.npr)

    def reset(self) -> None:
        """Bulk reset (periodic reset or early preventive refresh)."""
        self._sketch.reset()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def counter_group(self, row: int) -> List[int]:
        return self._sketch.counter_group(row)

    @property
    def npr(self) -> int:
        return self.config.npr

    @property
    def storage_bits(self) -> int:
        return self.config.ct_storage_bits_per_bank
