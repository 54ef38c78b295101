"""CoMeT's Recent Aggressor Table (RAT).

The RAT is a small, per-bank table of tagged per-row counters.  An entry is
allocated only when a row's Counter Table estimate reaches the preventive
refresh threshold ``NPR``; from then on the row's activation count comes from
its (exact) RAT counter rather than from the saturated sketch counters, which
is what prevents repeated unnecessary preventive refreshes (Section 4).

When the RAT is full a random victim entry is evicted (Section 4.1, step 3);
the evicted row falls back to its saturated CT counters, which is safe (the
estimate is an overestimate) but may cause an unnecessary refresh on its next
activation — the effect that the early-preventive-refresh mechanism and
Figure 8 are about.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class RATStatistics:
    """RAT behaviour counters used by the Figure 8 analysis."""

    allocations: int = 0
    evictions: int = 0
    hits: int = 0
    misses: int = 0
    capacity_misses: int = 0
    compulsory_misses: int = 0


class RecentAggressorTable:
    """Per-bank table of tagged per-row activation counters with random eviction."""

    def __init__(self, num_entries: int, seed: int = 0) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self._entries: Dict[int, int] = {}
        self._rng = random.Random(seed)
        self.stats = RATStatistics()

    # ------------------------------------------------------------------ #
    # Lookup / update
    # ------------------------------------------------------------------ #
    def lookup(self, row: int) -> Optional[int]:
        """Counter value for ``row`` or None when the row has no entry."""
        value = self._entries.get(row)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def increment(self, row: int) -> int:
        """Increment an existing entry; raises KeyError when absent."""
        self._entries[row] += 1
        return self._entries[row]

    def set(self, row: int, value: int) -> None:
        """Overwrite an existing entry's counter (used after preventive refresh)."""
        if row not in self._entries:
            raise KeyError(f"row {row} has no RAT entry")
        self._entries[row] = value

    def allocate(self, row: int, value: int = 0) -> Optional[int]:
        """Allocate an entry for ``row``; returns the evicted row, if any."""
        evicted = None
        if row in self._entries:
            self._entries[row] = value
            return None
        if len(self._entries) >= self.num_entries:
            evicted = self._rng.choice(list(self._entries.keys()))
            del self._entries[evicted]
            self.stats.evictions += 1
        self._entries[row] = value
        self.stats.allocations += 1
        return evicted

    def reset(self) -> None:
        """Clear the table (periodic reset / early preventive refresh)."""
        self._entries.clear()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RecentAggressorTable(entries={self.num_entries}, "
            f"occupancy={self.occupancy})"
        )
