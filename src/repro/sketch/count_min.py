"""Count-Min Sketch and the conservative-update variant (CMS-CU).

These are faithful implementations of the structures described in Section 2.3
of the CoMeT paper:

* :class:`CountMinSketch` — a ``k × m`` counter array indexed by ``k`` hash
  functions.  ``update`` increments every counter of an item's counter group;
  ``estimate`` returns the minimum counter of the group.  The estimate never
  underestimates the true frequency and may overestimate it.
* :class:`ConservativeCountMinSketch` — CMS with conservative updates
  (Estan & Varghese): only the counters currently holding the group's minimum
  value are incremented, which reduces overestimation while preserving the
  never-underestimate property.

Both support counter saturation at a configurable ceiling (CoMeT's Counter
Table saturates counters at the preventive refresh threshold and never resets
individual counters) and bulk reset (CoMeT's periodic counter reset).

CoMeT looks a row up and counts it in the same step (Section 4.1), so
:meth:`ConservativeCountMinSketch.estimate_and_increment` does both in one
pass over the row's counter group: it hashes the key once, returns the
estimate from before the ACT, and applies the conservative +1 only while the
incremented estimate stays below the saturation value.  At the saturation
value CoMeT saturates the whole group itself (:meth:`CountMinSketch.set_group`),
so ``total_updates`` counts exactly the increments that were applied.

Counters live in a plain list of ``k`` per-hash lists of Python ints and are
updated one key at a time, as the hardware does one ACT at a time; snapshots
are those lists copied, so they pickle and serialise as JSON unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sketch.hashes import HashFamily, ShiftMaskHashFamily


@dataclass(frozen=True)
class SketchConfig:
    """Configuration of a Count-Min Sketch.

    Attributes
    ----------
    num_hashes:
        Number of hash functions (``k``, the number of counter rows).
    counters_per_hash:
        Number of counters per hash function (``m``, the row width).
    counter_width_bits:
        Width of each counter; counters saturate at ``2**width - 1`` unless a
        lower ``saturation_value`` is given at construction time.
    seed:
        Seed for the default shift-mask hash family.
    """

    num_hashes: int = 4
    counters_per_hash: int = 512
    counter_width_bits: int = 10
    seed: int = 0

    @property
    def total_counters(self) -> int:
        return self.num_hashes * self.counters_per_hash

    @property
    def storage_bits(self) -> int:
        """Total storage of the counter array in bits."""
        return self.total_counters * self.counter_width_bits


class CountMinSketch:
    """Classic Count-Min Sketch over integer keys.

    Parameters
    ----------
    config:
        Sketch geometry and hashing configuration.
    hash_family:
        Optional pre-built hash family; when omitted a
        :class:`~repro.sketch.hashes.ShiftMaskHashFamily` is built from the
        config (matching CoMeT's hardware-style hashing).
    saturation_value:
        Optional ceiling for counters.  ``None`` means counters saturate at
        the maximum value representable in ``counter_width_bits``.
    """

    def __init__(
        self,
        config: SketchConfig,
        hash_family: Optional[HashFamily] = None,
        saturation_value: Optional[int] = None,
    ) -> None:
        self.config = config
        if hash_family is None:
            hash_family = ShiftMaskHashFamily(
                config.num_hashes, config.counters_per_hash, seed=config.seed
            )
        if hash_family.num_hashes != config.num_hashes:
            raise ValueError("hash family size does not match config.num_hashes")
        if hash_family.num_buckets != config.counters_per_hash:
            raise ValueError("hash family range does not match config.counters_per_hash")
        self.hash_family = hash_family
        max_representable = (1 << config.counter_width_bits) - 1
        if saturation_value is None:
            saturation_value = max_representable
        if saturation_value > max_representable:
            raise ValueError(
                f"saturation_value {saturation_value} does not fit in "
                f"{config.counter_width_bits}-bit counters"
            )
        self.saturation_value = saturation_value
        self._counters = self._zeroed()
        self.total_updates = 0

    def _zeroed(self) -> List[List[int]]:
        return [[0] * self.config.counters_per_hash for _ in range(self.config.num_hashes)]

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def counter_group(self, key: int) -> List[int]:
        """Return the counter indices (one per hash row) for ``key``."""
        return self.hash_family.hash_all(key)

    def estimate(self, key: int) -> int:
        """Return the (never-underestimating) frequency estimate for ``key``."""
        counters = self._counters
        indices = self.hash_family.hash_all(key)
        return min(counters[row][column] for row, column in enumerate(indices))

    def update(self, key: int, amount: int = 1) -> int:
        """Record ``amount`` occurrences of ``key`` and return the new estimate."""
        if amount < 0:
            raise ValueError("Count-Min Sketch does not support negative updates")
        indices = self.hash_family.hash_all(key)
        self.total_updates += amount
        saturation = self.saturation_value
        counters = self._counters
        minimum = saturation
        for row, column in enumerate(indices):
            value = counters[row][column] + amount
            if value > saturation:
                value = saturation
            counters[row][column] = value
            if value < minimum:
                minimum = value
        return minimum

    def set_group(self, key: int, value: int) -> None:
        """Force every counter of ``key``'s group to ``value`` (clamped to saturation).

        CoMeT uses this when a row triggers a preventive refresh: the group's
        counters are set to the preventive refresh threshold so they remain a
        valid over-estimate for every other row sharing them.
        """
        value = min(value, self.saturation_value)
        counters = self._counters
        for row, column in enumerate(self.hash_family.hash_all(key)):
            if counters[row][column] < value:
                counters[row][column] = value

    def reset(self) -> None:
        """Reset every counter to zero (CoMeT's periodic reset / early refresh)."""
        self._counters = self._zeroed()
        self.total_updates = 0

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    def counters_snapshot(self) -> List[List[int]]:
        """Deep copy of the counter array."""
        return [list(row) for row in self._counters]

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data checkpoint of the mutable sketch state.

        Geometry, hashing and the saturation ceiling are construction-time
        constants and are not captured; ``restore`` assumes an identically
        configured instance.
        """
        return {
            "counters": self.counters_snapshot(),
            "total_updates": self.total_updates,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        self._counters = [list(row) for row in state["counters"]]
        self.total_updates = state["total_updates"]

    def max_counter(self) -> int:
        """Largest counter value currently stored."""
        return max(max(row) for row in self._counters)

    def num_saturated_counters(self) -> int:
        """Number of counters currently at the saturation value."""
        return sum(
            1 for row in self._counters for value in row if value >= self.saturation_value
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(k={self.config.num_hashes}, "
            f"m={self.config.counters_per_hash}, "
            f"saturation={self.saturation_value}, updates={self.total_updates})"
        )


class ConservativeCountMinSketch(CountMinSketch):
    """Count-Min Sketch with conservative updates (CMS-CU).

    On an update, only counters currently equal to the group minimum are
    incremented (and only up to ``old_minimum + amount``); counters already
    above that target are left untouched.  This is the variant CoMeT's
    Counter Table uses (Section 2.3, "Optimizations").
    """

    def update(self, key: int, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError("Count-Min Sketch does not support negative updates")
        indices = self.hash_family.hash_all(key)
        self.total_updates += amount
        counters = self._counters
        current = [counters[row][column] for row, column in enumerate(indices)]
        target = min(min(current) + amount, self.saturation_value)
        for (row, column), value in zip(enumerate(indices), current):
            if value < target:
                counters[row][column] = target
        # The counters at the old minimum were just raised to ``target``, so
        # the group's new minimum — the estimate — is ``target`` itself.
        return target

    def estimate_and_increment(self, key: int) -> int:
        """Return ``key``'s estimate, then count one occurrence of ``key``.

        Equal to ``estimate(key)`` followed by ``update(key, 1)`` when
        ``estimate(key) + 1 < saturation_value``, and to ``estimate(key)``
        alone otherwise (the group is left as it is and ``total_updates``
        does not move) — but the key is hashed once and its counter group
        read once.
        """
        indices = self.hash_family.hash_all(key)
        counters = self._counters
        minimum = min([row[column] for row, column in zip(counters, indices)])
        target = minimum + 1
        if target < self.saturation_value:
            self.total_updates += 1
            for row, column in zip(counters, indices):
                if row[column] == minimum:
                    row[column] = target
        return minimum
