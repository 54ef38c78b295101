"""Counting Bloom filter, the tracking structure used by BlockHammer.

BlockHammer (Yaglikci et al., HPCA 2021) tracks DRAM row activation *rates*
with a pair of counting Bloom filters (CBFs).  The key structural difference
from CoMeT's Counter Table, called out in Section 8.3 of the CoMeT paper, is
that a CBF's hash functions can map a row to *any* counter in a single shared
counter array, while CoMeT partitions its array into one set per hash
function.  That difference is what produces BlockHammer's higher
false-positive rate in Figure 17, and this module exists so the reproduction
can regenerate that comparison.

The implementation supports the dual-filter, epoch-based operation
BlockHammer uses: two filters alternate between an *active* and a *passive*
role every half refresh window, and the estimate of a row is taken from the
active filter (see :class:`DualCountingBloomFilter`).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.sketch.hashes import ShiftMaskHashFamily


class CountingBloomFilter:
    """A counting Bloom filter over integer keys.

    Parameters
    ----------
    num_counters:
        Size of the single shared counter array.
    num_hashes:
        Number of hash functions; all of them index the same array.
    counter_width_bits:
        Width of each counter (counters saturate, they never wrap).
    seed:
        Hash family seed.
    """

    def __init__(
        self,
        num_counters: int,
        num_hashes: int,
        counter_width_bits: int = 16,
        seed: int = 0,
    ) -> None:
        if num_counters <= 0:
            raise ValueError("num_counters must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_counters = num_counters
        self.num_hashes = num_hashes
        self.counter_width_bits = counter_width_bits
        self.saturation_value = (1 << counter_width_bits) - 1
        self.hash_family = ShiftMaskHashFamily(num_hashes, num_counters, seed=seed)
        self._counters = [0] * num_counters
        self.total_updates = 0

    def indices(self, key: int) -> List[int]:
        """Counter indices touched by ``key`` (may contain duplicates)."""
        return self.hash_family.hash_all(key)

    def update(self, key: int, amount: int = 1) -> int:
        """Record ``amount`` occurrences of ``key`` using conservative updates.

        BlockHammer's CBFs use conservative (minimum-increment) updates, the
        same optimization as CMS-CU, so only counters at the current minimum
        are advanced.
        """
        if amount < 0:
            raise ValueError("counting Bloom filter does not support negative updates")
        self.total_updates += amount
        idx = self.hash_family.hash_all(key)
        counters = self._counters
        current = [counters[i] for i in idx]
        target = min(min(current) + amount, self.saturation_value)
        for i, value in zip(idx, current):
            if value < target:
                counters[i] = target
        # The counters at the old minimum were raised to ``target``, so the
        # group's new minimum — the estimate — is ``target`` itself.
        return target

    def estimate(self, key: int) -> int:
        """Never-underestimating frequency estimate of ``key``."""
        counters = self._counters
        return min(counters[i] for i in self.hash_family.hash_all(key))

    def contains(self, key: int, threshold: int) -> bool:
        """True when the estimate of ``key`` is at least ``threshold``."""
        return self.estimate(key) >= threshold

    def reset(self) -> None:
        """Clear all counters (epoch rollover)."""
        self._counters = [0] * self.num_counters
        self.total_updates = 0

    def counters_snapshot(self) -> List[int]:
        return list(self._counters)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data checkpoint of the mutable filter state."""
        return {
            "counters": self.counters_snapshot(),
            "total_updates": self.total_updates,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        self._counters = list(state["counters"])
        self.total_updates = state["total_updates"]

    @property
    def storage_bits(self) -> int:
        return self.num_counters * self.counter_width_bits

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CountingBloomFilter(num_counters={self.num_counters}, "
            f"num_hashes={self.num_hashes}, updates={self.total_updates})"
        )


class DualCountingBloomFilter:
    """BlockHammer-style pair of CBFs with epoch-based role swapping.

    Both filters are updated on every activation; at the end of each epoch the
    older filter is cleared and the roles swap.  Estimates come from the
    filter that has been accumulating the longest (the *active* filter), which
    guarantees the estimate covers at least one full epoch of history and thus
    never underestimates the activation count within the current epoch.
    """

    def __init__(
        self,
        num_counters: int,
        num_hashes: int,
        counter_width_bits: int = 16,
        seed: int = 0,
    ) -> None:
        self.filters = [
            CountingBloomFilter(num_counters, num_hashes, counter_width_bits, seed=seed),
            CountingBloomFilter(num_counters, num_hashes, counter_width_bits, seed=seed + 1),
        ]
        self.active_index = 0
        self.epoch = 0

    @property
    def active(self) -> CountingBloomFilter:
        return self.filters[self.active_index]

    @property
    def passive(self) -> CountingBloomFilter:
        return self.filters[1 - self.active_index]

    def update(self, key: int, amount: int = 1) -> int:
        """Update both filters; return the active filter's new estimate."""
        self.passive.update(key, amount)
        return self.active.update(key, amount)

    def estimate(self, key: int) -> int:
        return self.active.estimate(key)

    def rollover(self) -> None:
        """End the epoch: clear the active filter and promote the passive one."""
        self.active.reset()
        self.active_index = 1 - self.active_index
        self.epoch += 1

    def reset(self) -> None:
        for f in self.filters:
            f.reset()
        self.active_index = 0
        self.epoch = 0

    @property
    def storage_bits(self) -> int:
        return sum(f.storage_bits for f in self.filters)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data checkpoint: both filters plus the epoch bookkeeping."""
        return {
            "filters": [f.snapshot() for f in self.filters],
            "active_index": self.active_index,
            "epoch": self.epoch,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        for f, sub in zip(self.filters, state["filters"]):
            f.restore(sub)
        self.active_index = state["active_index"]
        self.epoch = state["epoch"]

