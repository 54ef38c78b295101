"""Last-level cache model.

A set-associative, write-back, write-allocate cache with true LRU replacement.
The simulated system of Table 2 uses an 8 MiB LLC for single-core runs and a
16 MiB shared LLC for 8-core runs; :func:`CacheConfig.paper_single_core` and
:func:`CacheConfig.paper_multi_core` build those configurations.

Workload generators may emit either LLC-miss traces (addresses already
filtered, the common case for the benchmark harnesses, mirroring Ramulator
DRAM traces) or CPU-level traces; in the latter case a core is configured
with a cache and only misses and dirty evictions reach the memory controller.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a cache."""

    size_bytes: int = 8 * 1024 * 1024
    associativity: int = 16
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ValueError("cache size must be divisible by associativity * line size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)

    @classmethod
    def paper_single_core(cls) -> "CacheConfig":
        """8 MiB LLC (Table 2, single-core)."""
        return cls(size_bytes=8 * 1024 * 1024)

    @classmethod
    def paper_multi_core(cls) -> "CacheConfig":
        """16 MiB shared LLC (Table 2, 8-core)."""
        return cls(size_bytes=16 * 1024 * 1024)


@dataclass
class CacheStatistics:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0


@dataclass
class AccessResult:
    """Outcome of a cache access."""

    hit: bool
    fill_address: Optional[int] = None
    writeback_address: Optional[int] = None


class LastLevelCache:
    """Set-associative write-back LLC with LRU replacement."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        # Each set is an OrderedDict tag -> dirty flag, ordered LRU -> MRU.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.config.num_sets)]
        self.stats = CacheStatistics()

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #
    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        line = address // self.config.line_bytes
        return line % self.config.num_sets, line // self.config.num_sets

    def _line_address(self, set_index: int, tag: int) -> int:
        return (tag * self.config.num_sets + set_index) * self.config.line_bytes

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Perform an access; report whether it hit and what traffic it generates.

        On a miss the returned :class:`AccessResult` carries the cache-line
        address to fetch from DRAM (``fill_address``) and, if a dirty line was
        evicted, the line address to write back (``writeback_address``).
        """
        self.stats.accesses += 1
        set_index, tag = self._index_and_tag(address)
        ways = self._sets[set_index]
        if tag in ways:
            self.stats.hits += 1
            dirty = ways.pop(tag)
            ways[tag] = dirty or is_write
            return AccessResult(hit=True)

        self.stats.misses += 1
        writeback_address = None
        if len(ways) >= self.config.associativity:
            victim_tag, victim_dirty = ways.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
                writeback_address = self._line_address(set_index, victim_tag)
        ways[tag] = is_write
        fill_address = self._line_address(set_index, tag)
        return AccessResult(
            hit=False, fill_address=fill_address, writeback_address=writeback_address
        )

    @property
    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)
