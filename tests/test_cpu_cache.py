"""Tests for the last-level cache model."""

import pytest

from repro.cpu.cache import AccessResult, CacheConfig, LastLevelCache


def _resident(cache, address):
    """Whether ``address``'s line is in the cache, without touching LRU order."""
    set_index, tag = cache._index_and_tag(address)
    return tag in cache._sets[set_index]


@pytest.fixture
def small_cache():
    # 8 KiB, 4-way, 64-byte lines -> 32 sets.
    return LastLevelCache(CacheConfig(size_bytes=8 * 1024, associativity=4, line_bytes=64))


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig(size_bytes=8 * 1024 * 1024, associativity=16, line_bytes=64)
        assert config.num_sets == 8192

    def test_paper_configs(self):
        assert CacheConfig.paper_single_core().size_bytes == 8 * 1024 * 1024
        assert CacheConfig.paper_multi_core().size_bytes == 16 * 1024 * 1024

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=3, line_bytes=64)


class TestCacheBehaviour:
    def test_miss_then_hit(self, small_cache):
        first = small_cache.access(0x1000)
        assert not first.hit
        assert first.fill_address == 0x1000
        second = small_cache.access(0x1000)
        assert second.hit
        assert small_cache.stats.hits == 1
        assert small_cache.stats.misses == 1

    def test_same_line_different_offset_hits(self, small_cache):
        small_cache.access(0x1000)
        assert small_cache.access(0x103F).hit

    def test_lru_eviction(self, small_cache):
        """Filling a set beyond associativity evicts the least recently used line."""
        config = small_cache.config
        set_stride = config.num_sets * config.line_bytes
        addresses = [i * set_stride for i in range(config.associativity + 1)]
        for address in addresses:
            small_cache.access(address)
        # The first (LRU) address must have been evicted.
        assert not _resident(small_cache, addresses[0])
        assert _resident(small_cache, addresses[-1])

    def test_lru_updated_on_hit(self, small_cache):
        config = small_cache.config
        set_stride = config.num_sets * config.line_bytes
        addresses = [i * set_stride for i in range(config.associativity)]
        for address in addresses:
            small_cache.access(address)
        # Touch the oldest line, then insert a new one: the second-oldest goes.
        small_cache.access(addresses[0])
        small_cache.access(config.associativity * set_stride)
        assert _resident(small_cache, addresses[0])
        assert not _resident(small_cache, addresses[1])

    def test_dirty_eviction_produces_writeback(self, small_cache):
        config = small_cache.config
        set_stride = config.num_sets * config.line_bytes
        small_cache.access(0, is_write=True)
        result = AccessResult(hit=True)
        for i in range(1, config.associativity + 1):
            result = small_cache.access(i * set_stride)
        assert result.writeback_address == 0
        assert small_cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self, small_cache):
        config = small_cache.config
        set_stride = config.num_sets * config.line_bytes
        small_cache.access(0, is_write=False)
        last = None
        for i in range(1, config.associativity + 1):
            last = small_cache.access(i * set_stride)
        assert last.writeback_address is None

    def test_write_hit_marks_dirty(self, small_cache):
        config = small_cache.config
        set_stride = config.num_sets * config.line_bytes
        small_cache.access(0)                 # clean fill
        small_cache.access(0, is_write=True)  # dirty it
        for i in range(1, config.associativity + 1):
            result = small_cache.access(i * set_stride)
        assert result.writeback_address == 0

    def test_hit_and_miss_rate(self, small_cache):
        small_cache.access(0x1000)
        small_cache.access(0x1000)
        stats = small_cache.stats
        assert (stats.accesses, stats.hits, stats.misses) == (2, 1, 1)

    def test_streaming_working_set_larger_than_cache_always_misses(self, small_cache):
        config = small_cache.config
        lines = config.num_sets * config.associativity * 2
        for i in range(lines):
            small_cache.access(i * config.line_bytes)
        for i in range(lines // 2):
            assert not small_cache.access(i * config.line_bytes).hit
