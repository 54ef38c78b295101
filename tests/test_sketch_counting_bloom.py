"""Tests for the counting Bloom filter (BlockHammer's tracker substrate)."""

import pytest

from repro.sketch.counting_bloom import (
    CountingBloomFilter,
    DualCountingBloomFilter,
)


class TestCountingBloomFilter:
    def test_single_key_exact(self):
        cbf = CountingBloomFilter(num_counters=256, num_hashes=4, seed=1)
        for _ in range(12):
            cbf.update(500)
        assert cbf.estimate(500) == 12

    def test_never_underestimates(self):
        cbf = CountingBloomFilter(num_counters=64, num_hashes=3, seed=2)
        truth = {}
        for key in range(200):
            count = key % 4 + 1
            truth[key] = count
            for _ in range(count):
                cbf.update(key)
        for key, count in truth.items():
            assert cbf.estimate(key) >= count

    def test_contains_threshold(self):
        cbf = CountingBloomFilter(num_counters=128, num_hashes=4)
        cbf.update(3, 10)
        assert cbf.contains(3, 10)
        assert not cbf.contains(3, 11)

    def test_reset(self):
        cbf = CountingBloomFilter(num_counters=64, num_hashes=2)
        cbf.update(1, 5)
        cbf.reset()
        assert cbf.estimate(1) == 0
        assert cbf.total_updates == 0

    def test_saturation(self):
        cbf = CountingBloomFilter(num_counters=32, num_hashes=2, counter_width_bits=4)
        cbf.update(9, 100)
        assert cbf.estimate(9) == 15

    def test_negative_update_rejected(self):
        cbf = CountingBloomFilter(num_counters=32, num_hashes=2)
        with pytest.raises(ValueError):
            cbf.update(1, -1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(num_counters=0, num_hashes=2)
        with pytest.raises(ValueError):
            CountingBloomFilter(num_counters=16, num_hashes=0)

    def test_storage_bits(self):
        cbf = CountingBloomFilter(num_counters=1024, num_hashes=4, counter_width_bits=16)
        assert cbf.storage_bits == 1024 * 16

    def test_shared_array_creates_more_aliasing_than_partitioned_cms(self):
        """The structural point of Figure 17: sharing one array aliases more.

        With the same total counter budget, the CBF (shared array) should
        produce at least as much total overestimation as a partitioned CMS.
        """
        from repro.sketch.count_min import ConservativeCountMinSketch, SketchConfig

        cms = ConservativeCountMinSketch(
            SketchConfig(num_hashes=4, counters_per_hash=64, counter_width_bits=16, seed=4)
        )
        cbf = CountingBloomFilter(num_counters=256, num_hashes=4, seed=4)
        truth = {}
        stream = [(key * 17) % 1499 for key in range(6000)]
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
            cms.update(key)
            cbf.update(key)
        cms_error = sum(cms.estimate(k) - c for k, c in truth.items())
        cbf_error = sum(cbf.estimate(k) - c for k, c in truth.items())
        assert cbf_error >= cms_error * 0.5  # CBF should not be dramatically better


class TestDualCountingBloomFilter:
    def test_updates_touch_both_filters(self):
        dual = DualCountingBloomFilter(num_counters=128, num_hashes=3)
        dual.update(42, 4)
        assert dual.active.estimate(42) == 4
        assert dual.passive.estimate(42) == 4

    def test_rollover_keeps_recent_history(self):
        dual = DualCountingBloomFilter(num_counters=128, num_hashes=3)
        dual.update(42, 4)
        dual.rollover()
        # The formerly passive filter (which also saw the updates) is active now.
        assert dual.estimate(42) == 4
        dual.rollover()
        # After two rollovers with no new updates the count is gone.
        assert dual.estimate(42) == 0

    def test_reset(self):
        dual = DualCountingBloomFilter(num_counters=64, num_hashes=2)
        dual.update(3, 9)
        dual.rollover()
        dual.reset()
        assert dual.estimate(3) == 0
        assert dual.epoch == 0

    def test_storage_is_double_single_filter(self):
        dual = DualCountingBloomFilter(num_counters=256, num_hashes=4, counter_width_bits=8)
        assert dual.storage_bits == 2 * 256 * 8

