"""Tests for CoMeT's Recent Aggressor Table."""

import pytest

from repro.core.rat import RecentAggressorTable


class TestRAT:
    def test_allocate_and_lookup(self):
        rat = RecentAggressorTable(num_entries=4)
        rat.allocate(10, 0)
        assert rat.lookup(10) == 0
        assert rat.stats.hits == 1

    def test_lookup_miss(self):
        rat = RecentAggressorTable(num_entries=4)
        assert rat.lookup(99) is None
        assert rat.stats.misses == 1

    def test_increment(self):
        rat = RecentAggressorTable(num_entries=4)
        rat.allocate(5, 0)
        assert rat.increment(5) == 1
        assert rat.increment(5) == 2

    def test_increment_missing_entry_raises(self):
        rat = RecentAggressorTable(num_entries=4)
        with pytest.raises(KeyError):
            rat.increment(5)

    def test_set_existing_entry(self):
        rat = RecentAggressorTable(num_entries=4)
        rat.allocate(5, 7)
        rat.set(5, 0)
        assert rat.lookup(5) == 0

    def test_set_missing_entry_raises(self):
        rat = RecentAggressorTable(num_entries=4)
        with pytest.raises(KeyError):
            rat.set(5, 0)

    def test_allocation_of_existing_row_resets_value(self):
        rat = RecentAggressorTable(num_entries=4)
        rat.allocate(5, 3)
        evicted = rat.allocate(5, 0)
        assert evicted is None
        assert rat.lookup(5) == 0
        assert rat.occupancy == 1

    def test_random_eviction_when_full(self):
        rat = RecentAggressorTable(num_entries=3, seed=7)
        for row in range(3):
            assert rat.allocate(row, 0) is None
        assert rat.occupancy == rat.num_entries
        evicted = rat.allocate(99, 0)
        assert evicted in {0, 1, 2}
        assert rat.lookup(99) == 0
        assert rat.lookup(evicted) is None
        assert rat.occupancy == 3
        assert rat.stats.evictions == 1

    def test_eviction_is_deterministic_for_seed(self):
        def evicted_sequence(seed):
            rat = RecentAggressorTable(num_entries=4, seed=seed)
            for row in range(4):
                rat.allocate(row, 0)
            return [rat.allocate(100 + i, 0) for i in range(4)]

        assert evicted_sequence(3) == evicted_sequence(3)

    def test_reset(self):
        rat = RecentAggressorTable(num_entries=4)
        rat.allocate(1, 0)
        rat.reset()
        assert rat.occupancy == 0
        assert rat.lookup(1) is None

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RecentAggressorTable(num_entries=0)

