"""Tests for CoMeT's Counter Table (CMS-CU saturating at NPR)."""

import pytest

from repro.core.config import CoMeTConfig
from repro.core.counter_table import CounterTable


@pytest.fixture
def table():
    # NRH=124, k=3 -> NPR=31; small table to provoke collisions in tests.
    config = CoMeTConfig(nrh=124, num_hashes=2, counters_per_hash=32)
    return CounterTable(config)


class TestCounterTable:
    def test_npr_saturation(self, table):
        for _ in range(100):
            table.increment(5)
        assert table.estimate(5) == table.npr

    def test_increment_and_estimate(self, table):
        for i in range(1, 11):
            assert table.increment(9) == i
        assert table.estimate(9) == 10

    def test_never_underestimates(self):
        config = CoMeTConfig(nrh=1000, num_hashes=2, counters_per_hash=16)
        table = CounterTable(config)
        truth = {}
        for key in range(100):
            count = key % 5 + 1
            truth[key] = count
            for _ in range(count):
                table.increment(key)
        for key, count in truth.items():
            assert table.estimate(key) >= count

    def test_saturate_sets_group_to_npr(self, table):
        table.increment(7)
        table.saturate(7)
        assert table.estimate(7) == table.npr

    def test_saturated_counters_shared_by_colliding_rows(self):
        """A row sharing all counters with a saturated row is also estimated at NPR."""
        config = CoMeTConfig(nrh=124, num_hashes=1, counters_per_hash=4)
        table = CounterTable(config)
        # With one hash and 4 counters, collisions are guaranteed among 5 rows.
        rows = list(range(5))
        groups = {row: tuple(table.counter_group(row)) for row in rows}
        colliding = [
            (a, b) for a in rows for b in rows if a < b and groups[a] == groups[b]
        ]
        assert colliding, "expected at least one pair of colliding rows"
        a, b = colliding[0]
        table.saturate(a)
        assert table.estimate(b) == table.npr

    def test_reset_clears_counters(self, table):
        table.increment(3)
        table.saturate(3)
        table.reset()
        assert table.estimate(3) == 0
        assert not any(value for row in table._sketch._counters for value in row)

    def test_counter_group_size(self, table):
        assert len(table.counter_group(11)) == 2

    def test_storage_bits(self):
        config = CoMeTConfig(nrh=1000)
        table = CounterTable(config)
        assert table.storage_bits == 2048 * 8

    def test_different_bank_seeds_give_different_hashes(self):
        config = CoMeTConfig(nrh=1000)
        a = CounterTable(config, bank_seed=1)
        b = CounterTable(config, bank_seed=2)
        rows = range(200)
        different = sum(1 for row in rows if a.counter_group(row) != b.counter_group(row))
        assert different > 100

    def test_counter_array_shape(self, table):
        counters = table._sketch._counters
        assert len(counters) == 2
        assert len(counters[0]) == 32

    def test_record_activation_counts_below_npr_only(self, table):
        """CoMeT's one-pass ACT: the estimate before the ACT is returned, and
        the group stops one short of NPR, where CoMeT saturates it itself."""
        npr = table.npr
        assert [table.record_activation(4) for _ in range(npr + 2)] == (
            list(range(npr)) + [npr - 1, npr - 1]
        )
        assert table.estimate(4) == npr - 1
        table.saturate(4)
        assert table.record_activation(4) == npr
        assert table.estimate(4) == npr
