"""Tests for the Misra-Gries summary (Graphene's tracking algorithm)."""

import pytest

from repro.sketch.misra_gries import MisraGriesSummary, graphene_table_entries


class TestMisraGries:
    def test_tracked_item_counts_exactly_when_table_has_room(self):
        summary = MisraGriesSummary(num_entries=8)
        for _ in range(25):
            summary.update(3)
        assert summary.estimate(3) == 25
        assert summary.occupancy == 1

    def test_estimate_is_upper_bound(self):
        """Misra-Gries never underestimates: estimate >= true count."""
        summary = MisraGriesSummary(num_entries=4)
        truth = {}
        stream = []
        for key in range(20):
            count = (key % 5) + 1
            truth[key] = count
            stream.extend([key] * count)
        # Interleave to exercise evictions.
        stream = stream[::2] + stream[1::2]
        for key in stream:
            summary.update(key)
        for key, count in truth.items():
            assert summary.estimate(key) >= count

    def test_spillover_grows_when_table_full(self):
        summary = MisraGriesSummary(num_entries=2)
        # Three heavy keys fight over two entries.
        for _ in range(10):
            summary.update(1)
            summary.update(2)
            summary.update(3)
        assert summary.spillover > 0
        # Untracked keys are estimated at the spillover value.
        assert summary.estimate(999) == summary.spillover

    def test_heavy_hitter_survives_light_noise(self):
        summary = MisraGriesSummary(num_entries=8)
        for i in range(400):
            summary.update(7)          # heavy hitter
            summary.update(1000 + i)   # a stream of one-off keys
        # Untracked keys estimate at the spillover value.
        assert summary.estimate(7) > summary.spillover
        assert summary.estimate(7) >= 400

    def test_reset(self):
        summary = MisraGriesSummary(num_entries=4)
        for key in range(10):
            summary.update(key)
        summary.reset()
        assert summary.occupancy == 0
        assert summary.spillover == 0
        assert summary.estimate(0) == 0

    def test_update_amount(self):
        summary = MisraGriesSummary(num_entries=4)
        assert summary.update(9, 7) == 7

    def test_negative_update_rejected(self):
        summary = MisraGriesSummary(num_entries=4)
        with pytest.raises(ValueError):
            summary.update(1, -1)

    def test_invalid_entry_count(self):
        with pytest.raises(ValueError):
            MisraGriesSummary(num_entries=0)

    def test_storage_bits(self):
        summary = MisraGriesSummary(num_entries=100, key_width_bits=17, counter_width_bits=12)
        assert summary.storage_bits == 100 * (17 + 12) + 12


class TestGrapheneTableSizing:
    def test_entries_scale_inversely_with_threshold(self):
        window = 1_000_000
        entries_1k = graphene_table_entries(window, 250)
        entries_125 = graphene_table_entries(window, 31)
        assert entries_125 > entries_1k * 7

    def test_exact_division(self):
        assert graphene_table_entries(1000, 100) == 10

    def test_rounds_up(self):
        assert graphene_table_entries(1001, 100) == 11

    def test_minimum_one_entry(self):
        assert graphene_table_entries(0, 100) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            graphene_table_entries(1000, 0)
        with pytest.raises(ValueError):
            graphene_table_entries(-1, 10)
