"""Tests for the RowPress-aware threshold adaptation."""

import pytest

from repro.core.config import CoMeTConfig
from repro.core.rowpress import (
    RowPressAwareConfig,
    effective_rowhammer_threshold,
    row_open_time_cap_cycles,
    rowpress_reduction_factor,
)
from repro.dram.config import DRAMTiming


class TestReductionFactor:
    def test_minimum_open_time_no_reduction(self):
        assert rowpress_reduction_factor(36.0) == pytest.approx(1.0)
        assert rowpress_reduction_factor(10.0) == pytest.approx(1.0)

    def test_monotonically_decreasing(self):
        times = [36, 100, 1_000, 10_000, 100_000, 1_000_000]
        factors = [rowpress_reduction_factor(t) for t in times]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_one_to_two_orders_of_magnitude(self):
        """RowPress reduces the budget by 10-100x at long open times (paper, Section 3.1)."""
        assert rowpress_reduction_factor(10_000) == pytest.approx(0.1, rel=0.01)
        assert rowpress_reduction_factor(1_000_000) == pytest.approx(0.01, rel=0.01)

    def test_clamped_beyond_last_anchor(self):
        assert rowpress_reduction_factor(10_000_000) == pytest.approx(0.01)

    def test_interpolation_between_anchors(self):
        middle = rowpress_reduction_factor(3_000)
        assert 0.1 < middle < 0.5

    def test_invalid_time(self):
        with pytest.raises(ValueError):
            rowpress_reduction_factor(0)


class TestEffectiveThreshold:
    def test_no_reduction_at_short_open_time(self):
        assert effective_rowhammer_threshold(1000, 36.0) == 1000

    def test_reduction_at_long_open_time(self):
        assert effective_rowhammer_threshold(1000, 10_000) == 100
        assert effective_rowhammer_threshold(1000, 1_000_000) == 10

    def test_never_below_one(self):
        assert effective_rowhammer_threshold(10, 1_000_000) >= 1

    def test_invalid_nrh(self):
        with pytest.raises(ValueError):
            effective_rowhammer_threshold(0, 100)


class TestRowOpenTimeCap:
    def test_cap_at_least_tras(self):
        timing = DRAMTiming()
        assert row_open_time_cap_cycles(timing, target_factor=1.0) >= timing.tRAS

    def test_smaller_target_factor_allows_longer_open_time(self):
        strict = row_open_time_cap_cycles(target_factor=0.9)
        relaxed = row_open_time_cap_cycles(target_factor=0.1)
        assert relaxed >= strict

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            row_open_time_cap_cycles(target_factor=0.0)


class TestRowPressAwareConfig:
    def test_effective_threshold_used_for_comet(self):
        config = RowPressAwareConfig(nrh=1000, max_row_open_time_ns=10_000)
        assert config.effective_nrh == 100
        comet = CoMeTConfig(nrh=config.effective_nrh)
        assert comet.nrh == 100
        assert comet.npr == 25

    def test_default_open_time_is_classic_rowhammer(self):
        config = RowPressAwareConfig(nrh=1000)
        assert config.effective_nrh == 1000

    def test_describe_mentions_thresholds(self):
        text = RowPressAwareConfig(nrh=500, max_row_open_time_ns=10_000).describe()
        assert "500" in text and "50" in text
