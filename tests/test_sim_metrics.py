"""Tests for the performance/energy metrics helpers."""

import pytest

from repro.sim.metrics import (
    geometric_mean,
    normalized_values,
    normalized_weighted_speedup,
    summarize_distribution,
    weighted_speedup,
)


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([1, 1, 1]) == pytest.approx(1.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_geomean_below_arithmetic_mean(self):
        values = [0.5, 1.0, 1.5]
        assert geometric_mean(values) <= sum(values) / len(values)


class TestNormalization:
    def test_normalized_values(self):
        assert normalized_values([2, 3], [4, 3]) == [0.5, 1.0]

    def test_zero_baseline(self):
        assert normalized_values([2], [0]) == [0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            normalized_values([1], [1, 2])


class TestWeightedSpeedup:
    def test_equal_ipcs_give_core_count(self):
        assert weighted_speedup([1.0] * 8, [1.0] * 8) == pytest.approx(8.0)

    def test_slowdown_reduces_speedup(self):
        assert weighted_speedup([0.5, 0.5], [1.0, 1.0]) == pytest.approx(1.0)

    def test_zero_alone_ipc_skipped(self):
        assert weighted_speedup([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])

    def test_normalized_weighted_speedup_homogeneous(self):
        mitigated = [0.9, 0.9, 0.9, 0.9]
        baseline = [1.0, 1.0, 1.0, 1.0]
        assert normalized_weighted_speedup(mitigated, baseline) == pytest.approx(0.9)

    def test_normalized_weighted_speedup_zero_baseline(self):
        assert normalized_weighted_speedup([1.0], [0.0]) == 0.0


class TestDistributionSummary:
    def test_summary_keys(self):
        summary = summarize_distribution([1.0, 2.0, 3.0])
        assert set(summary) == {"min", "p25", "median", "p75", "max", "mean", "geomean"}

    def test_median_and_extremes(self):
        summary = summarize_distribution([3.0, 1.0, 2.0])
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["median"] == 2.0

    def test_percentiles_interpolate(self):
        summary = summarize_distribution([0.0, 1.0])
        assert summary["p25"] == pytest.approx(0.25)
        assert summary["p75"] == pytest.approx(0.75)

    def test_single_value(self):
        summary = summarize_distribution([0.7])
        assert summary["min"] == summary["max"] == summary["median"] == 0.7

    def test_empty(self):
        summary = summarize_distribution([])
        assert summary["mean"] == 0.0

    def test_geomean_zero_when_non_positive_present(self):
        summary = summarize_distribution([0.0, 1.0])
        assert summary["geomean"] == 0.0
