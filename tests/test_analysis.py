"""Tests for the analysis tools: security verifier, tracker FPR, reporting."""

import pytest

from oracle_commands import issue
from repro.analysis.false_positive import (
    blockhammer_tracker,
    comet_tracker,
    false_positive_rate_curve,
    measure_false_positive_rate,
    uniform_activation_counts,
)
from repro.analysis.reporting import format_report, format_table, render_series
from repro.analysis.security import SecurityVerifier
from repro.dram.commands import Command, CommandKind
from repro.dram.dram_system import DRAMSystem


class TestSecurityVerifier:
    def make(self, config, nrh=10):
        dram = DRAMSystem(config)
        verifier = SecurityVerifier(dram, nrh=nrh)
        return dram, verifier

    def hammer(self, dram, row, times, bank=0, bankgroup=0, start_cycle=0):
        timing = dram.config.timing
        cycle = start_cycle
        for _ in range(times):
            cycle = dram.earliest_issue_cycle(
                Command(CommandKind.ACT, bankgroup=bankgroup, bank=bank, row=row), cycle
            )
            issue(
                dram,
                Command(CommandKind.ACT, bankgroup=bankgroup, bank=bank, row=row),
                cycle,
            )
            issue(dram, Command(CommandKind.PRE, bankgroup=bankgroup, bank=bank), cycle + timing.tRAS)
            cycle += timing.tRC
        return cycle

    def test_no_violation_below_threshold(self, tiny_dram_config):
        dram, verifier = self.make(tiny_dram_config, nrh=10)
        self.hammer(dram, row=5, times=9)
        assert verifier.is_secure
        assert verifier.max_disturbance == 9

    def test_violation_at_threshold(self, tiny_dram_config):
        dram, verifier = self.make(tiny_dram_config, nrh=10)
        self.hammer(dram, row=5, times=10)
        assert not verifier.is_secure
        assert verifier.violations[0].disturbance == 10
        assert verifier.violations[0].victim[4] in (4, 6)

    def test_both_neighbours_accumulate(self, tiny_dram_config):
        dram, verifier = self.make(tiny_dram_config, nrh=100)
        self.hammer(dram, row=5, times=3)
        from repro.dram.address import DRAMAddress

        assert verifier.disturbance_of(DRAMAddress(0, 0, 0, 0, 4, 0)) == 3
        assert verifier.disturbance_of(DRAMAddress(0, 0, 0, 0, 6, 0)) == 3

    def test_double_sided_accumulation(self, tiny_dram_config):
        """Activations of both neighbours add up on the shared victim."""
        dram, verifier = self.make(tiny_dram_config, nrh=12)
        self.hammer(dram, row=4, times=6)
        self.hammer(dram, row=6, times=6)
        assert not verifier.is_secure  # row 5 accumulated 12

    def test_preventive_refresh_resets_disturbance(self, tiny_dram_config):
        dram, verifier = self.make(tiny_dram_config, nrh=10)
        cycle = self.hammer(dram, row=5, times=5)
        timing = tiny_dram_config.timing
        # Preventively refresh victim row 6 (ACT with the preventive flag).
        issue(
            dram,
            Command(CommandKind.ACT, bankgroup=0, bank=0, row=6, is_preventive=True),
            cycle,
        )
        issue(dram, Command(CommandKind.PRE, bankgroup=0, bank=0), cycle + timing.tRAS)
        from repro.dram.address import DRAMAddress

        assert verifier.disturbance_of(DRAMAddress(0, 0, 0, 0, 6, 0)) <= 1
        # Row 4 was not refreshed and keeps its disturbance.
        assert verifier.disturbance_of(DRAMAddress(0, 0, 0, 0, 4, 0)) == 5

    def test_rank_refresh_clears_covered_rows(self, tiny_dram_config):
        dram, verifier = self.make(tiny_dram_config, nrh=50)
        cycle = self.hammer(dram, row=1, times=5)
        issue(dram, Command(CommandKind.REF, rank=0), cycle)
        from repro.dram.address import DRAMAddress

        covered_rows = tiny_dram_config.rows_per_refresh
        if covered_rows > 2:
            assert verifier.disturbance_of(DRAMAddress(0, 0, 0, 0, 0, 0)) == 0
            assert verifier.disturbance_of(DRAMAddress(0, 0, 0, 0, 2, 0)) == 0

    def test_report(self, tiny_dram_config):
        dram, verifier = self.make(tiny_dram_config, nrh=10)
        self.hammer(dram, row=5, times=3)
        report = verifier.report()
        assert report["is_secure"] is True
        assert report["max_disturbance"] == 3

    def test_worst_victims_sorted(self, tiny_dram_config):
        dram, verifier = self.make(tiny_dram_config, nrh=100)
        self.hammer(dram, row=5, times=4)
        self.hammer(dram, row=50, times=2)
        worst = verifier.worst_victims(top=2)
        assert worst[0][1] >= worst[1][1]

    def test_invalid_nrh(self, tiny_dram_config):
        dram = DRAMSystem(tiny_dram_config)
        with pytest.raises(ValueError):
            SecurityVerifier(dram, nrh=0)


class TestFalsePositiveAnalysis:
    def test_uniform_counts_sum(self):
        counts = uniform_activation_counts(100, 10_000)
        assert sum(counts.values()) == 10_000
        assert len(counts) == 100

    def test_few_rows_no_false_positives(self):
        """With few unique rows, both trackers have essentially exact counts."""
        counts = uniform_activation_counts(10, 10_000, seed=1)
        comet = comet_tracker(nrh=125, seed=1)
        assert measure_false_positive_rate(comet, counts, threshold=125, seed=1) == 0.0

    def test_many_rows_saturate_small_trackers(self):
        """When the activation budget dwarfs the counter budget, counters
        saturate past the flagging threshold and the FPR rises sharply."""
        from repro.core.config import CoMeTConfig

        counts = uniform_activation_counts(5_000, 10_000, seed=2)
        small_config = CoMeTConfig(nrh=124, num_hashes=4, counters_per_hash=64, hash_seed=2)
        comet = comet_tracker(nrh=31, config=small_config, seed=2)
        bh = blockhammer_tracker(nrh=31, num_counters=256, seed=2)
        assert measure_false_positive_rate(comet, counts, threshold=31, seed=2) > 0.3
        assert measure_false_positive_rate(bh, counts, threshold=31, seed=2) > 0.3

    def test_curve_shape_matches_figure17(self):
        """CoMeT's tracker has a lower (or equal) FPR than BlockHammer's in the
        few-hundred-unique-rows region (the claim of Section 8.3 / Figure 17).

        The flagging threshold is NPR = 31 (NRH=125 with k=3), the threshold at
        which either tracker would trigger a preventive action.
        """
        unique_rows = [100, 250, 2500]
        curve = false_positive_rate_curve(unique_rows, total_activations=10_000, threshold=31, seed=3)
        comet = curve["CoMeT"]
        blockhammer = curve["BlockHammer"]
        assert comet[0] <= blockhammer[0] + 1e-9
        assert comet[1] <= blockhammer[1] + 1e-9
        assert comet[-1] >= comet[0]

    def test_curve_has_entry_per_tracker(self):
        curve = false_positive_rate_curve([50], total_activations=1000, threshold=50)
        assert set(curve) == {"CoMeT", "BlockHammer"}


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_render_series(self):
        text = render_series({"comet": [1.0, 0.9]}, x_values=[1000, 125], x_label="nrh")
        assert "nrh" in text
        assert "comet" in text
        assert "125" in text

    def test_format_report_sections(self):
        text = format_report({"summary": {"ipc": 1.0}, "notes": "all good"})
        assert "== summary ==" in text
        assert "ipc: 1" in text
        assert "all good" in text
