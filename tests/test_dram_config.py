"""Tests for DRAM organization/timing configuration."""

import pytest

from repro.dram.config import DRAMConfig, DRAMOrganization, DRAMTiming, small_test_config


class TestOrganization:
    def test_paper_defaults(self):
        """Table 2: 1 channel, 2 ranks, 4 bank groups x 4 banks, 128K rows/bank."""
        org = DRAMOrganization()
        assert org.channels == 1
        assert org.ranks_per_channel == 2
        assert org.banks_per_rank == 16
        assert org.total_banks == 32
        assert org.rows_per_bank == 128 * 1024

    def test_row_and_cacheline_sizes(self):
        org = DRAMOrganization()
        assert org.row_size_bytes == 8192
        assert org.cacheline_bytes == 64

    def test_capacity(self):
        org = DRAMOrganization()
        # 32 banks * 128K rows * 8 KiB = 32 GiB for the channel as modelled.
        assert org.total_rows * org.row_size_bytes == 32 * 1024**3


class TestTiming:
    def test_trefw_in_cycles(self):
        timing = DRAMTiming()
        # 64 ms at 0.833 ns/cycle is about 76.8M cycles.
        assert 7.6e7 < timing.tREFW < 7.7e7

    def test_refreshes_per_window(self):
        timing = DRAMTiming()
        assert 8000 < timing.refreshes_per_window < 8300

    def test_ns_cycle_roundtrip(self):
        timing = DRAMTiming()
        assert timing.cycles(timing.ns(100)) == 100

    def test_key_relationships(self):
        timing = DRAMTiming()
        assert timing.tRC >= timing.tRAS + timing.tRP
        assert timing.tRRD_L >= timing.tRRD_S
        assert timing.tCCD_L >= timing.tCCD_S
        assert timing.tWTR_L >= timing.tWTR_S

    @pytest.mark.parametrize("long, short", [
        ("tRRD_L", "tRRD_S"), ("tCCD_L", "tCCD_S"), ("tWTR_L", "tWTR_S"),
    ])
    def test_same_bank_group_rule_below_other_group_rule_rejected(self, long, short):
        base = DRAMTiming()
        with pytest.raises(ValueError, match=f"{long} .* must be >= {short}"):
            DRAMTiming(**{long: getattr(base, short) - 1})
        # Equal is JEDEC-legal and accepted.
        assert getattr(DRAMTiming(**{long: getattr(base, short)}), long) == getattr(
            base, short
        )


class TestDRAMConfig:
    def test_default_not_scaled(self):
        config = DRAMConfig()
        assert config.tREFW == config.timing.tREFW

    def test_scaling_shrinks_window_not_interval(self):
        config = DRAMConfig(refresh_window_scale=1.0 / 512.0)
        assert config.tREFW == int(config.timing.tREFW / 512)
        # tREFI is deliberately not scaled (keeps the refresh duty cycle).
        assert config.tREFI == config.timing.tREFI

    def test_rows_per_refresh_covers_all_rows(self):
        config = small_test_config(rows_per_bank=1024, refresh_window_scale=1 / 1024)
        assert config.rows_per_refresh * config.refreshes_per_window >= 1024

    def test_max_activations_per_window(self):
        config = DRAMConfig()
        assert config.max_activations_per_window == config.tREFW // config.timing.tRC

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            DRAMConfig(refresh_window_scale=0)

    def test_scaled_copy(self):
        config = DRAMConfig()
        scaled = config.scaled(0.25)
        assert scaled.refresh_window_scale == 0.25
        assert scaled.organization == config.organization

    def test_small_test_config_shape(self):
        config = small_test_config(rows_per_bank=256, ranks_per_channel=1)
        assert config.organization.rows_per_bank == 256
        assert config.organization.ranks_per_channel == 1
        assert config.tREFW < DRAMConfig().tREFW
