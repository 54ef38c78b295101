"""Unit tests for the CoMeT mechanism (driven through a fake controller)."""

import pytest

from repro.core.comet import CoMeT
from repro.core.config import CoMeTConfig
from tests.conftest import comet_estimate, make_address


def make_comet(fake_controller, nrh=124, **config_overrides):
    config = CoMeTConfig(nrh=nrh, **config_overrides)
    comet = CoMeT(nrh=nrh, config=config)
    comet.attach(fake_controller)
    return comet


def hammer(comet, address, times, start_cycle=0, cycle_step=60):
    cycle = start_cycle
    for _ in range(times):
        comet.on_activation(cycle, address, is_preventive=False)
        cycle += cycle_step
    return cycle


class TestActivationTracking:
    def test_below_npr_no_refresh(self, fake_controller, tiny_dram_config):
        comet = make_comet(fake_controller)
        address = make_address(tiny_dram_config, row=10)
        hammer(comet, address, comet.config.npr - 2)
        assert fake_controller.preventive_refreshes == []

    def test_reaching_npr_triggers_victim_refreshes(self, fake_controller, tiny_dram_config):
        comet = make_comet(fake_controller)
        address = make_address(tiny_dram_config, row=10)
        hammer(comet, address, comet.config.npr)
        victims = {a.row for a, _ in fake_controller.preventive_refreshes}
        assert victims == {9, 11}
        assert comet.stats.preventive_refreshes == 2

    def test_rat_entry_allocated_at_npr(self, fake_controller, tiny_dram_config):
        comet = make_comet(fake_controller)
        address = make_address(tiny_dram_config, row=10)
        hammer(comet, address, comet.config.npr)
        tracker = comet.bank_tracker(address.bank_key)
        assert tracker.rat.lookup(10) == 0

    def test_rat_counter_used_after_first_refresh(self, fake_controller, tiny_dram_config):
        """After a refresh the RAT counter (not the saturated CT) drives decisions."""
        comet = make_comet(fake_controller)
        address = make_address(tiny_dram_config, row=10)
        npr = comet.config.npr
        hammer(comet, address, npr, cycle_step=1)
        assert len(fake_controller.preventive_refreshes) == 2
        # A few more activations must NOT immediately re-trigger refreshes,
        # because the RAT counter restarts from zero.  (All cycles stay well
        # inside one counter reset period.)
        hammer(comet, address, npr - 2, start_cycle=100, cycle_step=1)
        assert len(fake_controller.preventive_refreshes) == 2
        # Reaching NPR again on the RAT counter triggers the next refresh pair.
        hammer(comet, address, 2, start_cycle=200, cycle_step=1)
        assert len(fake_controller.preventive_refreshes) == 4

    def test_ct_counters_saturated_not_reset(self, fake_controller, tiny_dram_config):
        comet = make_comet(fake_controller)
        address = make_address(tiny_dram_config, row=10)
        hammer(comet, address, comet.config.npr)
        tracker = comet.bank_tracker(address.bank_key)
        assert tracker.counter_table.estimate(10) == comet.config.npr

    def test_preventive_activations_are_tracked(self, fake_controller, tiny_dram_config):
        """Preventive ACTs disturb their own neighbours, so CoMeT counts them
        too; enough of them trigger refreshes of *their* victims."""
        comet = make_comet(fake_controller)
        address = make_address(tiny_dram_config, row=10)
        for cycle in range(comet.config.npr):
            comet.on_activation(cycle, address, is_preventive=True)
        assert comet.stats.observed_activations == comet.config.npr
        victims = {a.row for a, _ in fake_controller.preventive_refreshes}
        assert victims == {9, 11}

    def test_per_bank_isolation(self, fake_controller, tiny_dram_config):
        comet = make_comet(fake_controller)
        bank0 = make_address(tiny_dram_config, row=10, bank=0)
        bank1 = make_address(tiny_dram_config, row=10, bank=1)
        hammer(comet, bank0, comet.config.npr - 1)
        hammer(comet, bank1, 1)
        assert comet_estimate(comet, bank1.bank_key, 10) <= 1

    def test_estimate_interface(self, fake_controller, tiny_dram_config):
        comet = make_comet(fake_controller)
        address = make_address(tiny_dram_config, row=10)
        hammer(comet, address, 5)
        assert comet_estimate(comet, address.bank_key, 10) >= 5


class TestPeriodicReset:
    def test_counters_cleared_after_reset_period(self, fake_controller, tiny_dram_config):
        comet = make_comet(fake_controller)
        address = make_address(tiny_dram_config, row=10)
        hammer(comet, address, 10, cycle_step=1)
        reset_period = comet.config.reset_period_cycles(tiny_dram_config.tREFW)
        # An activation far in the future (past the reset period) sees fresh counters.
        comet.on_activation(reset_period + 10, address, is_preventive=False)
        assert comet_estimate(comet, address.bank_key, 10) <= 1
        assert comet.stats.counter_resets >= 1

    def test_rat_cleared_by_periodic_reset(self, fake_controller, tiny_dram_config):
        comet = make_comet(fake_controller)
        address = make_address(tiny_dram_config, row=10)
        hammer(comet, address, comet.config.npr, cycle_step=1)
        tracker = comet.bank_tracker(address.bank_key)
        assert tracker.rat.lookup(10) is not None
        reset_period = comet.config.reset_period_cycles(tiny_dram_config.tREFW)
        comet.on_activation(reset_period + 10, address, is_preventive=False)
        value = tracker.rat.lookup(10)
        assert value is None or value <= 1


class TestEarlyPreventiveRefresh:
    def test_capacity_misses_trigger_rank_refresh(self, fake_controller, tiny_dram_config):
        """Hammering more rows than the RAT holds must eventually trigger the
        coarse-grained early preventive refresh (Section 4.2)."""
        comet = make_comet(
            fake_controller,
            rat_entries=4,
            rat_miss_history_length=16,
            early_refresh_threshold_fraction=0.25,
        )
        npr = comet.config.npr
        rows = [10 + 3 * i for i in range(12)]  # 12 rows > 4 RAT entries
        cycle = 0
        for _ in range(4):
            for row in rows:
                address = make_address(tiny_dram_config, row=row)
                for _ in range(npr):
                    comet.on_activation(cycle, address, is_preventive=False)
                    cycle += 1
            if fake_controller.rank_refreshes:
                break
        assert fake_controller.rank_refreshes, "expected an early preventive refresh"
        assert comet.stats.early_refresh_operations >= 1

    def test_early_refresh_resets_rank_counters(self, fake_controller, tiny_dram_config):
        comet = make_comet(fake_controller, rat_entries=2, rat_miss_history_length=8)
        address = make_address(tiny_dram_config, row=50)
        comet._early_preventive_refresh(0, address)
        assert fake_controller.rank_refreshes
        channel, rank, count = fake_controller.rank_refreshes[0]
        assert (channel, rank) == (0, 0)
        assert count == max(1, tiny_dram_config.tREFW // tiny_dram_config.tREFI)

    def test_compulsory_misses_do_not_trigger_early_refresh(self, fake_controller, tiny_dram_config):
        """New aggressors (compulsory misses) alone must not trigger the early refresh."""
        comet = make_comet(fake_controller, rat_entries=256, rat_miss_history_length=16)
        npr = comet.config.npr
        cycle = 0
        for row in range(10, 40):
            address = make_address(tiny_dram_config, row=row)
            for _ in range(npr):
                comet.on_activation(cycle, address, is_preventive=False)
                cycle += 1
        assert fake_controller.rank_refreshes == []


class TestStorageReport:
    def test_storage_report_totals(self, fake_controller):
        comet = make_comet(fake_controller, nrh=1000)
        report = comet.storage_report()
        assert report["total_KiB"] == pytest.approx(
            report["ct_KiB"] + report["rat_KiB"] + report["history_KiB"]
        )

    def test_storage_bits_per_bank(self, fake_controller):
        comet = make_comet(fake_controller, nrh=1000)
        assert comet.storage_bits_per_bank() == comet.config.storage_bits_per_bank
