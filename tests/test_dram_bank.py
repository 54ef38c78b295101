"""Tests for the per-bank state machine and timing bookkeeping."""

import pytest

from repro.dram.bank import Bank, BankState, TimingViolation
from repro.dram.config import DRAMTiming


@pytest.fixture
def timing():
    return DRAMTiming()


@pytest.fixture
def bank(timing):
    return Bank(timing, rows=1024, bank_key=(0, 0, 0, 0))


class TestActivate:
    def test_activate_opens_row(self, bank):
        bank.activate(0, 17)
        assert bank.state is BankState.OPEN
        assert bank.open_row == 17
        assert bank.stats.activations == 1

    def test_activate_respects_trc(self, bank, timing):
        bank.activate(0, 1)
        bank.precharge(timing.tRAS)
        # tRC not yet elapsed.
        with pytest.raises(TimingViolation):
            bank.activate(timing.tRAS + 1, 2)
        bank.activate(timing.tRC, 2)
        assert bank.open_row == 2

    def test_activate_while_open_rejected(self, bank):
        bank.activate(0, 1)
        with pytest.raises(TimingViolation):
            bank.activate(1000, 2)

    def test_activate_out_of_range_row(self, bank):
        with pytest.raises(ValueError):
            bank.activate(0, 4096)

    def test_preventive_flag_counts_separately(self, bank, timing):
        bank.activate(0, 1, preventive=True)
        assert bank.stats.preventive_activations == 1
        assert bank.stats.activations == 1


class TestPrecharge:
    def test_precharge_before_tras_rejected(self, bank, timing):
        bank.activate(0, 1)
        with pytest.raises(TimingViolation):
            bank.precharge(timing.tRAS - 1)

    def test_precharge_closes_row(self, bank, timing):
        bank.activate(0, 1)
        bank.precharge(timing.tRAS)
        assert bank.state is BankState.CLOSED
        assert bank.open_row is None

    def test_precharge_closed_bank_rejected(self, bank):
        with pytest.raises(TimingViolation):
            bank.precharge(100)

    def test_act_after_pre_requires_trp(self, bank, timing):
        bank.activate(0, 1)
        bank.precharge(timing.tRAS)
        with pytest.raises(TimingViolation):
            bank.activate(timing.tRAS + timing.tRP - 1, 2)


class TestColumnCommands:
    def test_read_requires_trcd(self, bank, timing):
        bank.activate(0, 1)
        with pytest.raises(TimingViolation):
            bank.read(timing.tRCD - 1, 1)
        done = bank.read(timing.tRCD, 1)
        assert done == timing.tRCD + timing.tCL + timing.tBURST
        assert bank.stats.reads == 1

    def test_read_wrong_row_rejected(self, bank, timing):
        bank.activate(0, 1)
        with pytest.raises(TimingViolation):
            bank.read(timing.tRCD, 2)

    def test_read_closed_bank_rejected(self, bank, timing):
        with pytest.raises(TimingViolation):
            bank.read(timing.tRCD, 1)

    def test_write_pushes_precharge_out(self, bank, timing):
        bank.activate(0, 1)
        data_end = bank.write(timing.tRCD, 1)
        assert data_end == timing.tRCD + timing.tCWL + timing.tBURST
        assert bank.next_pre >= data_end + timing.tWR

    def test_read_pushes_precharge_by_trtp(self, bank, timing):
        bank.activate(0, 1)
        issue = timing.tRAS + 10
        bank.read(issue, 1)
        assert bank.next_pre >= issue + timing.tRTP

    def test_column_access_counter(self, bank, timing):
        bank.activate(0, 1)
        assert bank.open_row_column_accesses == 0
        bank.read(timing.tRCD, 1)
        bank.read(timing.tRCD + timing.tCCD_L, 1)
        assert bank.open_row_column_accesses == 2


class TestRefreshBlock:
    def test_refresh_block_delays_activation(self, bank, timing):
        bank.refresh_block(0, 500)
        with pytest.raises(TimingViolation):
            bank.activate(499, 1)
        bank.activate(500, 1)

    def test_refresh_block_requires_closed_bank(self, bank):
        bank.activate(0, 1)
        with pytest.raises(TimingViolation):
            bank.refresh_block(10, 100)


class TestAccounting:
    def test_activation_counts_accumulate(self, bank, timing):
        cycle = 0
        for _ in range(5):
            bank.activate(cycle, 9)
            bank.precharge(cycle + timing.tRAS)
            cycle += timing.tRC
        assert bank.stats.activations == 5
        assert bank.stats.preventive_activations == 0

    def test_is_closed(self, bank, timing):
        assert bank.is_closed()
        bank.activate(0, 1)
        assert not bank.is_closed()
