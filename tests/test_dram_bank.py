"""Tests for the bank-scoped command rules and the bank timing table.

Every command goes through :attr:`DRAMSystem.apply`, the one device update,
and the assertions read the bank's slot through its :class:`Bank` view.
"""

import pytest

from repro.dram.bank import BankState, TimingViolation
from repro.dram.commands import Command, CommandKind
from repro.dram.dram_system import DRAMSystem


@pytest.fixture
def timing(tiny_dram_config):
    return tiny_dram_config.timing


@pytest.fixture
def system(tiny_dram_config):
    return DRAMSystem(tiny_dram_config)


@pytest.fixture
def bank(system):
    return system.bank(0, 0, 0, 0)


def activate(system, cycle, row, preventive=False):
    system.apply(Command(CommandKind.ACT, row=row, is_preventive=preventive), cycle)


def precharge(system, cycle):
    system.apply(Command(CommandKind.PRE), cycle)


def read(system, cycle):
    return system.apply(Command(CommandKind.RD, column=0), cycle)


def write(system, cycle):
    return system.apply(Command(CommandKind.WR, column=0), cycle)


class TestActivate:
    def test_activate_opens_row(self, system, bank):
        activate(system, 0, 17)
        assert bank.state is BankState.OPEN
        assert bank.open_row == 17
        assert system.stats.acts == 1

    def test_activate_respects_trc(self, system, bank, timing):
        activate(system, 0, 1)
        precharge(system, timing.tRAS)
        # tRC not yet elapsed.
        with pytest.raises(TimingViolation):
            activate(system, timing.tRAS + 1, 2)
        activate(system, timing.tRC, 2)
        assert bank.open_row == 2

    def test_activate_while_open_rejected(self, system):
        activate(system, 0, 1)
        with pytest.raises(TimingViolation):
            activate(system, 1000, 2)

    def test_activate_out_of_range_row(self, system, tiny_dram_config):
        with pytest.raises(ValueError):
            activate(system, 0, tiny_dram_config.organization.rows_per_bank)

    def test_preventive_flag_counts_separately(self, system):
        activate(system, 0, 1, preventive=True)
        assert system.stats.preventive_acts == 1
        assert system.stats.acts == 1


class TestPrecharge:
    def test_precharge_before_tras_rejected(self, system, timing):
        activate(system, 0, 1)
        with pytest.raises(TimingViolation):
            precharge(system, timing.tRAS - 1)

    def test_precharge_closes_row(self, system, bank, timing):
        activate(system, 0, 1)
        precharge(system, timing.tRAS)
        assert bank.state is BankState.CLOSED
        assert bank.open_row is None

    def test_precharge_closed_bank_rejected(self, system):
        with pytest.raises(TimingViolation):
            precharge(system, 100)

    def test_act_after_pre_requires_trp(self, system, timing):
        activate(system, 0, 1)
        precharge(system, timing.tRAS)
        with pytest.raises(TimingViolation):
            activate(system, timing.tRAS + timing.tRP - 1, 2)


class TestColumnCommands:
    def test_read_requires_trcd(self, system, timing):
        activate(system, 0, 1)
        with pytest.raises(TimingViolation):
            read(system, timing.tRCD - 1)
        done = read(system, timing.tRCD)
        assert done == timing.tRCD + timing.tCL + timing.tBURST
        assert system.stats.reads == 1

    def test_read_closed_bank_rejected(self, system, timing):
        with pytest.raises(TimingViolation):
            read(system, timing.tRCD)

    def test_write_pushes_precharge_out(self, system, bank, timing):
        activate(system, 0, 1)
        data_end = write(system, timing.tRCD)
        assert data_end == timing.tRCD + timing.tCWL + timing.tBURST
        assert bank.next_pre >= data_end + timing.tWR

    def test_read_pushes_precharge_by_trtp(self, system, bank, timing):
        activate(system, 0, 1)
        issue = timing.tRAS + 10
        read(system, issue)
        assert bank.next_pre >= issue + timing.tRTP

    def test_column_access_counter(self, system, bank, timing):
        activate(system, 0, 1)
        assert bank.open_row_column_accesses == 0
        read(system, timing.tRCD)
        read(system, timing.tRCD + timing.tCCD_L)
        assert bank.open_row_column_accesses == 2


class TestRefreshBlock:
    def test_refresh_block_delays_activation(self, system, bank):
        bank.refresh_block(0, 500)
        with pytest.raises(TimingViolation):
            activate(system, 499, 1)
        activate(system, 500, 1)

    def test_refresh_block_requires_closed_bank(self, system, bank):
        activate(system, 0, 1)
        with pytest.raises(TimingViolation):
            bank.refresh_block(10, 100)


class TestAccounting:
    def test_activation_counts_accumulate(self, system, timing):
        cycle = 0
        for _ in range(5):
            activate(system, cycle, 9)
            precharge(system, cycle + timing.tRAS)
            cycle += timing.tRC
        assert system.stats.acts == 5
        assert system.stats.preventive_acts == 0

    def test_is_closed(self, system, bank):
        assert bank.is_closed()
        activate(system, 0, 1)
        assert not bank.is_closed()
