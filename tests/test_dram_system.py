"""Tests for the rank/channel-level DRAM device model."""

import dataclasses
import pickle

import pytest

from oracle_commands import issue
from repro.dram.bank import TimingViolation
from repro.dram.commands import Command, CommandKind
from repro.dram.dram_system import DRAMSystem


@pytest.fixture
def system(tiny_dram_config):
    return DRAMSystem(tiny_dram_config)


def act(row=0, bank=0, bankgroup=0, rank=0, preventive=False):
    return Command(
        CommandKind.ACT, rank=rank, bankgroup=bankgroup, bank=bank, row=row,
        is_preventive=preventive,
    )


def pre(bank=0, bankgroup=0, rank=0):
    return Command(CommandKind.PRE, rank=rank, bankgroup=bankgroup, bank=bank)


def rd(column=0, bank=0, bankgroup=0, rank=0):
    return Command(CommandKind.RD, rank=rank, bankgroup=bankgroup, bank=bank, column=column)


def wr(column=0, bank=0, bankgroup=0, rank=0):
    return Command(CommandKind.WR, rank=rank, bankgroup=bankgroup, bank=bank, column=column)


class TestCommandValidation:
    def test_act_requires_row(self):
        with pytest.raises(ValueError):
            Command(CommandKind.ACT)

    def test_rd_requires_column(self):
        with pytest.raises(ValueError):
            Command(CommandKind.RD)

    def test_wr_requires_column(self):
        with pytest.raises(ValueError, match="WR command requires a column"):
            Command(CommandKind.WR, bank=1)

    def test_positional_and_keyword_construction_agree(self):
        positional = Command(CommandKind.WR, 1, 0, 2, 3, None, 7, True, {"x": 1})
        keyword = Command(
            CommandKind.WR,
            channel=1,
            rank=0,
            bankgroup=2,
            bank=3,
            column=7,
            is_preventive=True,
            metadata={"x": 1},
        )
        assert positional == keyword
        assert repr(positional) == repr(keyword)

    def test_fields_are_frozen(self):
        command = act(row=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            command.row = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            command.metadata = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            del command.bank

    def test_eq_and_hash_ignore_metadata(self):
        plain = Command(CommandKind.PRE, bank=1)
        tagged = Command(CommandKind.PRE, bank=1, metadata={"policy_close": True})
        assert plain == tagged
        assert hash(plain) == hash(tagged)
        assert plain != Command(CommandKind.PRE, bank=2)
        assert plain != Command(CommandKind.PRE, bank=1, is_preventive=True)

    def test_default_metadata_is_fresh_per_command(self):
        first = Command(CommandKind.PRE)
        second = Command(CommandKind.PRE)
        assert first.metadata == {} and second.metadata == {}
        assert first.metadata is not second.metadata
        first.metadata["leak"] = True
        assert second.metadata == {}
        assert Command(CommandKind.PRE).metadata == {}

    def test_replace_and_pickle_round_trip(self):
        command = Command(
            CommandKind.RFM, channel=1, bankgroup=1, bank=1, metadata={"trfm": 9}
        )
        assert dataclasses.replace(command) == command
        moved = dataclasses.replace(command, kind=CommandKind.ACT, row=4)
        assert moved == Command(CommandKind.ACT, channel=1, bankgroup=1, bank=1, row=4)
        with pytest.raises(ValueError):
            dataclasses.replace(command, kind=CommandKind.RD)
        restored = pickle.loads(pickle.dumps(command))
        assert restored == command
        assert restored.metadata == {"trfm": 9}

    def test_fields_listed_in_order(self):
        assert [f.name for f in dataclasses.fields(Command)] == [
            "kind",
            "channel",
            "rank",
            "bankgroup",
            "bank",
            "row",
            "column",
            "is_preventive",
            "metadata",
        ]

    def test_describe_mentions_kind(self):
        command = act(row=5)
        assert "ACT" in command.describe()
        assert "row5" in command.describe()


class TestBasicSequences:
    def test_act_read_pre_sequence(self, system, tiny_dram_config):
        timing = tiny_dram_config.timing
        issue(system, act(row=3), 0)
        data_end = issue(system, rd(column=0), timing.tRCD)
        assert data_end == timing.tRCD + timing.tCL + timing.tBURST
        pre_cycle = max(timing.tRAS, timing.tRCD + timing.tRTP)
        issue(system, pre(), pre_cycle)
        assert system.stats.acts == 1
        assert system.stats.reads == 1
        assert system.stats.pres == 1

    def test_earliest_issue_respects_trcd(self, system, tiny_dram_config):
        timing = tiny_dram_config.timing
        issue(system, act(row=3), 0)
        assert system.earliest_issue_cycle(rd(), 0) == timing.tRCD

    def test_early_command_raises(self, system):
        issue(system, act(row=3), 0)
        with pytest.raises(TimingViolation):
            issue(system, rd(), 1)

    def test_write_then_read_turnaround(self, system, tiny_dram_config):
        timing = tiny_dram_config.timing
        issue(system, act(row=3), 0)
        write_cycle = timing.tRCD
        issue(system, wr(), write_cycle)
        earliest_read = system.earliest_issue_cycle(rd(), write_cycle + 1)
        assert earliest_read >= write_cycle + timing.tCWL + timing.tBURST + timing.tWTR_L

    def test_command_bus_one_command_per_cycle(self, system, tiny_dram_config):
        issue(system, act(row=3, bank=0), 0)
        other_bank_act = act(row=3, bank=1)
        assert system.earliest_issue_cycle(other_bank_act, 0) >= 1


class TestInterBankConstraints:
    def test_trrd_between_activations(self, system, tiny_dram_config):
        timing = tiny_dram_config.timing
        issue(system, act(row=1, bankgroup=0, bank=0), 0)
        same_group = act(row=1, bankgroup=0, bank=1)
        other_group = act(row=1, bankgroup=1, bank=0)
        assert system.earliest_issue_cycle(same_group, 0) >= timing.tRRD_L
        assert system.earliest_issue_cycle(other_group, 0) >= timing.tRRD_S

    def test_tfaw_limits_burst_of_activations(self, system, tiny_dram_config):
        timing = tiny_dram_config.timing
        config = tiny_dram_config.organization
        cycle = 0
        issued = []
        for i in range(4):
            bankgroup = i % config.bankgroups_per_rank
            bank = i // config.bankgroups_per_rank
            command = act(row=1, bankgroup=bankgroup, bank=bank)
            cycle = system.earliest_issue_cycle(command, cycle)
            issue(system, command, cycle)
            issued.append(cycle)
            cycle += 1
        # A fifth activation (to a different bank) must wait for the tFAW window.
        fifth = act(row=1, bankgroup=1, bank=1)
        assert system.earliest_issue_cycle(fifth, cycle) >= issued[0] + timing.tFAW

    def test_data_bus_serializes_reads_across_banks(self, system, tiny_dram_config):
        timing = tiny_dram_config.timing
        issue(system, act(row=1, bankgroup=0, bank=0), 0)
        second_act = act(row=1, bankgroup=1, bank=0)
        act2_cycle = system.earliest_issue_cycle(second_act, 0)
        issue(system, second_act, act2_cycle)
        first_rd_cycle = system.earliest_issue_cycle(rd(bankgroup=0, bank=0), 0)
        end1 = issue(system, rd(bankgroup=0, bank=0), first_rd_cycle)
        second_rd = rd(bankgroup=1, bank=0)
        second_cycle = system.earliest_issue_cycle(second_rd, first_rd_cycle)
        end2 = issue(system, second_rd, second_cycle)
        assert end2 >= end1 + timing.tBURST


class TestRefresh:
    def test_refresh_blocks_rank(self, system, tiny_dram_config):
        timing = tiny_dram_config.timing
        result = issue(system, Command(CommandKind.REF, rank=0), 0)
        assert result == timing.tRFC
        assert system.earliest_issue_cycle(act(row=0), 0) >= timing.tRFC

    def test_refresh_with_open_bank_rejected(self, system):
        issue(system, act(row=1), 0)
        with pytest.raises(TimingViolation):
            issue(system, Command(CommandKind.REF, rank=0), 10)

    def test_refresh_advances_row_pointer(self, system, tiny_dram_config):
        timing = tiny_dram_config.timing
        rank = system.rank(0, 0)
        assert rank.refresh_row_pointer == 0
        issue(system, Command(CommandKind.REF, rank=0), 0)
        assert rank.refresh_row_pointer == tiny_dram_config.rows_per_refresh
        issue(system, Command(CommandKind.REF, rank=0), timing.tRFC)
        assert rank.refresh_row_pointer == 2 * tiny_dram_config.rows_per_refresh


class TestObservers:
    def test_activation_observer_called(self, system):
        seen = []
        system.add_activation_observer(lambda cycle, addr, prev: seen.append((cycle, addr.row, prev)))
        issue(system, act(row=9), 0)
        assert seen == [(0, 9, False)]

    def test_preventive_act_notifies_row_refresh(self, system):
        refreshed = []
        system.add_row_refresh_observer(lambda cycle, addr: refreshed.append(addr.row))
        issue(system, act(row=9, preventive=True), 0)
        assert refreshed == [9]

    def test_refresh_observer_reports_row_range(self, system, tiny_dram_config):
        seen = []
        system.add_refresh_observer(lambda cycle, rank, start, count: seen.append((rank, start, count)))
        issue(system, Command(CommandKind.REF, rank=0), 0)
        assert seen == [((0, 0), 0, tiny_dram_config.rows_per_refresh)]


class TestStatistics:
    def test_activation_statistics_count_every_act(self, system, tiny_dram_config):
        timing = tiny_dram_config.timing
        issue(system, act(row=5), 0)
        issue(system, pre(), timing.tRAS)
        issue(system, act(row=5, preventive=True), timing.tRC)
        bank = system.ranks[(0, 0)].banks[(0, 0)]
        assert bank.stats.activations == 2
        assert bank.stats.preventive_activations == 1
        assert system.stats.acts == 2
        assert system.stats.preventive_acts == 1

    def test_stats_as_dict(self, system):
        issue(system, act(row=1), 0)
        stats = system.stats.as_dict()
        assert stats["acts"] == 1
        assert stats["reads"] == 0
