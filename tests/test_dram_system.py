"""Tests for the rank/channel-level DRAM device model."""

import dataclasses
import pickle

import pytest

from oracle_commands import issue
from repro.dram.bank import TimingViolation
from repro.dram.commands import Command, CommandKind
from repro.dram.config import DRAMConfig
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


def _stretched_system(**timing):
    config = DRAMConfig()
    timing = dataclasses.replace(config.timing, **timing)
    return DRAMSystem(dataclasses.replace(config, timing=timing))


class TestRankFloors:
    """A rank keeps one floor per bank group (the ``_L`` rules) and one for
    every bank group (the ``_S`` rules) per ready list; a reader takes the
    larger.  Exact limits, on the default organization (4 bank groups)."""

    def test_act_after_one_act(self):
        system = DRAMSystem(DRAMConfig())
        timing = system.config.timing
        issue(system, act(row=1, bankgroup=0, bank=0), 10)
        rank = system.rank(0, 0)
        assert rank.earliest_act(0, 0, 1) == 10 + timing.tRRD_L
        for bankgroup in (1, 2, 3):
            assert rank.earliest_act(0, bankgroup, 0) == 10 + timing.tRRD_S
        assert system.earliest_issue_cycle(act(row=1, bankgroup=1), 0) == 10 + timing.tRRD_S

    def test_act_with_tfaw_binding(self):
        # ACTs at 0, 4, 8, 12 to bank groups 0-3: the fifth waits for
        # 0 + tFAW = 17 on other bank groups, and for 12 + tRRD_L = 18 on
        # bank group 3, where the same-group rule is later than tFAW.
        system = _stretched_system(tFAW=17)
        timing = system.config.timing
        for bankgroup in range(4):
            issue(system, act(row=1, bankgroup=bankgroup), 4 * bankgroup)
        rank = system.rank(0, 0)
        assert 12 + timing.tRRD_S < 17 < 12 + timing.tRRD_L
        assert rank.earliest_act(0, 3, 1) == 12 + timing.tRRD_L
        for bankgroup in (0, 1, 2):
            assert rank.earliest_act(0, bankgroup, 1) == 17

    def test_read_after_write(self):
        system = DRAMSystem(DRAMConfig())
        timing = system.config.timing
        issue(system, act(row=1, bankgroup=0, bank=0), 0)
        issue(system, act(row=1, bankgroup=1, bank=0), 10)
        issue(system, act(row=1, bankgroup=0, bank=1), 20)
        data_end = issue(system, wr(bankgroup=0, bank=0), 50)
        rank = system.rank(0, 0)
        assert rank.earliest_column(0, 0, 1, False) == data_end + timing.tWTR_L
        assert rank.earliest_column(0, 1, 0, False) == data_end + timing.tWTR_S
        # Write to write: tCCD_L/tCCD_S (the bank's own tRCD is long past).
        assert rank.earliest_column(0, 0, 1, True) == 50 + timing.tCCD_L
        assert rank.earliest_column(0, 1, 0, True) == 50 + timing.tCCD_S

    def test_write_after_read(self):
        # tCCD_L stretched past tRTW: the same group waits tCCD_L, every
        # other group tRTW.
        system = _stretched_system(tCCD_L=11)
        timing = system.config.timing
        issue(system, act(row=1, bankgroup=0, bank=0), 0)
        issue(system, act(row=1, bankgroup=1, bank=0), 10)
        issue(system, act(row=1, bankgroup=0, bank=1), 20)
        issue(system, rd(bankgroup=0, bank=0), 50)
        rank = system.rank(0, 0)
        assert timing.tCCD_S < timing.tRTW < timing.tCCD_L
        assert rank.earliest_column(0, 0, 1, True) == 50 + timing.tCCD_L
        assert rank.earliest_column(0, 1, 0, True) == 50 + timing.tRTW
        assert rank.earliest_column(0, 0, 1, False) == 50 + timing.tCCD_L
        assert rank.earliest_column(0, 1, 0, False) == 50 + timing.tCCD_S


def _illegal_cases():
    """``(name, setup, illegal command, cycle of it, exception)`` rows.

    ``setup`` maps the timing to the legal ``(command, cycle)`` prefix; the
    last command breaks exactly one bank-scoped rule.
    """
    return [
        ("act_to_open_bank", lambda t: [(act(row=1), 0)],
         lambda t: (act(row=2), t.tRC + 100), TimingViolation),
        ("act_before_trc", lambda t: [(act(row=1), 0), (pre(), t.tRAS)],
         lambda t: (act(row=2), t.tRC - 1), TimingViolation),
        ("act_before_trp", lambda t: [(act(row=1), 0), (pre(), t.tRC + 50)],
         lambda t: (act(row=2), t.tRC + 50 + t.tRP - 1), TimingViolation),
        ("act_row_out_of_range", lambda t: [],
         lambda t: (act(row=256), 0), ValueError),
        ("pre_to_closed_bank", lambda t: [],
         lambda t: (pre(), 100), TimingViolation),
        ("pre_before_tras", lambda t: [(act(row=1), 0)],
         lambda t: (pre(), t.tRAS - 1), TimingViolation),
        ("pre_before_trtp", lambda t: [(act(row=1), 0), (rd(), t.tRAS)],
         lambda t: (pre(), t.tRAS + t.tRTP - 1), TimingViolation),
        ("pre_before_twr", lambda t: [(act(row=1), 0), (wr(), t.tRCD)],
         lambda t: (pre(), t.tRCD + t.tCWL + t.tBURST + t.tWR - 1), TimingViolation),
        ("rd_before_trcd", lambda t: [(act(row=1), 0)],
         lambda t: (rd(), t.tRCD - 1), TimingViolation),
        ("wr_before_trcd", lambda t: [(act(row=1), 0)],
         lambda t: (wr(), t.tRCD - 1), TimingViolation),
        ("rd_to_never_opened_bank", lambda t: [],
         lambda t: (rd(), 100), TimingViolation),
        ("wr_to_never_opened_bank", lambda t: [],
         lambda t: (wr(), 100), TimingViolation),
        ("rd_after_pre", lambda t: [(act(row=1), 0), (pre(), t.tRAS)],
         lambda t: (rd(), t.tRC + 100), TimingViolation),
        ("wr_after_pre", lambda t: [(act(row=1), 0), (pre(), t.tRAS)],
         lambda t: (wr(), t.tRC + 100), TimingViolation),
    ]


class TestApplyLegality:
    """``apply`` itself rejects every bank-state and bank-timing violation,
    whatever cycle its caller computed."""

    @pytest.mark.parametrize(
        "setup, illegal, error",
        [case[1:] for case in _illegal_cases()],
        ids=[case[0] for case in _illegal_cases()],
    )
    def test_illegal_command_raises(self, system, tiny_dram_config, setup, illegal, error):
        timing = tiny_dram_config.timing
        assert tiny_dram_config.organization.rows_per_bank == 256
        for command, cycle in setup(timing):
            issue(system, command, cycle)
        command, cycle = illegal(timing)
        with pytest.raises(error):
            system.apply(command, cycle)


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
        assert system.stats.acts == 2
        assert system.stats.preventive_acts == 1

    def test_stats_as_dict(self, system):
        issue(system, act(row=1), 0)
        stats = system.stats.as_dict()
        assert stats["acts"] == 1
        assert stats["reads"] == 0
