"""The JEDEC command-stream oracle (``tests/oracle_commands.py``).

Three parts:

* the oracle itself — hand-built command streams put each rule exactly at
  its limit (clean) and one cycle before it (flagged, by name);
* the simulator's timing model against the oracle — on the same streams,
  and on random legal streams under stretched timings,
  ``DRAMSystem.earliest_issue_cycle`` must name exactly the oracle's limit:
  never earlier (an illegal schedule), never later (a slowdown no rule
  asks for);
* the simulator under the oracle — whole runs across every registered
  mitigation x scheduler x row policy, plus the refresh policies, must
  issue a legal command stream.  The golden runs are checked where they
  are pinned (``tests/test_channel_fabric.py``,
  ``tests/test_fastpath_identity.py``).
"""

import copy
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from golden_runs import MIX4
from oracle_commands import (
    CommandRecorder,
    CommandStreamChecker,
    checked_runs,
    command_line,
    issue,
)
from repro.controller.policies import (
    ControllerPolicySpec,
    row_policy_names,
    scheduler_names,
)
from repro.dram.commands import Command, CommandKind
from repro.dram.config import small_test_config
from repro.dram.dram_system import DRAMSystem
from repro.experiment.execute import execute_spec
from repro.experiment.registry import mitigation_names
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    WorkloadSpec,
)

ACT, PRE, RD, WR, REF, RFM = (
    CommandKind.ACT,
    CommandKind.PRE,
    CommandKind.RD,
    CommandKind.WR,
    CommandKind.REF,
    CommandKind.RFM,
)

#: Two bank groups of four banks in one rank: enough closed banks for a
#: five-ACT tFAW window.
_CONFIG = small_test_config(
    rows_per_bank=256, banks_per_bankgroup=4, bankgroups_per_rank=2
)
_T = _CONFIG.timing
_NO_REFRESH = replace(_CONFIG, refresh_enabled=False)


def act(bg, bank, row=1):
    return Command(ACT, bankgroup=bg, bank=bank, row=row)


def pre(bg, bank):
    return Command(PRE, bankgroup=bg, bank=bank)


def rd(bg, bank):
    return Command(RD, bankgroup=bg, bank=bank, column=0)


def wr(bg, bank):
    return Command(WR, bankgroup=bg, bank=bank, column=0)


def check(stream, config=_NO_REFRESH, alert_back_off=None):
    checker = CommandStreamChecker(config, alert_back_off=alert_back_off)
    for cycle, command in stream:
        checker(cycle, command)
    checker.finish()
    return checker.violations


_WR_END = _T.tCWL + _T.tBURST  # a write issued at 0 ends its data here

#: rule -> (stream builder taking the cycle of the constrained command,
#: the earliest legal cycle for it).  A = bg0/ba0, B = bg0/ba1 (same bank
#: group), C = bg1/ba0 (other bank group).
RULES = {
    "tRCD": (lambda c: [(0, act(0, 0)), (c, rd(0, 0))], _T.tRCD),
    "tRAS": (lambda c: [(0, act(0, 0)), (c, pre(0, 0))], _T.tRAS),
    "tRP": (
        lambda c: [(0, act(0, 0)), (100, pre(0, 0)), (c, act(0, 0))],
        100 + _T.tRP,
    ),
    "tRTP": (
        lambda c: [(0, act(0, 0)), (35, rd(0, 0)), (c, pre(0, 0))],
        35 + _T.tRTP,
    ),
    "tWR": (
        lambda c: [(0, act(0, 0)), (16, wr(0, 0)), (c, pre(0, 0))],
        16 + _WR_END + _T.tWR,
    ),
    "tRRD_S": (lambda c: [(0, act(0, 0)), (c, act(1, 0))], _T.tRRD_S),
    "tRRD_L": (lambda c: [(0, act(0, 0)), (c, act(0, 1))], _T.tRRD_L),
    "tFAW": (
        lambda c: [
            (0, act(0, 0)),
            (4, act(1, 0)),
            (10, act(0, 1)),
            (14, act(1, 1)),
            (c, act(0, 2)),
        ],
        _T.tFAW,
    ),
    "tCCD_S": (
        lambda c: [(0, act(0, 0)), (4, act(1, 0)), (20, rd(0, 0)), (c, rd(1, 0))],
        20 + _T.tCCD_S,
    ),
    "tCCD_L": (
        lambda c: [(0, act(0, 0)), (6, act(0, 1)), (22, rd(0, 0)), (c, rd(0, 1))],
        22 + _T.tCCD_L,
    ),
    "tWTR_S": (
        lambda c: [(0, act(0, 0)), (4, act(1, 0)), (20, wr(0, 0)), (c, rd(1, 0))],
        20 + _WR_END + _T.tWTR_S,
    ),
    "tWTR_L": (
        lambda c: [(0, act(0, 0)), (6, act(0, 1)), (22, wr(0, 0)), (c, rd(0, 1))],
        22 + _WR_END + _T.tWTR_L,
    ),
    "tRTW": (
        lambda c: [(0, act(0, 0)), (16, rd(0, 0)), (c, wr(0, 0))],
        16 + _T.tRTW,
    ),
    "tRFC": (lambda c: [(0, Command(REF)), (c, act(0, 0))], _T.tRFC),
    "tRFM": (
        lambda c: [
            (0, Command(RFM, bankgroup=0, bank=0, metadata={"trfm": 100})),
            (c, act(0, 0)),
        ],
        100,
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_is_enforced_to_the_cycle(rule):
    build, earliest = RULES[rule]
    assert check(build(earliest)) == []
    flagged = check(build(earliest - 1))
    assert any(f": {rule} " in v for v in flagged), flagged


def test_trc_is_its_own_rule():
    # With default timings tRC = tRAS + tRP, so stretch it to see it bind.
    config = replace(_NO_REFRESH, timing=replace(_T, tRC=_T.tRAS + _T.tRP + 5))
    stream = [(0, act(0, 0)), (_T.tRAS, pre(0, 0))]
    assert check(stream + [(config.timing.tRC, act(0, 0))], config) == []
    flagged = check(stream + [(config.timing.tRC - 1, act(0, 0))], config)
    assert [v.split(": ", 1)[1] for v in flagged] == [
        f"tRC (legal from cycle {config.timing.tRC})"
    ]


#: WR bg0, WR bg1, then RD bg0/ba1: the read is bound by bg0's write
#: (tWTR_L), not only by the most recent write (tWTR_S).
_WTR_L_ACROSS_WRITE = (
    [(0, act(0, 0)), (4, act(1, 0)), (10, act(0, 1)), (26, wr(0, 0)), (30, wr(1, 0))],
    26 + _WR_END + _T.tWTR_L,
)
#: WR bg0, RD bg1, then RD bg0/ba1: still bound by bg0's write.
_WTR_L_ACROSS_READ = (
    [
        (0, act(0, 0)),
        (4, act(1, 0)),
        (10, act(0, 1)),
        (22, wr(0, 0)),
        (22 + _WR_END + _T.tWTR_S, rd(1, 0)),
    ],
    22 + _WR_END + _T.tWTR_L,
)


def test_wtr_l_holds_across_an_intervening_write_to_another_bank_group():
    stream, earliest = _WTR_L_ACROSS_WRITE
    assert check(stream + [(earliest, rd(0, 1))]) == []
    flagged = check(stream + [(earliest - 1, rd(0, 1))])
    assert any(": tWTR_L " in v for v in flagged), flagged


def test_wtr_l_holds_across_an_intervening_read():
    stream, earliest = _WTR_L_ACROSS_READ
    assert check(stream + [(earliest, rd(0, 1))]) == []
    flagged = check(stream + [(earliest - 1, rd(0, 1))])
    assert any(": tWTR_L " in v for v in flagged), flagged


@pytest.mark.parametrize(
    "stream, message",
    [
        ([(0, act(0, 0)), (100, act(0, 0, row=2))], "ACT to an open bank"),
        ([(0, pre(0, 0))], "PRE to a closed bank"),
        ([(0, rd(0, 0))], "column command to a closed bank"),
        ([(0, act(0, 0)), (100, Command(REF))], "REF with bank (0, 0) open"),
        ([(0, act(0, 0)), (0, act(1, 0))], "command bus"),
        ([(0, act(0, 0, row=256))], "row out of range"),
        ([(0, Command(RFM))], "RFM without a positive trfm"),
        (
            [(0, act(0, 0)), (1, act(1, 0)), (20, rd(0, 0)), (22, rd(1, 0))],
            "data burst overlaps",
        ),
    ],
)
def test_state_machine_and_bus_rules(stream, message):
    assert any(message in v for v in check(stream)), check(stream)


def test_refresh_postponement_bound():
    limit = 9 * _CONFIG.tREFI
    assert check([(limit, Command(REF))], _CONFIG) == []
    assert any(
        "refresh postponed" in v for v in check([(limit + 1, Command(REF))], _CONFIG)
    )
    # The end of the run counts too: the last command is too far past the
    # last REF.
    flagged = check([(0, Command(REF)), (limit + 1, act(0, 0))], _CONFIG)
    assert any(v.startswith("end of run") for v in flagged), flagged
    assert check([(limit + 1, act(0, 0))], _NO_REFRESH) == []


def check_abo(stream, threshold=2):
    """``stream`` under PRAC with a 100-cycle back-off window."""
    return check(stream, alert_back_off=(threshold, 100))


#: Two ACTs to row 1 of bank A: the second one alerts at ``_ALERT``.
_ALERT = _T.tRC
_HAMMER = [(0, act(0, 0)), (_T.tRAS, pre(0, 0)), (_ALERT, act(0, 0))]


def test_alert_back_off_window_is_enforced_to_the_cycle():
    end = _ALERT + 100
    assert check_abo(_HAMMER + [(end, rd(0, 0))]) == []
    flagged = check_abo(_HAMMER + [(end - 1, rd(0, 0))])
    assert [v.split(": ", 1)[1] for v in flagged] == [
        f"tABO (legal from cycle {end})"
    ]
    # A demand ACT waits too; a preventive ACT and a PRE do not.
    assert any(": tABO " in v for v in check_abo(_HAMMER + [(end - 1, act(1, 0))]))
    preventive = Command(ACT, bankgroup=1, bank=0, row=5, is_preventive=True)
    assert check_abo(_HAMMER + [(_ALERT + _T.tRRD_S, preventive)]) == []
    assert check_abo(_HAMMER + [(_ALERT + _T.tRAS, pre(0, 0))]) == []
    # Below the threshold nothing is held back.
    assert check_abo(_HAMMER + [(_ALERT + _T.tRCD, rd(0, 0))], threshold=3) == []


def test_alert_restarts_the_row_and_refresh_restarts_covered_rows():
    # After an alert the row counts from zero: two more ACTs alert again.
    second = _ALERT + 100
    stream = _HAMMER + [(second - _T.tRC + _T.tRAS, pre(0, 0)), (second, act(0, 0))]
    assert check_abo(stream + [(second + _T.tRCD, rd(0, 0))]) == []
    # A REF covering row 1 (the first REF covers rows_per_refresh rows from
    # row 0) restarts its count, so the second ACT does not alert.
    ref = _T.tRAS + _T.tRP
    after = ref + _T.tRFC
    with_ref = [
        (0, act(0, 0)),
        (_T.tRAS, pre(0, 0)),
        (ref, Command(REF)),
        (after, act(0, 0)),
        (after + _T.tRCD, rd(0, 0)),
    ]
    assert check_abo(with_ref) == []
    without_ref = [entry for entry in with_ref if entry[1].kind is not REF]
    assert any(": tABO " in v for v in check_abo(without_ref))


def test_recorder_hash_covers_every_field():
    base = [(5, act(0, 0)), (30, rd(0, 0))]
    variants = [
        [(6, act(0, 0)), (30, rd(0, 0))],
        [(5, act(0, 0, row=2)), (30, rd(0, 0))],
        [(5, Command(ACT, row=1, is_preventive=True)), (30, rd(0, 0))],
        [(5, act(0, 0)), (30, Command(RD, column=8))],
        [(5, act(0, 0)), (30, wr(0, 0))],
    ]

    def digest(stream):
        recorder = CommandRecorder()
        for cycle, command in stream:
            recorder(cycle, command)
        return recorder.hexdigest()

    digests = {digest(stream) for stream in [base] + variants}
    assert len(digests) == 1 + len(variants)
    assert command_line(7, Command(PRE, metadata={"policy_close": True})) == (
        "7 PRE ch0 ra0 bg0 ba0 policy_close=True"
    )


# --------------------------------------------------------------------------- #
# The simulator's timing model against the oracle
# --------------------------------------------------------------------------- #
def _rule_case(rule):
    build, earliest = RULES[rule]
    *prefix, (_, command) = build(earliest)
    return _NO_REFRESH, prefix, command, earliest


def _stretched(**timing):
    return replace(_NO_REFRESH, timing=replace(_T, **timing))


#: case -> (config, prefix stream, constrained command, its earliest legal
#: cycle).  Beyond every rule of RULES: the two tWTR_L streams, tRC, and
#: tCCD_L/tRRD_L stretched so far that a same-bank-group command older than
#: the last one binds (with DDR4-2400's tCCD_L <= 2 tCCD_S and tRRD_L <=
#: 2 tRRD_S the last command always decides).
EXACT = {
    **{rule: _rule_case(rule) for rule in RULES},
    "tWTR_L across a write": (
        _NO_REFRESH, _WTR_L_ACROSS_WRITE[0], rd(0, 1), _WTR_L_ACROSS_WRITE[1]
    ),
    "tWTR_L across a read": (
        _NO_REFRESH, _WTR_L_ACROSS_READ[0], rd(0, 1), _WTR_L_ACROSS_READ[1]
    ),
    "tRC": (
        _stretched(tRC=_T.tRAS + _T.tRP + 5),
        [(0, act(0, 0)), (_T.tRAS, pre(0, 0))],
        act(0, 0),
        _T.tRAS + _T.tRP + 5,
    ),
    "tCCD_L before the last column command": (
        _stretched(tCCD_L=11),
        [
            (0, act(0, 0)),
            (4, act(1, 0)),
            (10, act(0, 1)),
            (30, rd(0, 0)),
            (34, rd(1, 0)),
        ],
        rd(0, 1),
        41,
    ),
    "tRRD_L before the last ACT": (
        _stretched(tRRD_L=11),
        [(0, act(0, 0)), (4, act(1, 0))],
        act(0, 1),
        11,
    ),
}


@pytest.mark.parametrize("case", sorted(EXACT))
def test_earliest_issue_cycle_is_the_oracle_limit(case):
    config, prefix, command, earliest = EXACT[case]
    # The oracle puts the limit exactly here ...
    assert check(prefix + [(earliest, command)], config) == []
    assert check(prefix + [(earliest - 1, command)], config) != []
    # ... and so does the simulator, after the same prefix.
    dram = DRAMSystem(config)
    for cycle, prior in prefix:
        issue(dram, prior, cycle)
    assert dram.earliest_issue_cycle(command, 0) == earliest


#: 2 bank groups x 2 banks: enough for every same/other bank-group rule.
_FUZZ_CONFIG = replace(
    small_test_config(rows_per_bank=256, banks_per_bankgroup=2, bankgroups_per_rank=2),
    refresh_enabled=False,
)


@st.composite
def stretched_timings(draw):
    """DDR4-2400 with every same-bank-group/turnaround rule stretched up to
    3x its short form, so an older command than the last one can bind."""

    def upto_3x(short):
        return draw(st.integers(min_value=short, max_value=3 * short))

    return replace(
        _T,
        tRRD_L=upto_3x(_T.tRRD_S),
        tCCD_L=upto_3x(_T.tCCD_S),
        tWTR_L=upto_3x(_T.tWTR_S),
        tRTW=upto_3x(_T.tRTW),
        tFAW=upto_3x(_T.tFAW),
    )


def _legal_commands(dram):
    """Every command the bank state machine allows next on rank 0."""
    rank = dram.rank(0, 0)
    commands = []
    for (bg, bank), state in rank.banks.items():
        if state.is_closed():
            commands.append(act(bg, bank, row=1 + bank))
            commands.append(
                Command(RFM, bankgroup=bg, bank=bank, metadata={"trfm": 60})
            )
        else:
            commands.extend((pre(bg, bank), rd(bg, bank), wr(bg, bank)))
    if rank.all_banks_closed():
        commands.append(Command(REF))
    return commands


@settings(max_examples=100, deadline=None)
@given(timing=stretched_timings(), data=st.data())
def test_fuzzed_timings_earliest_cycles_are_exact(timing, data):
    # Random legal streams, each command issued at earliest_issue_cycle:
    # the oracle must stay clean (sound), and an ACT/PRE/RD/WR the model
    # holds back must be flagged by the oracle one cycle earlier (exact).
    # REF and RFM are checked for soundness only: they wait for next_act,
    # which includes tRC, where the oracle asks for tRP.
    config = replace(_FUZZ_CONFIG, timing=timing)
    dram = DRAMSystem(config)
    checker = CommandStreamChecker(config)
    cycle = 0
    for _ in range(data.draw(st.integers(1, 60), label="commands")):
        command = data.draw(st.sampled_from(_legal_commands(dram)))
        cycle += data.draw(st.integers(0, 3), label="gap")
        earliest = dram.earliest_issue_cycle(command, cycle)
        if earliest > cycle and command.kind in (ACT, PRE, RD, WR):
            early = copy.deepcopy(checker)
            early(earliest - 1, command)
            assert early.violation_count, (
                f"{command_line(earliest, command)}: the oracle allows it a "
                f"cycle earlier ({timing})"
            )
        checker(earliest, command)
        dram.apply(command, earliest)
        cycle = earliest
    checker.finish()
    assert checker.violations == []


# --------------------------------------------------------------------------- #
# The simulator under the oracle
# --------------------------------------------------------------------------- #
def _mix_spec(mitigation, channels=1, requests=80, dram=None, **policy):
    return ExperimentSpec(
        workload=WorkloadSpec(
            name="mix4",
            mix=tuple(WorkloadSpec(name=m, num_requests=requests) for m in MIX4),
        ),
        mitigation=MitigationSpec(name=mitigation, nrh=125),
        platform=PlatformSpec(
            channels=channels, dram=dram, controller=ControllerPolicySpec(**policy)
        ),
        verify_security="streaming",
    )


def _run_checked(spec):
    with checked_runs() as runs:
        execute_spec(spec)
    assert len(runs) == 1
    run = runs[0]
    run.assert_clean()
    return run


@pytest.mark.parametrize("mitigation", mitigation_names())
@pytest.mark.parametrize(
    "scheduler, row_policy",
    list(itertools.product(scheduler_names(), row_policy_names())),
)
def test_every_policy_pair_issues_a_legal_stream(mitigation, scheduler, row_policy):
    run = _run_checked(
        _mix_spec(mitigation, scheduler=scheduler, row_policy=row_policy)
    )
    assert sum(run.recorder.kinds.values()) > 0


#: The paper's Table 2 rank: 4 bank groups x 4 banks.  With four banks per
#: rank (the scaled test geometry) a fifth ACT inside tFAW always reuses a
#: bank and waits tRC, so only a wider rank lets tFAW bind.
_PAPER_RANKS = small_test_config(
    rows_per_bank=4096,
    banks_per_bankgroup=4,
    bankgroups_per_rank=4,
    ranks_per_channel=2,
    refresh_window_scale=1.0 / 256.0,
)

#: Every timing rule the oracle checks.
TIMING_RULES = {
    "tRCD", "tRAS", "tRP", "tRC", "tRTP", "tWR", "tRRD_S", "tRRD_L", "tFAW",
    "tCCD_S", "tCCD_L", "tWTR_S", "tWTR_L", "tRTW", "tRFC", "tRFM",
}


@pytest.mark.parametrize("scheduler", scheduler_names())
def test_every_timing_rule_binds_in_a_legal_stream(scheduler):
    # Clean is only convincing where the rules bind: an off-by-one in a
    # rule that never decides an issue cycle changes nothing.  On the
    # paper's rank geometry, with RFM refresh management, every rule puts
    # some command exactly at its limit.
    run = _run_checked(
        _mix_spec(
            "comet",
            requests=300,
            dram=_PAPER_RANKS,
            scheduler=scheduler,
            refresh_policy="rfm",
            params={"raaimt": 8, "raammt": 16, "trfm": 120},
        )
    )
    assert TIMING_RULES <= set(run.tight), TIMING_RULES - set(run.tight)


@pytest.mark.parametrize(
    "mitigation, refresh_policy, params",
    [
        ("comet", "fine_granularity", {"refresh_granularity": 4}),
        ("para", "fine_granularity", {"refresh_granularity": 2}),
        ("none", "rfm", {"raaimt": 8, "raammt": 16, "trfm": 120}),
        ("prac", "rfm", {"raaimt": 8, "raammt": 16}),
    ],
)
def test_refresh_policies_issue_a_legal_stream(mitigation, refresh_policy, params):
    run = _run_checked(
        _mix_spec(
            mitigation,
            channels=2,
            requests=150,
            refresh_policy=refresh_policy,
            params=params,
        )
    )
    # Each point exercises its policy's own command: the shortened REF
    # interval of fine-granularity refresh, or bank-scoped RFMs.
    expected = REF if refresh_policy == "fine_granularity" else RFM
    assert run.recorder.kinds[expected] > 0


def test_prac_alert_back_off_binds_in_a_legal_stream():
    # The mix points above stay below PRAC's alert threshold.  Two
    # aggressors per bank at NRH = 64 alert, and demand commands wait
    # exactly to the end of the back-off window, so an off-by-one shows.
    run = _run_checked(
        ExperimentSpec(
            workload=WorkloadSpec(
                name="attack_traditional",
                num_requests=1200,
                params={"aggressor_rows_per_bank": 2},
            ),
            mitigation=MitigationSpec(name="prac", nrh=64),
            verify_security="streaming",
        )
    )
    assert run.tight["tABO"] > 0
