"""The JEDEC command-stream oracle (``tests/oracle_commands.py``).

Two halves:

* the oracle itself — hand-built command streams put each rule exactly at
  its limit (clean) and one cycle before it (flagged, by name);
* the simulator under the oracle — whole runs across every registered
  mitigation x scheduler x row policy, plus the refresh policies, must
  issue a legal command stream.  The golden runs are checked where they
  are pinned (``tests/test_channel_fabric.py``,
  ``tests/test_fastpath_identity.py``).
"""

import itertools
from dataclasses import replace

import pytest

from golden_runs import MIX4
from oracle_commands import (
    CommandRecorder,
    CommandStreamChecker,
    checked_runs,
    command_line,
)
from repro.controller.policies import (
    ControllerPolicySpec,
    row_policy_names,
    scheduler_names,
)
from repro.dram.commands import Command, CommandKind
from repro.dram.config import small_test_config
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


def check(stream, config=_NO_REFRESH):
    checker = CommandStreamChecker(config)
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


def test_wtr_l_holds_across_an_intervening_write_to_another_bank_group():
    # WR bg0, WR bg1, RD bg0: the read is bound by bg0's write (tWTR_L),
    # not only by the most recent write (tWTR_S).
    first_end = 26 + _WR_END
    stream = [
        (0, act(0, 0)),
        (4, act(1, 0)),
        (10, act(0, 1)),
        (26, wr(0, 0)),
        (30, wr(1, 0)),
    ]
    assert check(stream + [(first_end + _T.tWTR_L, rd(0, 1))]) == []
    flagged = check(stream + [(first_end + _T.tWTR_L - 1, rd(0, 1))])
    assert any(": tWTR_L " in v for v in flagged), flagged


def test_wtr_l_holds_across_an_intervening_read():
    end = 22 + _WR_END
    stream = [(0, act(0, 0)), (4, act(1, 0)), (10, act(0, 1)), (22, wr(0, 0))]
    stream.append((end + _T.tWTR_S, rd(1, 0)))
    assert check(stream + [(end + _T.tWTR_L, rd(0, 1))]) == []
    flagged = check(stream + [(end + _T.tWTR_L - 1, rd(0, 1))])
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
