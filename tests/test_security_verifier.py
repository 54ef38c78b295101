"""Property-based and channel-scoping tests for the SecurityVerifier.

The verifier is the ground truth the whole security story rests on, so it is
pinned from three directions:

* **Soundness** (hypothesis): for arbitrary interleavings of ACT, per-row
  refresh and rank-REF events, at blast radius 1 and 2, the verifier reports
  a violation on exactly the events at which an independently tracked
  victim-disturbance oracle reaches NRH — never below it, always when a
  stream provably crosses it.
* **Blast-radius dominance** (hypothesis): a ``blast_radius=2`` verifier
  observes at least the disturbance (and every violation, no later) of a
  ``blast_radius=1`` verifier on the same stream.
* **One ACT path**: ``verify_security=True`` and ``"streaming"`` are the
  same run; the verifier counts an ACT before the row refreshes that ACT
  triggers (PRAC's alert), so the two agree on PRAC audit cells.
* **Channel scoping**: a periodic REF clears
  rows in every bank of the refreshed rank *of that channel only* — both at
  the observer level and end-to-end on a two-channel fabric — and
  (hypothesis) leaves exactly what a full scan of the tracked victims keeps.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.security import SecurityVerifier
from repro.dram.address import DRAMAddress
from repro.dram.config import small_test_config
from repro.dram.dram_system import DRAMSystem

ROWS = 32
NRH = 6


def make_verifier(nrh=NRH, blast_radius=1, channels=1):
    config = small_test_config(
        rows_per_bank=ROWS,
        banks_per_bankgroup=2,
        bankgroups_per_rank=2,
        ranks_per_channel=1,
        refresh_window_scale=1.0 / 2048.0,
        channels=channels,
    )
    dram = DRAMSystem(config)
    return SecurityVerifier(dram, nrh=nrh, blast_radius=blast_radius)


def address(row, bank=0, bankgroup=0, channel=0, rank=0):
    return DRAMAddress(
        channel=channel, rank=rank, bankgroup=bankgroup, bank=bank, row=row, column=0
    )


# Event streams: ACT to a row, a preventive/in-DRAM refresh of a row, or a
# rank-level REF covering a row range.
acts = st.tuples(st.just("act"), st.integers(0, ROWS - 1), st.integers(0, 1))
row_refreshes = st.tuples(st.just("rowref"), st.integers(0, ROWS - 1), st.integers(0, 1))
rank_refreshes = st.tuples(st.just("ref"), st.integers(0, ROWS - 1), st.just(8))
events = st.lists(st.one_of(acts, row_refreshes, rank_refreshes), min_size=1, max_size=250)


# Every victim key of a 2-channel, 2-rank, 2x2-bank fabric.
ALL_VICTIMS = [
    (channel, rank, bankgroup, bank, row)
    for channel in (0, 1)
    for rank in (0, 1)
    for bankgroup in (0, 1)
    for bank in (0, 1)
    for row in range(ROWS)
]


def full_scan_refresh(disturbance, channel, rank, start_row, count):
    """Reference REF: keep every victim outside the rank's covered rows."""
    return {
        key: value
        for key, value in disturbance.items()
        if not (
            key[0] == channel and key[1] == rank
            and start_row <= key[4] < start_row + count
        )
    }


def apply_stream(verifier, stream, channel=0):
    """Drive the observer hooks directly and maintain the oracle in parallel.

    The oracle is an independent dict of victim -> activation count since
    that victim's last refresh.  Returns it, the expected violation events
    ``(cycle, bank, victim)`` and the cycles at which the verifier's
    ``violation_count`` grew, once per unit of growth.
    """
    oracle = defaultdict(int)
    expected_violations = []
    observed_cycles = []
    blast = verifier.blast_radius
    for cycle, (kind, row, bank) in enumerate(stream):
        if kind == "act":
            before = verifier.violation_count
            verifier._on_activation(cycle, address(row, bank=bank, channel=channel), False)
            observed_cycles += [cycle] * (verifier.violation_count - before)
            for distance in range(1, blast + 1):
                for victim in (row - distance, row + distance):
                    if 0 <= victim < ROWS:
                        oracle[(bank, victim)] += 1
                        if oracle[(bank, victim)] >= verifier.nrh:
                            expected_violations.append((cycle, bank, victim))
        elif kind == "rowref":
            verifier._on_row_refresh(cycle, address(row, bank=bank, channel=channel))
            oracle.pop((bank, row), None)
        else:  # rank-level REF covering [row, row + count)
            count = bank  # reused slot: here it is the covered row count (8)
            verifier._on_rank_refresh(cycle, (channel, 0), row, count)
            for key in [k for k in oracle if row <= k[1] < row + count]:
                del oracle[key]
    return oracle, expected_violations, observed_cycles


class TestVerifierSoundness:
    @pytest.mark.parametrize("blast_radius", [1, 2])
    @settings(max_examples=80, deadline=None)
    @given(stream=events)
    def test_matches_oracle_exactly(self, stream, blast_radius):
        """Violations (count, cycles) match the independent oracle: no report
        below NRH, a report whenever the oracle crosses NRH."""
        verifier = make_verifier(blast_radius=blast_radius)
        oracle, expected, observed = apply_stream(verifier, stream)
        assert verifier.violation_count == len(expected)
        assert observed == [c for c, _, _ in expected]
        if expected:
            assert not verifier.is_secure
            assert verifier.first_violation_cycle == expected[0][0]
        else:
            assert verifier.is_secure
            assert verifier.first_violation_cycle is None
            assert verifier.max_disturbance < verifier.nrh

    @settings(max_examples=60, deadline=None)
    @given(stream=events, row=st.integers(1, ROWS - 2))
    def test_provable_crossing_is_always_reported(self, stream, row):
        """Any prefix followed by NRH straight ACTs on one row must violate:
        disturbance only grows without refreshes, so the neighbours provably
        cross the threshold."""
        verifier = make_verifier()
        apply_stream(verifier, stream)
        base = len(stream)
        for extra in range(verifier.nrh):
            verifier._on_activation(base + extra, address(row), False)
        assert not verifier.is_secure
        assert verifier.violation_count >= 1
        assert verifier.max_disturbance >= verifier.nrh

    @settings(max_examples=60, deadline=None)
    @given(stream=events)
    def test_blast_radius_2_dominates_1(self, stream):
        """The wider blast radius sees a superset of the damage: its maximum
        dominates, it has at least as many violations, and it never reports
        the first violation later."""
        narrow = make_verifier(blast_radius=1)
        wide = make_verifier(blast_radius=2)
        apply_stream(narrow, stream)
        apply_stream(wide, stream)
        assert wide.max_disturbance >= narrow.max_disturbance
        assert wide.violation_count >= narrow.violation_count
        if narrow.first_violation_cycle is not None:
            assert wide.first_violation_cycle is not None
            assert wide.first_violation_cycle <= narrow.first_violation_cycle


class TestChannelScoping:
    """Per-channel REF semantics (the PR-2 fabric contract).

    The module docstring promises a periodic REF clears the rows it covers
    in every bank of the refreshed rank *scoped to that rank's channel*;
    these tests pin the implementation to that reading.
    """

    def test_rank_refresh_clears_only_its_channel(self):
        verifier = make_verifier(channels=2)
        # Same rank/bank/row coordinates on both channels.
        for cycle in range(3):
            verifier._on_activation(cycle, address(10, channel=0), False)
            verifier._on_activation(cycle, address(10, channel=1), False)
        assert verifier.disturbance_of(address(11, channel=0)) == 3
        assert verifier.disturbance_of(address(11, channel=1)) == 3
        # REF on channel 0's rank covering the victim rows.
        verifier._on_rank_refresh(100, (0, 0), 0, ROWS)
        assert verifier.disturbance_of(address(11, channel=0)) == 0
        assert verifier.disturbance_of(address(11, channel=1)) == 3

    def test_rank_refresh_clears_every_bank_of_the_rank(self):
        verifier = make_verifier()
        for bank in (0, 1):
            for bankgroup in (0, 1):
                verifier._on_activation(
                    0, address(10, bank=bank, bankgroup=bankgroup), False
                )
        verifier._on_rank_refresh(1, (0, 0), 0, ROWS)
        for bank in (0, 1):
            for bankgroup in (0, 1):
                assert (
                    verifier.disturbance_of(address(11, bank=bank, bankgroup=bankgroup))
                    == 0
                )

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.permutations(ALL_VICTIMS),
        tracked=st.integers(0, len(ALL_VICTIMS)),
        channel=st.integers(0, 1),
        rank=st.integers(0, 1),
        start_row=st.integers(0, ROWS - 1),
        count=st.integers(1, ROWS),
    )
    def test_rank_refresh_matches_a_full_scan(
        self, order, tracked, channel, rank, start_row, count
    ):
        """A REF leaves exactly the victims a full scan keeps, in the same
        order, whether the map is smaller or larger than the rows covered."""
        victims = [(key, 1 + index % 5) for index, key in enumerate(order[:tracked])]
        verifier = make_verifier(channels=2)
        verifier._disturbance.update(victims)
        expected = full_scan_refresh(
            dict(victims), channel, rank, start_row, count
        )
        verifier._on_rank_refresh(0, (channel, rank), start_row, count)
        assert list(verifier._disturbance.items()) == list(expected.items())

    def test_two_channel_fabric_isolates_attack_disturbance(self):
        """End to end: an attack confined to channel 1 of a 2-channel fabric
        registers on channel 1's verifier and leaves channel 0 clean."""
        from repro.sim.system import System, SystemConfig
        from repro.workloads.attacks import traditional_rowhammer_attack

        config = small_test_config(
            rows_per_bank=128,
            banks_per_bankgroup=2,
            bankgroups_per_rank=2,
            ranks_per_channel=1,
            refresh_window_scale=1.0 / 512.0,
            channels=2,
        )
        attack = traditional_rowhammer_attack(
            num_requests=1200, dram_config=config, aggressor_rows_per_bank=2, channel=1
        )
        system = System(
            [attack],
            mitigation=None,
            config=SystemConfig(
                dram=config, verify_security=True, nrh_for_verification=10_000
            ),
        )
        system.run()
        assert len(system.verifiers) == 2
        assert system.verifiers[1].max_disturbance > 0
        assert system.verifiers[0].max_disturbance == 0


class TestVerifierAPI:
    def test_streaming_report_fields(self):
        verifier = make_verifier()
        for cycle in range(NRH + 2):
            verifier._on_activation(cycle, address(5), False)
        report = verifier.report()
        assert report["is_secure"] is False
        # Both neighbours (rows 4 and 6) violate on cycles NRH-1, NRH, NRH+1.
        assert report["violations"] == 6
        assert report["first_violation_cycle"] == NRH - 1
        assert report["margin"] == pytest.approx(report["max_disturbance"] / NRH)

    def test_nrh_must_be_positive(self):
        with pytest.raises(ValueError):
            make_verifier(nrh=0)


class TestOneActPath:
    """``verify_security=True`` and ``"streaming"`` count every ACT the same
    way, before any row refresh the same ACT triggers.  PRAC refreshes the
    victims of an alerting row inside its own ACT callback; a verifier that
    ran after it counted that ACT against the freshly refreshed victims and
    read one less than an audit did."""

    @pytest.mark.parametrize(
        "pattern, max_disturbance",
        [
            ("attack_single_row", 62),
            ("synth_multichannel", 123),
            ("synth_sketch_aliasing", 123),
        ],
    )
    def test_prac_cells_agree_across_verify_modes(self, pattern, max_disturbance):
        from dataclasses import replace

        from repro.experiment.execute import execute_spec
        from repro.security.audit import build_audit_grid

        (audit_cell,) = build_audit_grid(
            mitigations=["prac"], patterns=[pattern], nrhs=[125], num_requests=1500
        )
        assert audit_cell.verify_security == "streaming"
        results = [
            execute_spec(spec)
            for spec in (audit_cell, replace(audit_cell, verify_security=True))
        ]
        figures = [
            (r.max_disturbance, r.security_violations, r.first_violation_cycle)
            for r in results
        ]
        assert figures[0] == figures[1] == (max_disturbance, 0, None)
