"""Batch == serial activation-observer equivalence, property-tested.

The DRAM model delivers ACT events to *pure* observers in
batches — SoA columns handed to ``observe_batch`` at drain points
(refresh notifications, verifier result reads, a size cap) — instead of
one callback per ACT.  The streaming :class:`~repro.analysis.security.SecurityVerifier` is
the only such observer; mitigation mechanisms feed back into the command
stream and always observe ACTs synchronously.  That is only sound if the
verifier's hoisted batch body is behaviorally identical to its per-event
observer, which these tests pin for arbitrary event streams and arbitrary
batch partitionings: same disturbance map (in insertion order), same
verdict.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.security import SecurityVerifier
from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig, small_test_config
from repro.dram.dram_system import DRAMSystem

#: Low enough that the generated event streams actually produce violations.
VERIFIER_NRH = 6


def _tiny_config() -> DRAMConfig:
    """The conftest tiny config, rebuilt per example (hypothesis-safe)."""
    return small_test_config(
        rows_per_bank=256,
        banks_per_bankgroup=2,
        bankgroups_per_rank=2,
        ranks_per_channel=1,
        refresh_window_scale=1.0 / 2048.0,
    )


# One raw event: (bank_index in [0, 4), row in [0, 256), preventive flag,
# cycle gap to the previous event).  Cycles are built as a running sum so
# event order and timestamps are always consistent.
_events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        # Rows from a small pool so streams revisit the same aggressors and
        # the verifier's NRH threshold is actually crossed in many examples.
        st.integers(min_value=0, max_value=9),
        st.booleans(),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=120,
)


def _materialize(config, raw_events):
    """(cycles, addresses, flags) SoA columns from the raw event tuples."""
    mapper = AddressMapper(config)
    cycles, addresses, flags = [], [], []
    cycle = 0
    for bank_index, row, preventive, gap in raw_events:
        cycle += gap
        cycles.append(cycle)
        addresses.append(
            mapper.decode(mapper.address_for_row(row, bank_index=bank_index))
        )
        flags.append(preventive)
    return cycles, addresses, flags


def _partition(data, n):
    """Draw a list of batch lengths covering ``n`` events exactly."""
    sizes = []
    remaining = n
    while remaining > 0:
        size = data.draw(st.integers(min_value=1, max_value=remaining))
        sizes.append(size)
        remaining -= size
    return sizes


class TestVerifierBatchEqualsSerial:
    """The SecurityVerifier's vectorized observe_batch == the serial observer."""

    @staticmethod
    def _pair(config, record_violations, blast_radius):
        serial = SecurityVerifier(
            DRAMSystem(config),
            nrh=VERIFIER_NRH,
            blast_radius=blast_radius,
            record_violations=record_violations,
        )
        batched = SecurityVerifier(
            DRAMSystem(config),
            nrh=VERIFIER_NRH,
            blast_radius=blast_radius,
            record_violations=record_violations,
        )
        return serial, batched

    @settings(max_examples=25, deadline=None)
    @given(
        raw_events=_events_strategy,
        data=st.data(),
        record_violations=st.booleans(),
        blast_radius=st.integers(min_value=1, max_value=2),
    )
    def test_batch_matches_serial(
        self, raw_events, data, record_violations, blast_radius
    ):
        # blast_radius=1 exercises the unrolled fast branch, 2 the generic
        # fallback; record_violations covers both audit modes.
        config = _tiny_config()
        serial, batched = self._pair(config, record_violations, blast_radius)
        cycles, addresses, flags = _materialize(config, raw_events)
        for cycle, address, flag in zip(cycles, addresses, flags):
            serial._on_activation(cycle, address, flag)
        start = 0
        for size in _partition(data, len(cycles)):
            batched.observe_batch(
                cycles[start : start + size],
                addresses[start : start + size],
                flags[start : start + size],
            )
            start += size

        assert list(batched._disturbance.items()) == list(
            serial._disturbance.items()
        )
        assert batched.violation_count == serial.violation_count
        assert batched.max_disturbance == serial.max_disturbance
        assert batched.first_violation_cycle == serial.first_violation_cycle
        assert batched.violations == serial.violations

    def test_streaming_fastpath_wires_batches(self):
        """Streaming audits register the batch observer (the drain-point
        protocol), recording audits stay serial."""
        dram = DRAMSystem(_tiny_config())
        streaming = SecurityVerifier(dram, nrh=VERIFIER_NRH, record_violations=False)
        recording = SecurityVerifier(dram, nrh=VERIFIER_NRH, record_violations=True)
        assert streaming._batched
        assert not recording._batched
