"""RowHammer security verification.

The paper's security argument (Section 5) is that no DRAM row is ever
activated ``NRH`` times between two refreshes of its victim rows.  The
:class:`SecurityVerifier` checks the equivalent victim-centric invariant on
the ground truth maintained by the DRAM model:

    for every victim row v, the number of activations of v's neighbouring
    (aggressor) rows since v was last refreshed stays below NRH.

The verifier observes three event streams from the DRAM model:

* every ACT (demand or preventive) adds one unit of disturbance to the
  activated row's neighbours;
* every preventive/in-DRAM row refresh clears the refreshed row's
  disturbance;
* every periodic REF clears the disturbance of the rows it covers in every
  bank of the refreshed rank — scoped to that rank's channel.  On the
  channel-partitioned fabric each channel runs its own verifier over its own
  channel-scoped :class:`~repro.dram.dram_system.DRAMSystem`, and REF events
  carry their ``(channel, rank)`` key, so a refresh on one channel never
  clears another channel's disturbance (pinned by the two-channel tests in
  ``tests/test_security_verifier.py``).

Violations are recorded (not raised) so tests can assert on them and the
benchmark harness can report "secure / not secure" per mechanism.  Audits
that only need the verdict and the worst-case margin run the verifier with
``record_violations=False``: the streaming mode keeps the violation *count*,
the first-violation cycle and the running disturbance maximum, but skips
materializing a :class:`SecurityViolation` object per offending ACT (an
unprotected baseline under a hammering attack yields one per ACT beyond the
threshold, which is pure overhead when nobody reads the list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dram.address import DRAMAddress
from repro.dram.dram_system import DRAMSystem

RowKey = Tuple[int, int, int, int, int]  # channel, rank, bankgroup, bank, row


@dataclass(frozen=True)
class SecurityViolation:
    """One observed violation of the RowHammer invariant."""

    cycle: int
    victim: RowKey
    disturbance: int
    nrh: int

    def describe(self) -> str:
        channel, rank, bankgroup, bank, row = self.victim
        return (
            f"cycle {self.cycle}: victim row {row} "
            f"(ch{channel}/ra{rank}/bg{bankgroup}/ba{bank}) accumulated "
            f"{self.disturbance} aggressor activations >= NRH={self.nrh}"
        )


class SecurityVerifier:
    """Tracks per-victim disturbance and flags RowHammer threshold violations."""

    def __init__(
        self,
        dram: DRAMSystem,
        nrh: int,
        blast_radius: int = 1,
        record_violations: bool = True,
    ) -> None:
        if nrh <= 0:
            raise ValueError("nrh must be positive")
        self.dram = dram
        self.nrh = nrh
        self.blast_radius = blast_radius
        #: ``False`` enables the streaming max-margin mode: only the count,
        #: the first-violation cycle and ``max_disturbance`` are maintained
        #: and ``violations`` stays empty.
        self.record_violations = record_violations
        self._disturbance: Dict[RowKey, int] = {}
        self._violations: List[SecurityViolation] = []
        self._violation_count = 0
        self._first_violation_cycle: Optional[int] = None
        self._max_disturbance = 0
        organization = dram.config.organization
        self.rows_per_bank = organization.rows_per_bank
        #: ``(bankgroup, bank)`` of every bank in a rank: the banks a REF covers.
        self._rank_banks = [
            (bankgroup, bank)
            for bankgroup in range(organization.bankgroups_per_rank)
            for bank in range(organization.banks_per_bankgroup)
        ]
        # Streaming audits receive ACT events in batches at the model's
        # drain points (refresh notifications, result reads) instead
        # of one callback per ACT; the verdict is
        # bit-identical because event order is preserved and the model
        # drains the buffer before any refresh notification.  Every public
        # result accessor flushes first, so partial batches are never
        # visible.  Recording audits keep per-event delivery: the
        # violation list is cheap to reason about when it grows in lockstep
        # with the command stream.
        self._batched = not record_violations
        if self._batched:
            dram.add_batch_activation_observer(self.observe_batch)
        else:
            dram.add_activation_observer(self._on_activation)
        dram.add_refresh_observer(self._on_rank_refresh)
        dram.add_row_refresh_observer(self._on_row_refresh)

    # ------------------------------------------------------------------ #
    # Observers
    # ------------------------------------------------------------------ #
    def _flush(self) -> None:
        """Drain the DRAM model's pending ACT batch into this verifier."""
        if self._batched:
            self.dram.flush_activations()

    def _on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        """Add one unit of disturbance to each neighbour of the activated row."""
        if self.blast_radius != 1:
            self._disturb_within_radius(cycle, address)
            return
        # The blast-radius-1 form of observe_batch's loop, for one event.
        # Keys are built from the fields rather than ``address.bank_key``,
        # which would cache a tuple on every address the verifier sees.
        disturbance = self._disturbance
        nrh = self.nrh
        channel, rank = address.channel, address.rank
        bankgroup, bank = address.bankgroup, address.bank
        row = address.row
        for victim_row in (row - 1, row + 1):
            if not 0 <= victim_row < self.rows_per_bank:
                continue
            key = (channel, rank, bankgroup, bank, victim_row)
            value = disturbance.get(key, 0) + 1
            disturbance[key] = value
            if value > self._max_disturbance:
                self._max_disturbance = value
            if value >= nrh:
                self._violate(cycle, key, value)

    def _disturb_within_radius(self, cycle: int, address: DRAMAddress) -> None:
        """:meth:`_on_activation` for any blast radius."""
        base = (address.channel, address.rank, address.bankgroup, address.bank)
        for distance in range(1, self.blast_radius + 1):
            for direction in (-1, 1):
                victim_row = address.row + direction * distance
                if not 0 <= victim_row < self.rows_per_bank:
                    continue
                key = base + (victim_row,)
                value = self._disturbance.get(key, 0) + 1
                self._disturbance[key] = value
                if value > self._max_disturbance:
                    self._max_disturbance = value
                if value >= self.nrh:
                    self._violate(cycle, key, value)

    def _violate(self, cycle: int, key: RowKey, value: int) -> None:
        """Count (and, when recording, keep) one violation of the invariant."""
        self._violation_count += 1
        if self._first_violation_cycle is None:
            self._first_violation_cycle = cycle
        if self.record_violations:
            self._violations.append(
                SecurityViolation(cycle=cycle, victim=key, disturbance=value, nrh=self.nrh)
            )

    def observe_batch(self, cycles, addresses, flags) -> None:
        """Batched form of :meth:`_on_activation` (same math, hoisted loop).

        Equivalence with the serial observer is property-tested in
        ``tests/test_observer_batch.py``.  ``flags`` is accepted for protocol
        uniformity; preventive ACTs disturb their neighbours exactly like
        demand ACTs (the refreshed victim row is cleared separately through
        the row-refresh observer).
        """
        if self.blast_radius != 1:
            for cycle, address in zip(cycles, addresses):
                self._disturb_within_radius(cycle, address)
            return
        disturbance = self._disturbance
        get = disturbance.get
        nrh = self.nrh
        rows_per_bank = self.rows_per_bank
        record = self.record_violations
        max_disturbance = self._max_disturbance
        violation_count = self._violation_count
        first_violation = self._first_violation_cycle
        for cycle, address in zip(cycles, addresses):
            channel, rank = address.channel, address.rank
            bankgroup, bank = address.bankgroup, address.bank
            row = address.row
            for victim_row in (row - 1, row + 1):
                if not 0 <= victim_row < rows_per_bank:
                    continue
                key = (channel, rank, bankgroup, bank, victim_row)
                value = get(key, 0) + 1
                disturbance[key] = value
                if value > max_disturbance:
                    max_disturbance = value
                if value >= nrh:
                    violation_count += 1
                    if first_violation is None:
                        first_violation = cycle
                    if record:
                        self._violations.append(
                            SecurityViolation(
                                cycle=cycle, victim=key,
                                disturbance=value, nrh=nrh,
                            )
                        )
        self._max_disturbance = max_disturbance
        self._violation_count = violation_count
        self._first_violation_cycle = first_violation

    def _on_row_refresh(self, cycle: int, address: DRAMAddress) -> None:
        key = (address.channel, address.rank, address.bankgroup, address.bank, address.row)
        if key in self._disturbance:
            del self._disturbance[key]

    def _on_rank_refresh(
        self, cycle: int, rank_key: Tuple[int, int], start_row: int, count: int
    ) -> None:
        """Clear the rows a REF covers in every bank of the refreshed rank.

        Walks whichever is smaller: the tracked victims, or the rank's banks
        x covered rows (one ``dict.pop`` each), so a REF costs the rows it
        covers on a large footprint and a short scan on a small one.  Both
        delete the same keys, so the dict's order and the verdicts do not
        depend on the choice.
        """
        channel, rank = rank_key
        disturbance = self._disturbance
        end_row = min(start_row + count, self.rows_per_bank)
        if len(disturbance) <= (end_row - start_row) * len(self._rank_banks):
            stale = [
                key
                for key in disturbance
                if key[0] == channel and key[1] == rank and start_row <= key[4] < end_row
            ]
            for key in stale:
                del disturbance[key]
            return
        pop = disturbance.pop
        rows = range(start_row, end_row)
        for bankgroup, bank in self._rank_banks:
            for row in rows:
                pop((channel, rank, bankgroup, bank, row), None)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    # The result accessors flush the DRAM model's pending ACT batch first,
    # so callers never observe a partially delivered window.

    @property
    def violations(self) -> List[SecurityViolation]:
        self._flush()
        return self._violations

    @property
    def violation_count(self) -> int:
        self._flush()
        return self._violation_count

    @property
    def first_violation_cycle(self) -> Optional[int]:
        self._flush()
        return self._first_violation_cycle

    @property
    def max_disturbance(self) -> int:
        self._flush()
        return self._max_disturbance

    @property
    def is_secure(self) -> bool:
        return self.violation_count == 0

    @property
    def margin(self) -> float:
        """Worst observed disturbance as a fraction of NRH (1.0 = violated)."""
        return self.max_disturbance / self.nrh

    def disturbance_of(self, address: DRAMAddress) -> int:
        self._flush()
        key = (address.channel, address.rank, address.bankgroup, address.bank, address.row)
        return self._disturbance.get(key, 0)

    def report(self) -> Dict[str, object]:
        return {
            "nrh": self.nrh,
            "is_secure": self.is_secure,
            "violations": self.violation_count,
            "max_disturbance": self.max_disturbance,
            "margin": self.margin,
            "first_violation_cycle": self.first_violation_cycle,
            "tracked_victims": len(self._disturbance),
        }
