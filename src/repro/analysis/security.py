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

The verifier registers its ACT observer with
:meth:`~repro.dram.dram_system.DRAMSystem.add_audit_activation_observer`, so
it counts every ACT before any row refresh the same ACT triggers inside a
mitigation's own ACT callback (PRAC's alert, REGA's per-ACT refresh).
Violations are counted, not raised: the verifier keeps the violation count,
the first-violation cycle and the running disturbance maximum, so tests can
assert on them and audits can report "secure / not secure" and the
worst-case margin per mechanism.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.dram.address import DRAMAddress
from repro.dram.dram_system import DRAMSystem

RowKey = Tuple[int, int, int, int, int]  # channel, rank, bankgroup, bank, row


class SecurityVerifier:
    """Tracks per-victim disturbance and flags RowHammer threshold violations."""

    def __init__(self, dram: DRAMSystem, nrh: int, blast_radius: int = 1) -> None:
        if nrh <= 0:
            raise ValueError("nrh must be positive")
        self.nrh = nrh
        self.blast_radius = blast_radius
        #: Victim row offsets from an activated row, nearest first:
        #: ``(-1, 1, -2, 2, ...)`` up to the blast radius.
        self._offsets = tuple(
            offset
            for distance in range(1, blast_radius + 1)
            for offset in (-distance, distance)
        )
        self._disturbance: Dict[RowKey, int] = {}
        #: Results, kept current on every ACT: how many times a victim's
        #: disturbance reached NRH, the cycle of the first such ACT, and the
        #: largest disturbance seen.
        self.violation_count = 0
        self.first_violation_cycle: Optional[int] = None
        self.max_disturbance = 0
        organization = dram.config.organization
        self.rows_per_bank = organization.rows_per_bank
        #: ``(bankgroup, bank)`` of every bank in a rank: the banks a REF covers.
        self._rank_banks = [
            (bankgroup, bank)
            for bankgroup in range(organization.bankgroups_per_rank)
            for bank in range(organization.banks_per_bankgroup)
        ]
        dram.add_audit_activation_observer(self._on_activation)
        dram.add_refresh_observer(self._on_rank_refresh)
        dram.add_row_refresh_observer(self._on_row_refresh)

    # ------------------------------------------------------------------ #
    # Observers
    # ------------------------------------------------------------------ #
    def _on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        """Add one unit of disturbance to each neighbour of the activated row.

        Preventive ACTs disturb their neighbours exactly like demand ACTs;
        the refreshed victim row itself is cleared by the row-refresh
        observer.  Keys are built from the address fields rather than
        ``address.bank_key``, which would cache a tuple on every address
        the verifier sees.
        """
        disturbance = self._disturbance
        nrh = self.nrh
        rows_per_bank = self.rows_per_bank
        channel, rank = address.channel, address.rank
        bankgroup, bank = address.bankgroup, address.bank
        row = address.row
        for offset in self._offsets:
            victim_row = row + offset
            if not 0 <= victim_row < rows_per_bank:
                continue
            key = (channel, rank, bankgroup, bank, victim_row)
            value = disturbance.get(key, 0) + 1
            disturbance[key] = value
            if value > self.max_disturbance:
                self.max_disturbance = value
            if value >= nrh:
                self.violation_count += 1
                if self.first_violation_cycle is None:
                    self.first_violation_cycle = cycle

    def observe_batch(self, cycles, addresses, flags) -> None:
        """Count a sequence of ACT events, in order, like :meth:`_on_activation`.

        Nothing in the simulator calls it; ``perfbench/tracing.py`` wraps
        it by name, so it stays until that harness drops the wrap.
        """
        for event in zip(cycles, addresses, flags):
            self._on_activation(*event)

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
    @property
    def is_secure(self) -> bool:
        return self.violation_count == 0

    @property
    def margin(self) -> float:
        """Worst observed disturbance as a fraction of NRH (1.0 = violated)."""
        return self.max_disturbance / self.nrh

    def disturbance_of(self, address: DRAMAddress) -> int:
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
