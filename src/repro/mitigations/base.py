"""Common interface every RowHammer mitigation implements.

The memory controller interacts with a mitigation through six hooks:

* :meth:`RowHammerMitigation.adjust_dram_config` — rewrite DRAM timings
  before the device model is built (REGA inflates activation latency).
* :meth:`RowHammerMitigation.on_activation` — observe every ACT command; the
  mitigation may schedule preventive refreshes or inject its own traffic.
* :meth:`RowHammerMitigation.on_refresh` — observe rank-level REF commands
  (used for window bookkeeping by mechanisms that need it).
* :meth:`RowHammerMitigation.act_allowed_cycle` — optionally delay demand
  activations (BlockHammer's throttling).
* :meth:`RowHammerMitigation.demand_blocked_until` — optionally stall all
  demand issue for a recovery window (PRAC's Alert Back-Off).
* :meth:`RowHammerMitigation.storage_bits_per_bank` /
  :meth:`storage_report` — feed the area model of Table 1 / Table 4.

Concrete mechanisms keep their per-bank state keyed by
``DRAMAddress.bank_key`` so a single mitigation object protects the whole
channel, exactly like the per-bank tables the paper describes.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.dram.address import DRAMAddress
from repro.dram.config import DRAMConfig


@dataclass
class MitigationStatistics:
    """Counters shared by every mitigation (reported by the harness)."""

    observed_activations: int = 0
    preventive_refreshes: int = 0
    early_refresh_operations: int = 0
    mitigation_memory_requests: int = 0
    throttled_activations: int = 0
    counter_resets: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment a mechanism-specific counter in ``extra``."""
        self.extra[key] = self.extra.get(key, 0) + amount


class RowHammerMitigation(ABC):
    """Base class for RowHammer mitigation mechanisms.

    Parameters
    ----------
    nrh:
        The RowHammer threshold the mechanism must protect against.
    blast_radius:
        Number of physically adjacent victim rows on each side of an
        aggressor that a preventive refresh covers (1 in the paper).
    """

    name = "base"

    def __init__(self, nrh: int, blast_radius: int = 1) -> None:
        if nrh <= 0:
            raise ValueError("nrh must be positive")
        self.nrh = nrh
        self.blast_radius = blast_radius
        self.stats = MitigationStatistics()
        self.controller = None  # set by attach()
        self.dram_config: Optional[DRAMConfig] = None
        #: Channel this instance protects (set by attach()); ``None`` means
        #: the legacy monolithic layout where one instance covers them all.
        self.channel: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def adjust_dram_config(self, config: DRAMConfig) -> DRAMConfig:
        """Hook to rewrite DRAM timing/organization (default: unchanged)."""
        return config

    def attach(self, controller) -> None:
        """Called by the memory controller once it is constructed."""
        self.controller = controller
        self.dram_config = controller.dram_config
        self.channel = getattr(controller, "channel", None)

    # ------------------------------------------------------------------ #
    # Event hooks
    # ------------------------------------------------------------------ #
    def on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        """Observe an ACT command (including preventive ACTs, flagged)."""

    def on_refresh(
        self, cycle: int, rank_key: Tuple[int, int], start_row: int, count: int
    ) -> None:
        """Observe a rank-level REF command covering ``count`` rows per bank."""

    def act_allowed_cycle(self, address: DRAMAddress, cycle: int) -> int:
        """Earliest cycle a demand ACT to ``address`` may issue (default: now)."""
        return cycle

    #: True for mechanisms that assert Alert Back-Off (PRAC): the controller
    #: then consults :meth:`demand_blocked_until` before every demand
    #: scheduling decision.  False skips the hook call entirely.
    BLOCKS_DEMAND = False

    def demand_blocked_until(self, cycle: int) -> int:
        """Cycle until which all demand issue is stalled (ABO); default: never.

        Unlike :meth:`act_allowed_cycle` — a per-address ACT throttle
        (BlockHammer) — this back-pressures the whole channel: reads, writes
        and row opens all wait while the device recovers from an alert.
        Refresh and preventive traffic are not held back.
        """
        return 0

    # ------------------------------------------------------------------ #
    # Helpers available to subclasses
    # ------------------------------------------------------------------ #
    def refresh_victims(self, cycle: int, aggressor: DRAMAddress) -> int:
        """Schedule preventive refreshes for the victims of ``aggressor``.

        Returns the number of victim rows queued.  Uses the controller's
        preventive-refresh queue, which is served with priority over demand
        requests (Section 7.2.2).
        """
        if self.controller is None:
            raise RuntimeError("mitigation is not attached to a controller")
        victims = self.controller.mapper.neighbors(aggressor, self.blast_radius)
        for victim in victims:
            self.controller.schedule_preventive_refresh(victim, cycle)
        self.stats.preventive_refreshes += len(victims)
        return len(victims)

    def bank_count(self) -> int:
        """Number of banks the mechanism protects (one table per bank).

        A channel-scoped instance (attached to one channel of a fabric)
        protects only its own channel's banks; summing the per-channel
        instances then yields the same system total as the legacy monolithic
        instance covering every channel.
        """
        if self.dram_config is None:
            raise RuntimeError("mitigation is not attached to a controller")
        org = self.dram_config.organization
        channels = 1 if self.channel is not None else org.channels
        return channels * org.ranks_per_channel * org.banks_per_rank

    # ------------------------------------------------------------------ #
    # Checkpointing (the sampled-fidelity Checkpoint protocol)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict:
        """Plain-data checkpoint of the mechanism's mutable state.

        The base capture covers the shared statistics; mechanisms with
        internal tracking state (sketches, tables, RNGs, reset timers)
        override :meth:`_snapshot_state`/:meth:`_restore_state` — keeping
        the stats plumbing in one place.  ``restore(snapshot())`` on an
        identically constructed and attached instance must reproduce
        identical subsequent behavior (pinned by
        ``tests/test_snapshot_restore.py``).
        """
        stats = dict(vars(self.stats))
        stats["extra"] = dict(self.stats.extra)
        return {"stats": stats, "state": self._snapshot_state()}

    def restore(self, data: Dict) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        for key, value in data["stats"].items():
            if key == "extra":
                self.stats.extra = dict(value)
            else:
                setattr(self.stats, key, value)
        self._restore_state(data["state"])

    def _snapshot_state(self) -> Dict:
        """Mechanism-specific mutable state (default: none)."""
        return {}

    def _restore_state(self, state: Dict) -> None:
        """Restore mechanism-specific state (default: nothing to restore)."""

    # ------------------------------------------------------------------ #
    # Area/storage modelling
    # ------------------------------------------------------------------ #
    def storage_bits_per_bank(self) -> int:
        """SRAM/CAM bits of per-bank state (0 for stateless mechanisms)."""
        return 0

    def storage_report(self) -> Dict[str, float]:
        """Storage breakdown in KiB for the whole (dual-rank) channel."""
        banks = self.bank_count() if self.dram_config is not None else 32
        total_bits = self.storage_bits_per_bank() * banks
        return {"total_KiB": total_bits / 8 / 1024}

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(nrh={self.nrh})"
