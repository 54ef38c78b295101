"""Channel-partitioned memory fabric.

:class:`ChannelFabric` owns one channel-scoped
:class:`~repro.controller.controller.MemoryController` per DRAM channel and
routes traffic between them by :attr:`DRAMAddress.channel`.  Each controller
has its own request queues, scheduler state, refresh schedule, DRAM device
model and (optionally) its own RowHammer-mitigation instance, so channels
simulate independently — the event kernel interleaves their command streams
by timestamp, and a busy channel never forces a scan of an idle one.

DDR4 channels share no timing state (each has its own command/data bus and
rank set), so the partition is exact: a 1-channel fabric is bit-identical to
the monolithic controller it replaced, and an N-channel fabric is the natural
generalization rather than an approximation.

The fabric exposes the slice of the controller interface the cores use
(:meth:`enqueue`, :attr:`mapper`, :meth:`add_slot_free_callback`) so a
:class:`~repro.cpu.core.Core` can hold a fabric exactly as it held a single
controller, plus aggregate statistics for result assembly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.controller.controller import (
    ControllerConfig,
    ControllerStatistics,
    MemoryController,
)
from repro.controller.policies import ControllerPolicySpec
from repro.controller.request import MemoryRequest
from repro.dram.config import DRAMConfig
from repro.dram.dram_system import DRAMStatistics
from repro.mitigations.base import RowHammerMitigation
from repro.mitigations.fabric import MitigationFabric, sum_statistics


class ChannelFabric:
    """One memory controller per channel, routed by ``DRAMAddress.channel``.

    Parameters
    ----------
    dram_config:
        Shared DRAM organization/timing; ``organization.channels`` sets the
        fabric width.
    config:
        Controller scheduling knobs, shared by every channel.
    policy:
        Optional :class:`~repro.controller.policies.ControllerPolicySpec`
        shared by every channel; each controller builds its *own* policy
        instances from it (schedulers and row policies are stateful).
    mitigations:
        ``None`` for the unprotected baseline, a single
        :class:`RowHammerMitigation` for a 1-channel fabric, or one instance
        per channel.  Mitigation state is per-bank and banks never span
        channels, so per-channel instances preserve the monolithic semantics
        while keeping each channel's tables independent.
    """

    def __init__(
        self,
        dram_config: DRAMConfig,
        config: Optional[ControllerConfig] = None,
        mitigations: Union[
            None, RowHammerMitigation, Sequence[RowHammerMitigation]
        ] = None,
        policy: Optional[ControllerPolicySpec] = None,
    ) -> None:
        num_channels = dram_config.organization.channels
        per_channel = self._normalize_mitigations(mitigations, num_channels)
        self.controllers: List[MemoryController] = [
            MemoryController(
                dram_config,
                config,
                mitigation=per_channel[channel],
                channel=channel,
                policy=policy,
            )
            for channel in range(num_channels)
        ]
        #: Per-channel mitigation view (None when unprotected); aggregates
        #: stats and storage across the channel instances.
        self.mitigation: Optional[MitigationFabric] = (
            MitigationFabric(per_channel) if per_channel[0] is not None else None
        )
        # Mitigations may rewrite the DRAM config (REGA); the controllers all
        # apply the same rewrite, so any controller's view works for routing.
        self.dram_config = self.controllers[0].dram_config
        self.mapper = self.controllers[0].mapper

    @staticmethod
    def _normalize_mitigations(
        mitigations: Union[None, RowHammerMitigation, Sequence[RowHammerMitigation]],
        num_channels: int,
    ) -> List[Optional[RowHammerMitigation]]:
        if mitigations is None:
            return [None] * num_channels
        if isinstance(mitigations, RowHammerMitigation):
            if num_channels != 1:
                raise ValueError(
                    f"a {num_channels}-channel fabric needs one mitigation "
                    f"instance per channel (got a single instance); build the "
                    f"list with MitigationSpec.build_instances"
                )
            return [mitigations]
        instances = list(mitigations)
        if len(instances) != num_channels:
            raise ValueError(
                f"expected {num_channels} mitigation instances "
                f"(one per channel), got {len(instances)}"
            )
        if all(instance is None for instance in instances):
            return instances
        if any(instance is None for instance in instances):
            raise ValueError(
                "mitigation sequence mixes None with instances: a "
                "half-protected fabric would be reported as unprotected; "
                "pass all-None (or None) for the baseline, or one instance "
                "per channel"
            )
        if len({id(instance) for instance in instances}) != len(instances):
            raise ValueError(
                "mitigation instances must be distinct objects: sharing one "
                "instance across channels would merge per-channel counter state"
            )
        return instances

    # ------------------------------------------------------------------ #
    # Controller interface used by the cores
    # ------------------------------------------------------------------ #
    def enqueue(self, request: MemoryRequest, cycle: int) -> bool:
        """Route ``request`` to its channel's controller; False when full."""
        return self.controllers[request.address.channel].enqueue(request, cycle)

    def add_slot_free_callback(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` on every channel controller."""
        for controller in self.controllers:
            controller.add_slot_free_callback(callback)

    # ------------------------------------------------------------------ #
    # Aggregate queries
    # ------------------------------------------------------------------ #
    def pending_requests(self) -> int:
        return sum(controller.pending_requests() for controller in self.controllers)

    def has_work(self) -> bool:
        return any(controller.has_work() for controller in self.controllers)

    @property
    def stats(self) -> ControllerStatistics:
        """Controller statistics summed across channels."""
        return sum_statistics(
            ControllerStatistics(), (ctl.stats for ctl in self.controllers)
        )

    def dram_statistics(self) -> DRAMStatistics:
        """DRAM command counts summed across channels."""
        return sum_statistics(
            DRAMStatistics(), (ctl.dram.stats for ctl in self.controllers)
        )

    def per_channel_summary(self) -> List[Dict[str, int]]:
        """Per-channel load breakdown (used by reports and the fabric tests)."""
        return [
            {
                "channel": index,
                "read_requests": controller.stats.read_requests,
                "write_requests": controller.stats.write_requests,
                "preventive_refreshes": controller.stats.preventive_refreshes,
                "acts": controller.dram.stats.acts,
                "refreshes": controller.dram.stats.refreshes,
            }
            for index, controller in enumerate(self.controllers)
        ]

    def __len__(self) -> int:
        return len(self.controllers)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ChannelFabric(channels={len(self.controllers)})"
