"""Full-system simulation: cores + memory controller + DRAM + mitigation.

The simulation is event-driven: cores, the memory controller and the
mitigation register timestamped events on the min-heap kernel of
:mod:`repro.sim.engine`, and the system advances directly from event to
event, so no time is spent iterating over idle cycles or re-scanning idle
components.  This is what makes a pure-Python reproduction of a
cycle-accurate evaluation tractable (the repro-band note on simulation
speed).

A run produces a :class:`SimulationResult` carrying per-core IPC, memory
latency statistics, DRAM command counts, the energy breakdown, the
mitigation's statistics and the security verifier's verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.security import SecurityVerifier
from repro.controller.controller import ControllerConfig
from repro.controller.fabric import ChannelFabric
from repro.controller.policies import ControllerPolicySpec
from repro.cpu.core import Core, CoreConfig
from repro.cpu.trace import Trace
from repro.dram.config import DRAMConfig
from repro.energy.model import DRAMEnergyModel, EnergyBreakdown
from repro.mitigations.base import RowHammerMitigation
from repro.sim.engine import EventKernel


@dataclass
class SystemConfig:
    """Everything needed to build a system."""

    dram: DRAMConfig = field(default_factory=DRAMConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    #: Controller policy triple (scheduler / row policy / refresh policy);
    #: ``None`` selects the default (fr_fcfs, open_page, all_bank).
    policy: Optional[ControllerPolicySpec] = None
    core: CoreConfig = field(default_factory=CoreConfig)
    verify_security: bool = True
    #: RowHammer threshold used by the security verifier (the mitigation's own
    #: threshold is configured on the mitigation object).
    nrh_for_verification: Optional[int] = None
    max_steps: int = 200_000_000


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    name: str
    mitigation_name: str
    cycles: int
    per_core_ipc: List[float]
    per_core_instructions: List[int]
    average_read_latency: float
    read_requests: int
    write_requests: int
    dram_stats: Dict[str, int]
    energy: EnergyBreakdown
    preventive_refreshes: int
    early_refresh_operations: int
    mitigation_stats: Dict[str, float]
    security_ok: bool
    max_disturbance: int
    steps: int
    #: Total RowHammer-invariant violations across every channel's verifier
    #: (0 when verification was off or the run was secure).
    security_violations: int = 0
    #: Earliest cycle any verifier saw a violation (``None`` when secure).
    first_violation_cycle: Optional[int] = None

    @property
    def ipc(self) -> float:
        """Single-core IPC (first core), the metric of Figures 10 and 12."""
        return self.per_core_ipc[0] if self.per_core_ipc else 0.0

    @property
    def total_energy_nj(self) -> float:
        return self.energy.total_nj

    def summary(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "mitigation": self.mitigation_name,
            "cycles": self.cycles,
            "ipc": round(self.ipc, 5),
            "avg_read_latency": round(self.average_read_latency, 2),
            "preventive_refreshes": self.preventive_refreshes,
            "energy_nj": round(self.total_energy_nj, 1),
            "security_ok": self.security_ok,
        }


class System:
    """One simulated machine: N cores sharing a channel-partitioned fabric.

    ``mitigation`` is either a single :class:`RowHammerMitigation` instance
    (1-channel configurations) or one instance per channel; the fabric keeps
    each channel's mitigation state independent and this class reports their
    aggregate.
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        mitigation: Union[
            None, RowHammerMitigation, Sequence[RowHammerMitigation]
        ] = None,
        config: Optional[SystemConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        if not traces:
            raise ValueError("at least one trace is required")
        self.config = config or SystemConfig()
        self.name = name or traces[0].name
        self.fabric = ChannelFabric(
            self.config.dram,
            self.config.controller,
            mitigations=mitigation,
            policy=self.config.policy,
        )
        #: Aggregate mitigation view (None for the unprotected baseline).
        self.mitigation = self.fabric.mitigation
        #: One security verifier per channel, each observing that channel's
        #: DRAM ground truth (the RowHammer invariant is per-bank, and banks
        #: never span channels, so the per-channel verdicts compose exactly).
        self.verifiers: List[SecurityVerifier] = []
        if self.config.verify_security:
            nrh = self.config.nrh_for_verification
            if nrh is None and self.mitigation is not None:
                nrh = self.mitigation.nrh
            self.verifiers = [
                SecurityVerifier(controller.dram, nrh=nrh or 10**9)
                for controller in self.fabric.controllers
            ]
        self.cores: List[Core] = []
        for core_id, trace in enumerate(traces):
            self.cores.append(
                Core(
                    core_id=core_id,
                    trace=trace,
                    controller=self.fabric,
                    config=self.config.core,
                )
            )
        self._steps = 0

    @property
    def controller(self):
        """The memory subsystem as tests address it.

        A 1-channel system exposes its single
        :class:`~repro.controller.controller.MemoryController` directly
        (preserving the pre-fabric interface used throughout the test
        suite); multi-channel systems expose the fabric.
        """
        if len(self.fabric.controllers) == 1:
            return self.fabric.controllers[0]
        return self.fabric

    @property
    def verifier(self) -> Optional[SecurityVerifier]:
        """The first channel's verifier (the only one on 1-channel systems)."""
        return self.verifiers[0] if self.verifiers else None

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Run to completion (all traces replayed, all queues empty).

        The heavy lifting lives in :class:`repro.sim.engine.EventKernel`:
        cores and controllers schedule timestamped events on one min-heap,
        so each processed event costs O(log n) instead of a rescan of every
        component.  The kernel returns only once the run is done, so its
        final time is the run's final cycle.
        """
        kernel = EventKernel(
            self.cores, self.fabric, max_steps=self.config.max_steps
        )
        now = kernel.run()
        self._steps = kernel.steps
        return self._build_result(math.ceil(now))

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _build_result(self, final_cycle: int) -> SimulationResult:
        energy_model = DRAMEnergyModel(
            num_ranks=self.config.dram.organization.ranks_per_channel
            * self.config.dram.organization.channels
        )
        dram_stats = self.fabric.dram_statistics()
        controller_stats = self.fabric.stats
        # The refresh-energy calibration (28 nJ per REF) assumes the
        # *unadjusted* all-bank coverage; fine-granularity refresh policies
        # rewrite tREFI/rows_per_refresh on their adjusted copy, and passing
        # the pre-adjustment coverage here is what keeps total refresh
        # energy granularity-invariant.
        energy = energy_model.energy(
            dram_stats,
            final_cycle,
            rows_per_refresh=self.config.dram.rows_per_refresh,
        )
        mitigation_name = self.mitigation.name if self.mitigation is not None else "none"
        mitigation_stats: Dict[str, float] = {}
        preventive = 0
        early = 0
        if self.mitigation is not None:
            stats = self.mitigation.stats
            preventive = stats.preventive_refreshes
            early = stats.early_refresh_operations
            mitigation_stats = {
                "observed_activations": stats.observed_activations,
                "preventive_refreshes": stats.preventive_refreshes,
                "early_refresh_operations": stats.early_refresh_operations,
                "mitigation_memory_requests": stats.mitigation_memory_requests,
                "throttled_activations": stats.throttled_activations,
                "counter_resets": stats.counter_resets,
            }
            mitigation_stats.update(stats.extra)
        security_ok = all(verifier.is_secure for verifier in self.verifiers)
        max_disturbance = max(
            (verifier.max_disturbance for verifier in self.verifiers), default=0
        )
        security_violations = sum(
            verifier.violation_count for verifier in self.verifiers
        )
        violation_cycles = [
            verifier.first_violation_cycle
            for verifier in self.verifiers
            if verifier.first_violation_cycle is not None
        ]
        first_violation_cycle = min(violation_cycles) if violation_cycles else None

        return SimulationResult(
            name=self.name,
            mitigation_name=mitigation_name,
            cycles=final_cycle,
            per_core_ipc=[core.instructions_per_cycle() for core in self.cores],
            per_core_instructions=[core.stats.retired_instructions for core in self.cores],
            average_read_latency=controller_stats.average_read_latency,
            read_requests=controller_stats.read_requests,
            write_requests=controller_stats.write_requests,
            dram_stats=dram_stats.as_dict(),
            energy=energy,
            preventive_refreshes=preventive,
            early_refresh_operations=early,
            mitigation_stats=mitigation_stats,
            security_ok=security_ok,
            max_disturbance=max_disturbance,
            steps=self._steps,
            security_violations=security_violations,
            first_violation_cycle=first_violation_cycle,
        )
