"""Sampled-fidelity execution: functional fast-forward + detailed windows.

Full-fidelity simulation evaluates every DRAM command on the event kernel.
That is the right default, but sweep campaigns over long benign workloads
spend almost all of their time in steady-state stretches whose *timing* is
predictable while their *state* (activation counters, sketch contents,
row-buffer state, refresh phase) still has to be tracked exactly — CoMeT's
security argument depends on counter state, not on cycle-exact scheduling.

:func:`run_sampled` exploits that split.  It drives one :class:`System`
through alternating phases:

* **Detailed windows** run on the unified
  :class:`~repro.sim.engine.EventKernel`, bit-exactly like a full run, with
  each core's :attr:`~repro.cpu.core.Core.window_limit` bounding how many
  trace entries it may replay before the window closes (outstanding reads
  drain, queues empty — the system reaches a drained point, and every
  component's state stays live in the one :class:`System` for the
  fast-forward phase that follows).
* **Fast-forward phases** advance the remaining trace entries *functionally*:
  every skipped access still updates the row-buffer state, per-row
  activation counters, DRAM/controller statistics and — crucially — fires
  the DRAM activation observers, so every mitigation (CoMeT sketches,
  Graphene tables, Hydra, BlockHammer CBFs) and every security verifier
  observes the complete, unsampled ACT stream.  Periodic refreshes are
  applied functionally at every tREFI crossing (advancing each rank's
  refresh pointer and firing the refresh observers), so refresh-window
  boundaries are never sampled away and threshold-crossing detection stays
  sound.  Only *cycle placement* is approximated: fast-forward time advances
  at the cycles-per-instruction rate *measured in the detailed windows so
  far* (the SMARTS-style calibration loop — every detailed window refines
  the estimate the next fast-forward phase extrapolates with), so the
  estimated clock tracks the true clock as closely as the windows are
  representative of the skipped stretches.

What is approximate, precisely:

* IPC / cycle counts (calibrated extrapolation instead of scheduling);
* disturbance *phase* relative to refresh boundaries (event counts are
  exact, their cycle stamps are estimates, so ``max_disturbance`` can
  differ within a tolerance from a full run);
* BlockHammer's throttling delays (counted, not timing-modelled) during
  fast-forward.

Mitigation outputs during fast-forward are intercepted per controller and
applied functionally: a preventive refresh refreshes its victim row in
place (activation observers + row-refresh notification + statistics), an
early rank refresh advances the refresh pointer immediately, and injected
mitigation traffic (Hydra counter accesses) warms the row-buffer state it
would have touched.  The interception is installed as instance attributes
for the duration of the phase and removed afterwards, so detailed windows
always run the pristine controller code.

Security audits should still use full fidelity (see EXPERIMENTS.md): the
verifier's event stream is complete under sampling, but violation *cycles*
are estimates.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.dram.address import DRAMAddress
from repro.experiment.spec import SampledConfig
from repro.sim.engine import EventKernel
from repro.sim.system import SimulationResult, System


# --------------------------------------------------------------------- #
# Functional state warming
# --------------------------------------------------------------------- #
def _warm_access(
    ctl, address: DRAMAddress, is_write: bool, cycle: int
) -> Tuple[int, int]:
    """Apply one column access functionally; returns ``(service, latency)``.

    Updates the bank's open-row state, activation counters and statistics
    exactly as the detailed command sequence (PRE? ACT? RD/WR) would, and
    fires the activation observers on a demand ACT.  ``service`` estimates
    the bank/bus occupancy of the access and ``latency`` the read round-trip,
    both in memory-controller cycles.
    """
    dram = ctl.dram
    bank = dram.bank_for(address)
    table, i = bank.table, bank.index
    timing = ctl.dram_config.timing
    row = address.row
    open_row = table.open_row[i]
    if open_row == row:
        ctl.stats.row_hits += 1
        service = timing.tBURST
        latency = timing.tCL + timing.tBURST
    else:
        service = timing.tRCD + timing.tBURST
        latency = timing.tRCD + timing.tCL + timing.tBURST
        if open_row is not None:
            # Conflict: the open row is precharged away first.
            table.open_row[i] = None
            dram.stats.pres += 1
            ctl.stats.row_conflicts += 1
            service += timing.tRP
            latency += timing.tRP
        ctl.stats.row_misses += 1
        table.open_row[i] = row
        table.col_accesses[i] = 0
        dram.stats.acts += 1
        # Observers receive the demand address as the ACT address.  Every
        # registered observer (mitigations, verifiers, controller stats)
        # keys on (channel, rank, bankgroup, bank, row) only, so skipping
        # the column=0 copy the detailed path materializes is free.
        dram.deliver_activation(cycle, address, False)
    table.col_accesses[i] += 1
    if is_write:
        dram.stats.writes += 1
    else:
        dram.stats.reads += 1
    return service, latency


def _functional_rank_refresh(ctl, rank_key: Tuple[int, int], cycle: int) -> None:
    """Apply one rank-level REF functionally (pointer, observers, stats).

    Unlike :meth:`~repro.dram.dram_system.Rank.apply_refresh` this never
    requires the banks to be closed and blocks nothing: fast-forward time is
    estimated anyway, so only the refresh *coverage* matters here.  The
    pointer, the statistics and the observers go through the same
    :meth:`~repro.dram.dram_system.Rank.advance_refresh_pointer` and
    :meth:`~repro.dram.dram_system.DRAMSystem.deliver_refresh` a real REF
    does.
    """
    dram = ctl.dram
    start_row, count = dram.ranks[rank_key].advance_refresh_pointer()
    dram.deliver_refresh(cycle, rank_key, start_row, count)


def _catch_up_refreshes(ctl, cycle: int) -> None:
    """Apply every periodic refresh that became due by ``cycle``.

    The refresh *cost* (tRFC stalls) is not charged here: the calibrated
    pace measured in the detailed windows already amortizes it, because
    windows cover cycles at a uniform rate and therefore contain periodic
    REFs at their true frequency.
    """
    if not ctl.dram_config.refresh_enabled:
        return
    tREFI = ctl.dram_config.tREFI
    for rank_key in ctl._rank_keys:
        due = ctl.next_refresh_due[rank_key]
        while due <= cycle:
            _functional_rank_refresh(ctl, rank_key, due)
            due += tREFI
        ctl.next_refresh_due[rank_key] = due


def _functional_preventive_refresh(ctl, address: DRAMAddress, cycle: int) -> None:
    """Refresh ``address``'s row in place (the ACT+PRE pair, functionally).

    Mirrors the detailed preventive path end to end: the victim-row ACT is
    counted and *observed* (mitigations track preventive ACTs too — skipping
    them would open the blind spot the detailed model deliberately avoids),
    the row-refresh notification clears the verifier's disturbance, and the
    pair completion statistics match the drained detailed sequence.
    """
    dram = ctl.dram
    ctl.stats.preventive_refreshes += 1
    dram.stats.acts += 1
    dram.stats.preventive_acts += 1
    dram.stats.pres += 1
    dram.stats.preventive_refresh_pairs += 1
    act_address = DRAMAddress(
        channel=address.channel,
        rank=address.rank,
        bankgroup=address.bankgroup,
        bank=address.bank,
        row=address.row,
        column=0,
    )
    dram.deliver_activation(cycle, act_address, True)
    dram.notify_row_refresh(cycle, act_address)


def _install_functional_hooks(ctl, clock: Dict[str, int]) -> Callable[[], None]:
    """Shadow the mitigation-facing controller entry points for one phase.

    Returns an undo callable removing the instance attributes, restoring the
    class methods for the next detailed window.
    """

    def schedule_preventive_refresh(address: DRAMAddress, cycle: int) -> None:
        _functional_preventive_refresh(ctl, address, max(int(cycle), clock["now"]))

    def schedule_rank_refresh(channel: int, rank: int, count: int) -> None:
        ctl.stats.early_refresh_operations += 1
        for _ in range(count):
            _functional_rank_refresh(ctl, (channel, rank), clock["now"])

    def enqueue_mitigation_request(
        address: DRAMAddress, is_write: bool, cycle: int
    ) -> bool:
        ctl.stats.mitigation_requests += 1
        _warm_access(ctl, address, is_write, max(int(cycle), clock["now"]))
        return True

    ctl.schedule_preventive_refresh = schedule_preventive_refresh
    ctl.schedule_rank_refresh = schedule_rank_refresh
    ctl.enqueue_mitigation_request = enqueue_mitigation_request

    def undo() -> None:
        del ctl.__dict__["schedule_preventive_refresh"]
        del ctl.__dict__["schedule_rank_refresh"]
        del ctl.__dict__["enqueue_mitigation_request"]

    return undo


# --------------------------------------------------------------------- #
# Phase drivers
# --------------------------------------------------------------------- #
def _run_detailed(kernel: EventKernel, cores, budget: int) -> None:
    """Replay up to ``budget`` further trace entries per core, bit-exactly."""
    progress = False
    for core in cores:
        if core.open_window(budget):
            progress = True
    if progress:
        kernel.run()


def _fast_forward(
    system: System, kernel: EventKernel, budget: int, pace: Dict[int, float]
) -> None:
    """Advance up to ``budget`` trace entries per core functionally.

    Entered only at a drained point (a detailed window just completed, so
    queues are empty and no reads are outstanding).  Cores advance in
    estimated-cycle order through one shared clock so the cross-channel
    event interleaving — and with it the refresh/activation ordering every
    observer sees — tracks the detailed schedule closely.

    ``pace`` maps each core index to its calibrated cycles-per-instruction,
    measured over every detailed window replayed so far.  Each entry's
    estimated dispatch advances by ``instructions * cpi``, which amortizes
    everything the detailed engine charges for real — bank and bus
    contention, refresh stalls, mitigation traffic — at the rate the
    windows actually observed it.
    """
    cores = system.cores
    fabric = system.fabric
    controllers = fabric.controllers
    mapper = fabric.mapper
    clock = {"now": int(kernel.now)}
    undos = [_install_functional_hooks(ctl, clock) for ctl in controllers]
    start = float(kernel.now)
    end = start

    #: Per-channel "first periodic REF due" watermark: the full catch-up
    #: walk only runs when the estimated clock actually crosses it.
    refresh_due = [
        min(ctl.next_refresh_due.values())
        if ctl.dram_config.refresh_enabled and ctl.next_refresh_due
        else math.inf
        for ctl in controllers
    ]

    try:
        remaining: Dict[int, int] = {}
        heads: List[Tuple[float, int]] = []
        for index, core in enumerate(cores):
            if core.trace_exhausted or budget <= 0:
                continue
            remaining[index] = budget
            heapq.heappush(heads, (max(start, core.front_cycle), index))
        while heads:
            dispatch, index = heapq.heappop(heads)
            core = cores[index]
            stats = core.stats
            cpi = pace[index]
            left = remaining[index]
            while True:
                entry = core.fast_forward_entry()
                need = entry.bubble_count + 1
                cycle = int(dispatch)
                clock["now"] = cycle

                is_write = entry.is_write
                address = mapper.decode(entry.address)
                channel = address.channel
                ctl = controllers[channel]
                if cycle >= refresh_due[channel]:
                    _catch_up_refreshes(ctl, cycle)
                    refresh_due[channel] = min(ctl.next_refresh_due.values())
                _, latency = _warm_access(ctl, address, is_write, cycle)
                if is_write:
                    stats.memory_writes += 1
                    ctl.stats.write_requests += 1
                else:
                    stats.memory_reads += 1
                    ctl.stats.read_requests += 1
                    completion = dispatch + latency
                    ctl.stats.total_read_latency += latency
                    ctl.stats.completed_reads += 1
                    ctl.stats.per_core_read_latency[core.core_id] += latency
                    ctl.stats.per_core_reads[core.core_id] += 1
                    core.record_read_completion(completion)

                dispatch += need * cpi
                left -= 1
                if left <= 0 or core.trace_exhausted:
                    break
                if heads and heads[0][0] < dispatch:
                    # Another core's next entry is earlier: yield to it and
                    # come back through the heap.
                    heapq.heappush(heads, (dispatch, index))
                    break
            core.resume_at(dispatch)
            remaining[index] = left
            if dispatch > end:
                end = dispatch

        end_cycle = int(math.ceil(end))
        clock["now"] = end_cycle
        for ctl in controllers:
            _catch_up_refreshes(ctl, end_cycle)
    finally:
        for undo in undos:
            undo()
    for ctl in controllers:
        # Invalidate every cached kernel decision: device state moved on.
        ctl.mutations += 1
        if end_cycle > ctl.current_cycle:
            ctl.current_cycle = end_cycle
    kernel.now = float(end_cycle)
    for core in cores:
        if core.front_cycle < end_cycle and not core.trace_exhausted:
            # Idle cores resume no earlier than the fast-forwarded clock.
            core.resume_at(float(end_cycle))


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def run_sampled(
    system: System, config: Optional[SampledConfig] = None
) -> SimulationResult:
    """Run ``system`` in sampled fidelity; returns a full SimulationResult.

    ``warmup`` trace entries per core are replayed in detail first; then,
    out of every ``interval`` entries, the first ``interval -
    detailed_window`` are fast-forwarded and the remaining
    ``detailed_window`` replayed in detail — so every fast-forward phase is
    followed by a detailed window that re-grounds the timing state before
    measurements continue.
    """
    config = config or SampledConfig()
    kernel = EventKernel(
        system.cores, system.fabric, max_steps=system.config.max_steps
    )
    cores = system.cores
    ff_budget = config.interval - config.detailed_window

    # Running calibration per core: (detailed cycles, instructions retired
    # in detail).  Every detailed window adds to it; every fast-forward
    # phase paces itself with the cumulative cycles-per-instruction.
    calibration = [[0.0, 0] for _ in cores]
    timing = system.fabric.controllers[0].dram_config.timing
    # Rough prior for the degenerate warmup=0 first phase, before any
    # window has been measured: one overlapped miss round-trip.
    prior_cpi = (timing.tRCD + timing.tCL + timing.tBURST) / 4.0

    def _calibrated_detailed(budget: int) -> None:
        before = kernel.now
        marks = [core.dispatched_instructions for core in cores]
        _run_detailed(kernel, cores, budget)
        elapsed = kernel.now - before
        for index, core in enumerate(cores):
            retired = core.dispatched_instructions - marks[index]
            if retired > 0:
                calibration[index][0] += elapsed
                calibration[index][1] += retired

    def _pace() -> Dict[int, float]:
        return {
            index: (cycles / retired) if retired else prior_cpi
            for index, (cycles, retired) in enumerate(calibration)
        }

    _calibrated_detailed(config.warmup)
    while not all(core.trace_exhausted for core in cores):
        _fast_forward(system, kernel, ff_budget, _pace())
        if all(core.trace_exhausted for core in cores):
            break
        _calibrated_detailed(config.detailed_window)
    for core in cores:
        core.window_limit = None

    system._steps = kernel.steps
    return system._build_result(math.ceil(kernel.now))


__all__ = ["run_sampled"]
