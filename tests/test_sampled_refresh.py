"""Functional REFs in sampled fidelity are the same REFs as real ones.

The fast-forward applies periodic refreshes without issuing commands
(``repro.sim.sampled._functional_rank_refresh``).  It moves the rank's
refresh pointer through :meth:`Rank.advance_refresh_pointer` and reports the
REF through :meth:`DRAMSystem.deliver_refresh`, the two halves a real REF
(``DRAMSystem.apply``) uses, so both must report the same per-rank
``(start_row, count)`` sequence and the same statistics.
"""

from collections import defaultdict

from repro.controller.controller import MemoryController
from repro.dram.commands import Command, CommandKind
from repro.dram.config import small_test_config
from repro.experiment.execute import build_workload_traces
from repro.experiment.spec import SampledConfig, WorkloadSpec
from repro.sim import sampled
from repro.sim.sampled import run_sampled
from repro.sim.system import System, SystemConfig

DRAM = small_test_config(ranks_per_channel=2)


def _recorder(dram):
    events = defaultdict(list)

    def observe(cycle, rank_key, start_row, count):
        events[rank_key].append((start_row, count))

    dram.add_refresh_observer(observe)
    return events


def _expected(refs: int):
    """The pointer sequence of ``refs`` consecutive REFs to one rank."""
    rows_per_refresh = DRAM.rows_per_refresh
    rows = DRAM.organization.rows_per_bank
    return [((k * rows_per_refresh) % rows, rows_per_refresh) for k in range(refs)]


def test_functional_refs_match_real_refs():
    real = MemoryController(DRAM)
    functional = MemoryController(DRAM)
    real_events = _recorder(real.dram)
    functional_events = _recorder(functional.dram)
    # Two wraps of the pointer on every rank, ranks interleaved.
    refs = 2 * DRAM.organization.rows_per_bank // DRAM.rows_per_refresh + 3
    cycle = 0
    for _ in range(refs):
        for channel, rank in real._rank_keys:
            real.dram.apply(Command(CommandKind.REF, channel, rank), cycle)
            sampled._functional_rank_refresh(functional, (channel, rank), cycle)
        cycle += DRAM.timing.tRFC
    assert dict(functional_events) == dict(real_events)
    for rank_key in real._rank_keys:
        assert real_events[rank_key] == _expected(refs)
        assert (
            functional.dram.ranks[rank_key].refresh_row_pointer
            == real.dram.ranks[rank_key].refresh_row_pointer
        )
    assert functional.dram.stats.refreshes == real.dram.stats.refreshes
    assert functional.dram.stats.refresh_rows == real.dram.stats.refresh_rows


def test_sampled_run_keeps_one_pointer_sequence(monkeypatch):
    """A sampled run mixes real REFs (detailed windows) with functional ones
    (fast-forward); per rank they continue one pointer sequence, and the
    statistics count every one of them."""
    functional_refs = []
    functional = sampled._functional_rank_refresh

    def counted(ctl, rank_key, cycle):
        functional_refs.append(rank_key)
        functional(ctl, rank_key, cycle)

    monkeypatch.setattr(sampled, "_functional_rank_refresh", counted)
    traces = build_workload_traces(
        WorkloadSpec(name="synth_uniform", num_requests=12000), DRAM
    )
    system = System(traces, config=SystemConfig(dram=DRAM, verify_security=False))
    dram = system.fabric.controllers[0].dram
    events = _recorder(dram)
    real_refs = []
    dram.add_command_observer(
        lambda cycle, command: real_refs.append(command)
        if command.kind is CommandKind.REF
        else None
    )
    run_sampled(system, SampledConfig(interval=1000, detailed_window=200, warmup=200))

    assert functional_refs and real_refs
    # Long enough for every rank's pointer to wrap.
    wrap = DRAM.organization.rows_per_bank // DRAM.rows_per_refresh
    assert min(len(sequence) for sequence in events.values()) > wrap
    total = 0
    for rank_key, sequence in events.items():
        assert sequence == _expected(len(sequence))
        total += len(sequence)
    assert total == len(functional_refs) + len(real_refs)
    assert dram.stats.refreshes == total
    assert dram.stats.refresh_rows == total * DRAM.rows_per_refresh
