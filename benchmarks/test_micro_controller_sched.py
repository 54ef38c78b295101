"""Micro-benchmark: incremental vs. full-rescan ready-queue selection.

Before the policy refactor, every command selection re-bucketed the
*entire* read+write queue contents by bank and re-sorted each bank's
requests by arrival — O(queue + banks·k·log k) per selection, and
selection runs about once per issued command.  The
policy-driven controller instead maintains an incremental per-bank index
(one :class:`repro.controller.controller._BankQueues` record per bank,
holding its read and write :class:`~repro.controller.controller._BankPending`
lists, updated on enqueue and retire; the select walks the records of the
banks with pending demand) and the FR-FCFS policy stops scanning a bank the
moment its answer is determined, so a selection on a deep queue touches
only bank heads.

This harness pits the shipped select (``MemoryController.next_decision``,
the one select every run executes) against a faithful inline replica of
the pre-refactor algorithm (`_legacy_demand_command`, the old
rebucket-and-sort demand selection) on identical controller
state, across queue depths.  Refresh is disabled, so every selection is a
demand decision like the replica's.  Shallow queues must not regress badly; the
deep multi-core-style queues the attack/figure workloads produce must win.
Results land in ``benchmarks/results/BENCH_controller.json`` — the artifact
the CI micro-benchmark job uploads, so the perf trajectory of the hot path
is recorded per commit.
"""

import json
import timeit
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from _bench_utils import RESULTS_DIR
from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest, RequestType
from repro.dram.commands import Command, CommandKind
from repro.dram.config import small_test_config

ARTIFACT = RESULTS_DIR / "BENCH_controller.json"

#: (label, reads, writes) — queue populations per scenario.  ``deep_64r`` is
#: the dominant simulator mode (full multi-core read queue, writes buffered
#: below the drain watermark); ``drain_64r_48w`` adds a write queue at its
#: drain high watermark, so both classes compete.
SCENARIOS = [
    ("shallow_4r", 4, 0),
    ("medium_16r", 16, 0),
    ("deep_64r", 64, 0),
    ("drain_64r_48w", 64, 48),
]


def _populated_controller(num_reads: int, num_writes: int) -> MemoryController:
    """A controller with a deterministic mixed hit/conflict queue load."""
    dram_config = replace(
        small_test_config(
            rows_per_bank=1024,
            banks_per_bankgroup=2,
            bankgroups_per_rank=2,
            ranks_per_channel=2,
            refresh_window_scale=1.0 / 1024.0,
        ),
        refresh_enabled=False,
    )
    controller = MemoryController(dram_config)
    num_banks = dram_config.organization.total_banks

    def request(index: int, write: bool) -> MemoryRequest:
        bank_index = index % num_banks
        # Alternate a per-bank hot row with conflicting cold rows, the
        # FR-FCFS worst case (hit scan plus conflict detection per bank).
        row = 7 if index % 3 else 11 + index % 5
        address = controller.mapper.decode(
            controller.mapper.address_for_row(
                row, bank_index=bank_index, column=8 * (index % 16)
            )
        )
        return MemoryRequest(
            request_type=RequestType.WRITE if write else RequestType.READ,
            address=address,
            core_id=index % 8,
        )

    for index in range(num_reads):
        controller.enqueue(request(index, write=False), index)
    for index in range(num_writes):
        controller.enqueue(request(num_reads + index, write=True), num_reads + index)
    # Open one hot row so the scan sees a mix of open and closed banks.
    controller.issue_next(0)
    return controller


# --------------------------------------------------------------------------- #
# The pre-refactor algorithm, verbatim (rebucket + sort per call)
# --------------------------------------------------------------------------- #
def _legacy_bank_pick(
    controller: MemoryController,
    bank_key: Tuple[int, int, int, int],
    requests: List[MemoryRequest],
    cycle: int,
) -> Optional[Tuple[int, Command, MemoryRequest]]:
    channel, rank_id, bankgroup, bank_id = bank_key
    bank = controller.dram.bank(channel, rank_id, bankgroup, bank_id)
    requests = sorted(requests, key=lambda r: (r.arrival_cycle, r.request_id))

    if bank.is_closed():
        request = requests[0]
        command = Command(
            CommandKind.ACT,
            channel=channel,
            rank=rank_id,
            bankgroup=bankgroup,
            bank=bank_id,
            row=request.address.row,
        )
        return controller.dram.earliest_issue_cycle(command, cycle), command, request

    open_row = bank.open_row
    row_hits = [r for r in requests if r.address.row == open_row]
    cap_reached = bank.open_row_column_accesses >= controller.config.column_cap
    has_conflict = any(r.address.row != open_row for r in requests)

    if row_hits and not (cap_reached and has_conflict):
        request = row_hits[0]
        kind = CommandKind.WR if request.is_write else CommandKind.RD
        command = Command(
            kind,
            channel=channel,
            rank=rank_id,
            bankgroup=bankgroup,
            bank=bank_id,
            column=request.address.column,
        )
        return controller.dram.earliest_issue_cycle(command, cycle), command, request

    conflicting = [r for r in requests if r.address.row != open_row]
    if not conflicting:
        return None
    request = conflicting[0]
    command = Command(
        CommandKind.PRE, channel=channel, rank=rank_id, bankgroup=bankgroup, bank=bank_id
    )
    return controller.dram.earliest_issue_cycle(command, cycle), command, request


def _legacy_demand_command(controller: MemoryController, cycle: int):
    controller._update_drain_mode()
    queues: List[List[MemoryRequest]] = []
    if controller.read_queue:
        queues.append(controller.read_queue)
    if controller.write_queue and (
        controller._draining_writes or not controller.read_queue
    ):
        queues.append(controller.write_queue)
    if not queues:
        return None

    by_bank: Dict[Tuple[int, int, int, int], List[MemoryRequest]] = {}
    for queue in queues:
        for request in queue:
            by_bank.setdefault(request.address.bank_key, []).append(request)

    best = None
    for bank_key, requests in by_bank.items():
        candidate = _legacy_bank_pick(controller, bank_key, requests, cycle)
        if candidate is None:
            continue
        issue_cycle, command, request = candidate
        order = (issue_cycle, request.arrival_cycle)
        if best is None or order < (best[0], best[1]):
            best = (issue_cycle, request.arrival_cycle, command, request)
    if best is None:
        return None
    return best[0], best[2], best[3]


def _measure(fn, rounds: int = 400) -> float:
    return min(timeit.repeat(fn, number=rounds, repeat=5))


def test_micro_ready_queue_selection(benchmark):
    artifact = {"rounds": 400, "scenarios": {}}
    for label, num_reads, num_writes in SCENARIOS:
        controller = _populated_controller(num_reads, num_writes)
        cycle = controller.current_cycle + 1
        # Same state, same answer: the refactor must agree with the legacy
        # algorithm before its timing means anything.
        new, _ = controller.next_decision(cycle)
        old = _legacy_demand_command(controller, cycle)
        assert (new[0], new[1], new[2]) == (old[0], old[1], old[2])

        incremental_s = _measure(lambda: controller.next_decision(cycle))
        legacy_s = _measure(lambda: _legacy_demand_command(controller, cycle))
        speedup = legacy_s / incremental_s
        artifact["scenarios"][label] = {
            "queue_depth": num_reads + num_writes,
            "legacy_seconds": legacy_s,
            "incremental_seconds": incremental_s,
            "speedup_x": speedup,
        }

    benchmark(_populated_controller(64, 0).next_decision, 1)

    # JSON is the single artifact now (the old bench_controller.txt twin was
    # dropped): one machine-readable file per harness, uploaded by CI.
    RESULTS_DIR.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")

    speedups = {
        label: scenario["speedup_x"]
        for label, scenario in artifact["scenarios"].items()
    }
    # Deep queues are the point of the refactor (~1.6x / ~1.9x measured on
    # an idle machine): the incremental index must win clearly there.  The
    # shallow/medium gates only guard against a real regression — they get
    # generous noise margins so a loaded CI runner cannot flake the job.
    assert speedups["deep_64r"] > 1.25
    assert speedups["drain_64r_48w"] > 1.2
    assert speedups["medium_16r"] > 0.8
    assert speedups["shallow_4r"] > 0.5
