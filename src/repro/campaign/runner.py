"""The campaign runner: grid -> queue -> workers -> store, resumably.

:class:`CampaignRunner` turns a declarative
:class:`~repro.experiment.spec.CampaignSpec` into work-queue items (one per
grid cell *not already in the store*), drives them through worker processes
and lands every result in the :class:`~repro.campaign.store.ResultStore`.

Crash recovery is layered, and none of it is special-cased:

* a completed cell is a record in the store — ``enqueue()`` skips it
  forever after (that store lookup is the "hit" the resume tests assert);
* an *in-flight* cell belongs to a lease; if the worker dies, the lease
  expires and ``reclaim_expired`` re-issues the cell;
* the campaign's declarative state is checkpointed into the store
  (``campaigns/<id>.json``) at enqueue time, so ``repro campaign status``
  can report progress with nothing but the store directory.

Because execution is deterministic and record bytes carry no timestamps or
worker identity, a campaign finished by one worker is bit-identical to the
same campaign finished by four — or killed halfway and resumed.
"""

from __future__ import annotations

import os
import socket
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.campaign.backends import MemoryQueue, SqliteQueue
from repro.campaign.queue import DEFAULT_LEASE, WorkItem, WorkQueue
from repro.campaign.store import ResultStore
from repro.experiment.codec import SpecCodecError
from repro.experiment.spec import CampaignSpec, ExperimentSpec
from repro.sim.pool import shared_pool
from repro.sim.system import SimulationResult

#: Campaign checkpoint schema version.
CAMPAIGN_STATE_VERSION = 1


def _execute_payload(payload: str) -> SimulationResult:
    """Worker entry point: canonical spec JSON in, result out."""
    from repro.experiment.execute import execute_spec

    return execute_spec(ExperimentSpec.from_json(payload))


@dataclass(frozen=True)
class CampaignStatus:
    """Progress snapshot: grid totals from the store, liveness from the queue."""

    campaign_id: str
    name: str
    total: int
    completed: int
    pending: int
    claimed: int
    #: Cells actually simulated by the reporting ``run()`` call (0 from
    #: :meth:`CampaignRunner.status`).
    executed: int = 0

    @property
    def remaining(self) -> int:
        return self.total - self.completed

    @property
    def finished(self) -> bool:
        return self.completed >= self.total

    def as_row(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign_id[:12],
            "name": self.name,
            "completed": f"{self.completed}/{self.total}",
            "pending": self.pending,
            "claimed": self.claimed,
            "executed": self.executed,
        }


class CampaignRunner:
    """Expand, enqueue and drain one campaign against a store and a queue.

    Parameters
    ----------
    campaign:
        The declarative grid (+ priority + budget) to run.
    store:
        A :class:`ResultStore` or a path to create one at.
    queue:
        A :class:`WorkQueue` instance, or a backend name: ``"memory"``
        (in-process) or ``"sqlite"``.  A named ``sqlite`` queue lives at
        ``queue_path``, by default ``<store>/queue.sqlite``, so one
        ``--store`` flag is a complete campaign address.
    max_workers:
        Worker processes; ``0``/``1`` executes inline, ``None`` uses
        ``os.cpu_count()``.
    lease:
        Seconds a claim is protected before an idle runner may reclaim it.
    budget:
        Overrides the campaign's own ``budget`` (max cells executed by one
        ``run()`` call) when not ``None``.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        store: Union[ResultStore, str, Path],
        queue: Union[WorkQueue, str] = "memory",
        queue_path: Optional[Union[str, Path]] = None,
        max_workers: Optional[int] = None,
        lease: float = DEFAULT_LEASE,
        budget: Optional[int] = None,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.05,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.campaign = campaign
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        #: A queue built here from a backend name is closed by ``run``; a
        #: queue instance passed in belongs to the caller.
        self._owns_queue = not isinstance(queue, WorkQueue)
        self.queue = (
            self._make_queue(queue, queue_path, clock) if self._owns_queue else queue
        )
        self.max_workers = (
            (os.cpu_count() or 1) if max_workers is None else max_workers
        )
        self.lease = lease
        self.budget = budget if budget is not None else campaign.budget
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_interval = poll_interval
        self.campaign_id = campaign.campaign_id()
        #: The expanded grid, ``(spec, priority)`` per cell: expansion (an
        #: audit grid synthesizes its patterns) runs once per runner.
        self.cells = campaign.cells()

    def _make_queue(
        self,
        name: str,
        queue_path: Optional[Union[str, Path]],
        clock: Callable[[], float],
    ) -> WorkQueue:
        if name == "memory":
            return MemoryQueue(clock=clock)
        if name == "sqlite":
            path = queue_path or self.store.root / "queue.sqlite"
            return SqliteQueue(path, clock=clock)
        raise ValueError(
            f"unknown queue backend {name!r}; expected 'memory' or 'sqlite'"
        )

    # ------------------------------------------------------------------ #
    # Enqueue / checkpoint
    # ------------------------------------------------------------------ #
    def enqueue(self) -> Dict[str, int]:
        """Queue every cell missing from the store; checkpoint the campaign.

        Completed cells are detected with a counted store lookup
        (``store.hits`` grows per skip) and never re-enter the queue — the
        zero-recomputation resume guarantee lives here.  ``put`` further
        dedupes against items already pending/claimed from an interrupted
        run, so calling ``enqueue`` repeatedly is idempotent.
        """
        items = []
        complete = 0
        for spec, priority in self.cells:
            spec_hash = spec.content_hash()
            if self.store.get_record(spec_hash) is not None:
                complete += 1
                continue
            items.append(
                WorkItem(
                    key=spec_hash, payload=spec.canonical_json(), priority=priority
                )
            )
        enqueued = self.queue.put(items)
        self.store.save_campaign(self.campaign_id, self._state())
        return {
            "total": complete + len(items),
            "complete": complete,
            "enqueued": enqueued,
            "already_queued": len(items) - enqueued,
        }

    def _state(self) -> Dict[str, Any]:
        return {
            "state_version": CAMPAIGN_STATE_VERSION,
            "campaign_id": self.campaign_id,
            "campaign": self.campaign.to_dict(),
            "backend": self.queue.name,
            "total": len(self.cells),
        }

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> CampaignStatus:
        """Drain the campaign (within budget) and return the final status.

        The loop claims up to ``max_workers`` cells at a time, executes
        them (in-process or in a pool), stores each result and acks its
        claim.  When nothing is claimable but claims are outstanding —
        a previous runner died holding leases — it waits for expiry and
        reclaims.  Returns when the queue is drained or the budget is
        exhausted (in-flight cells always run to completion).  A queue the
        runner built from a backend name is closed on the way out.
        """
        #: Kept for introspection: how enqueue split the grid this run.
        self.last_enqueue = self.enqueue()
        budget = self.budget
        executed = 0
        inflight: Dict[Future, Tuple[WorkItem, ExperimentSpec]] = {}
        # The shared warm pool (see repro.sim.pool) is reused across runs
        # and runners: workers stay hot, with the registry pre-imported, so
        # short cells stop paying spawn + import per campaign.
        pool = shared_pool(self.max_workers) if self.max_workers > 1 else None
        try:
            while True:
                may_start = budget is None or executed + len(inflight) < budget
                has_slot = pool is None or len(inflight) < self.max_workers
                item = (
                    self.queue.claim(self.worker_id, self.lease)
                    if may_start and has_slot
                    else None
                )
                if item is not None:
                    spec = ExperimentSpec.from_json(item.payload)
                    if pool is None:
                        self._complete(item, spec, _execute_payload(item.payload))
                        executed += 1
                    else:
                        inflight[pool.submit(_execute_payload, item.payload)] = (
                            item,
                            spec,
                        )
                    continue
                if inflight:
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in done:
                        done_item, spec = inflight.pop(future)
                        self._complete(done_item, spec, future.result())
                        executed += 1
                    continue
                if budget is not None and executed >= budget:
                    break
                counts = self.queue.counts()
                if counts.outstanding == 0:
                    break
                if counts.pending == 0 and self.queue.reclaim_expired() == 0:
                    # Claims held by a dead (or foreign) worker: wait for
                    # their leases to run out, then steal the work back.
                    time.sleep(self.poll_interval)
            return self.status(executed=executed)
        finally:
            if inflight:
                # Abandoning mid-run (an exception): let the claimed cells
                # finish in the warm pool — their leases expire and another
                # runner re-executes them — but never kill the shared pool;
                # it stays hot for the next campaign (atexit owns it).
                for future in inflight:
                    future.cancel()
            if self._owns_queue:
                self.queue.close()

    def _complete(
        self, item: WorkItem, spec: ExperimentSpec, result: SimulationResult
    ) -> None:
        # Store first, ack second: a crash between the two re-executes the
        # cell (wasted work, same bytes) — the reverse order could ack a
        # cell whose result was never persisted.
        self.store.put_result(
            spec,
            result,
            provenance={
                "campaign": self.campaign_id,
                "campaign_name": self.campaign.name,
            },
        )
        self.queue.ack(item.key, self.worker_id)

    # ------------------------------------------------------------------ #
    # Status
    # ------------------------------------------------------------------ #
    def status(self, executed: int = 0) -> CampaignStatus:
        counts = self.queue.counts()
        completed = sum(1 for spec, _ in self.cells if self.store.contains(spec))
        return CampaignStatus(
            campaign_id=self.campaign_id,
            name=self.campaign.name,
            total=len(self.cells),
            completed=completed,
            pending=counts.pending,
            claimed=counts.claimed,
            executed=executed,
        )


def status_from_state(
    store: ResultStore, state: Dict[str, Any]
) -> CampaignStatus:
    """Progress of a checkpointed campaign, from the store alone.

    Rebuilds the :class:`CampaignSpec` from a ``campaigns/<id>.json``
    checkpoint and counts completed cells against the record files — no
    queue needed, so this works on a store whose runner is long gone.  A
    checkpoint without a decodable ``campaign`` object raises
    :class:`~repro.experiment.codec.SpecCodecError`.
    """
    if "campaign" not in state:
        raise SpecCodecError(
            "campaign checkpoint is missing the required key 'campaign'"
        )
    campaign = CampaignSpec.from_dict(state["campaign"])
    cells = campaign.cells()
    completed = sum(1 for spec, _ in cells if store.contains(spec))
    return CampaignStatus(
        campaign_id=state.get("campaign_id", campaign.campaign_id()),
        name=campaign.name,
        total=len(cells),
        completed=completed,
        pending=0,
        claimed=0,
    )


__all__ = [
    "CAMPAIGN_STATE_VERSION",
    "CampaignRunner",
    "CampaignStatus",
    "status_from_state",
]
