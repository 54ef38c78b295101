"""The campaign work-queue interface.

A campaign is drained through a :class:`WorkQueue`: the runner ``put``\\ s
one :class:`WorkItem` per missing grid cell, any number of workers ``claim``
items under a lease and ``ack`` them once the result is safely in the
:class:`~repro.campaign.store.ResultStore`.  A worker that dies mid-cell
simply lets its lease expire; ``reclaim_expired`` returns the item to the
pending set and another worker re-executes it (results are deterministic,
so re-execution is always safe — at-least-once delivery is the contract,
exactly-once *storage* comes from the store's content addressing).

Two backends implement it: ``memory`` (in-process) and ``sqlite``
(persistent, shared by every runner process pointed at one file).
:class:`~repro.campaign.runner.CampaignRunner` maps those names to
instances.  One shared conformance suite (``tests/test_campaign_queue.py``)
pins both to the same semantics — the frontera pattern.

Ordering contract (shared by every backend):

* higher ``priority`` first;
* FIFO within a priority class (enqueue order, tracked by a per-queue
  monotonic sequence number);
* ``put`` deduplicates by ``key`` against pending, claimed *and* done
  items, so re-enqueueing a half-finished campaign is idempotent.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Optional

#: Default lease duration (seconds) a claimed item is protected for.
DEFAULT_LEASE = 60.0


@dataclass(frozen=True)
class WorkItem:
    """One unit of campaign work: a spec hash plus its canonical payload.

    ``key`` is the cell's canonical spec hash (unique per experiment),
    ``payload`` the canonical spec JSON a worker re-materializes the
    :class:`~repro.experiment.spec.ExperimentSpec` from.  ``seq`` is
    assigned by the queue at ``put`` time and orders items within a
    priority class; callers leave it at the default.
    """

    key: str
    payload: str
    priority: int = 0
    seq: int = -1

    def with_seq(self, seq: int) -> "WorkItem":
        return replace(self, seq=seq)


class QueueCounts(NamedTuple):
    """Point-in-time population of a queue, by item state."""

    pending: int
    claimed: int
    done: int

    @property
    def outstanding(self) -> int:
        """Items not yet acked (the campaign is finished when this is 0)."""
        return self.pending + self.claimed


class WorkQueue(abc.ABC):
    """Abstract claim/ack work queue with lease-based crash recovery.

    Subclasses set ``name`` (recorded as the ``"backend"`` of a campaign
    checkpoint) and implement the five primitives.  ``clock`` is
    injectable so lease expiry is testable without sleeping.
    """

    #: Backend name (``"memory"`` or ``"sqlite"``); set by subclasses.
    name: str = ""

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock

    # ------------------------------------------------------------------ #
    # Primitives every backend implements
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def put(self, items: Iterable[WorkItem]) -> int:
        """Enqueue items, deduplicating by key; returns how many were new."""

    @abc.abstractmethod
    def claim(
        self, worker: str, lease: float = DEFAULT_LEASE
    ) -> Optional[WorkItem]:
        """Atomically claim the best pending item for ``worker`` (or None).

        The claim is protected until ``clock() + lease``; the worker must
        ``ack`` (or the lease expire) before the item moves again.  No two
        concurrent claimers ever receive the same item.
        """

    @abc.abstractmethod
    def ack(self, key: str, worker: str) -> bool:
        """Mark a claimed item done.  Only the current lease holder may ack;
        returns False (and changes nothing) for stale workers whose lease
        was reclaimed and re-issued."""

    @abc.abstractmethod
    def reclaim_expired(self) -> int:
        """Return expired-lease items to pending; returns how many moved."""

    @abc.abstractmethod
    def counts(self) -> QueueCounts:
        """Current pending/claimed/done populations."""

    def close(self) -> None:
        """Release this process's handles on the queue (a no-op by default).

        The queue stays usable: a later operation reopens what it needs.
        """


__all__ = [
    "DEFAULT_LEASE",
    "QueueCounts",
    "WorkItem",
    "WorkQueue",
]
