"""In-memory work queue: priority heap + lease table, thread-safe.

The local-run backend: no persistence (a killed process loses its queue,
though never its *results* — those live in the store), but exact conformance
semantics, so a campaign developed against ``memory`` behaves identically
on ``sqlite``.  It is the default queue of
:class:`~repro.campaign.runner.CampaignRunner` and
:meth:`~repro.experiment.session.Session.campaign`.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.campaign.queue import DEFAULT_LEASE, QueueCounts, WorkItem, WorkQueue


class MemoryQueue(WorkQueue):
    """Heap-ordered in-process queue (higher priority first, FIFO within)."""

    name = "memory"

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        super().__init__(clock)
        self._lock = threading.Lock()
        #: Live heap entries: ``(-priority, seq, key)``; lazily pruned
        #: against ``_pending`` (claimed items leave stale heap entries).
        self._heap: List[Tuple[int, int, str]] = []
        self._pending: Dict[str, WorkItem] = {}
        #: key -> (item, worker, lease deadline)
        self._claimed: Dict[str, Tuple[WorkItem, str, float]] = {}
        self._done: Dict[str, WorkItem] = {}
        self._seq = 0

    def put(self, items: Iterable[WorkItem]) -> int:
        added = 0
        with self._lock:
            for item in items:
                if (
                    item.key in self._pending
                    or item.key in self._claimed
                    or item.key in self._done
                ):
                    continue
                self._seq += 1
                item = item.with_seq(self._seq)
                self._pending[item.key] = item
                heapq.heappush(self._heap, (-item.priority, item.seq, item.key))
                added += 1
        return added

    def claim(self, worker: str, lease: float = DEFAULT_LEASE) -> Optional[WorkItem]:
        with self._lock:
            while self._heap:
                _, _, key = heapq.heappop(self._heap)
                item = self._pending.pop(key, None)
                if item is None:
                    continue  # stale entry for an already-claimed key
                self._claimed[key] = (item, worker, self._clock() + lease)
                return item
            return None

    def ack(self, key: str, worker: str) -> bool:
        with self._lock:
            entry = self._claimed.get(key)
            if entry is None or entry[1] != worker:
                return False
            item, _, _ = self._claimed.pop(key)
            self._done[key] = item
            return True

    def reclaim_expired(self) -> int:
        now = self._clock()
        moved = 0
        with self._lock:
            for key in [k for k, (_, _, d) in self._claimed.items() if d <= now]:
                item, _, _ = self._claimed.pop(key)
                self._pending[key] = item
                heapq.heappush(self._heap, (-item.priority, item.seq, key))
                moved += 1
        return moved

    def counts(self) -> QueueCounts:
        with self._lock:
            return QueueCounts(len(self._pending), len(self._claimed), len(self._done))
