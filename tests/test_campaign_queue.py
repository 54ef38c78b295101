"""Backend-conformance suite for the campaign work queues.

One shared test class defines the queue contract — FIFO order, priority
order, claim/ack, lease-based reclaim, dedup-by-key, no double issue under
concurrent claimers — and both backends (``memory`` and ``sqlite``)
subclass it (the frontera pattern: interchangeable implementations proven
interchangeable by running identical tests against each).
"""

import threading

import pytest

from repro.campaign import MemoryQueue, SqliteQueue, WorkItem, WorkQueue


class FakeClock:
    """Injectable time source so lease expiry needs no sleeping."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_items(n, priority=0, prefix="cell"):
    return [
        WorkItem(key=f"{prefix}-{i:03d}", payload=f"payload-{i}", priority=priority)
        for i in range(n)
    ]


class QueueContract:
    """The behavior every backend must exhibit; subclasses pick the backend."""

    def make_queue(self, tmp_path, clock) -> WorkQueue:
        raise NotImplementedError

    @pytest.fixture
    def clock(self):
        return FakeClock()

    @pytest.fixture
    def queue(self, tmp_path, clock):
        return self.make_queue(tmp_path, clock)

    # ------------------------------------------------------------------ #
    # Ordering
    # ------------------------------------------------------------------ #
    def test_fifo_within_priority_class(self, queue):
        items = make_items(5)
        assert queue.put(items) == 5
        claimed = [queue.claim("w0").key for _ in range(5)]
        assert claimed == [item.key for item in items]
        assert queue.claim("w0") is None

    def test_higher_priority_drains_first(self, queue):
        queue.put(make_items(2, priority=0, prefix="low"))
        queue.put(make_items(2, priority=5, prefix="high"))
        queue.put(make_items(1, priority=2, prefix="mid"))
        order = [queue.claim("w0").key for _ in range(5)]
        assert order == ["high-000", "high-001", "mid-000", "low-000", "low-001"]

    # ------------------------------------------------------------------ #
    # Dedup
    # ------------------------------------------------------------------ #
    def test_put_dedupes_by_key_across_states(self, queue):
        items = make_items(3)
        assert queue.put(items) == 3
        # Re-putting pending items adds nothing.
        assert queue.put(items) == 0
        claimed = queue.claim("w0", lease=60.0)
        # ... nor claimed items ...
        assert queue.put([claimed]) == 0
        assert queue.ack(claimed.key, "w0")
        # ... nor done items (the resume-idempotence guarantee).
        assert queue.put(items) == 0
        assert queue.counts().outstanding == 2

    # ------------------------------------------------------------------ #
    # Claim / ack lifecycle
    # ------------------------------------------------------------------ #
    def test_claim_ack_lifecycle_counts(self, queue):
        queue.put(make_items(2))
        assert queue.counts() == (2, 0, 0)
        item = queue.claim("w0")
        assert queue.counts() == (1, 1, 0)
        assert queue.ack(item.key, "w0") is True
        assert queue.counts() == (1, 0, 1)
        # Acking twice (or acking an unclaimed key) changes nothing.
        assert queue.ack(item.key, "w0") is False
        assert queue.ack("no-such-key", "w0") is False
        assert queue.counts() == (1, 0, 1)

    def test_claim_empty_returns_none(self, queue):
        assert queue.claim("w0") is None

    def test_ack_requires_lease_holder(self, queue):
        queue.put(make_items(1))
        item = queue.claim("w0")
        assert queue.ack(item.key, "imposter") is False
        assert queue.counts().claimed == 1
        assert queue.ack(item.key, "w0") is True

    # ------------------------------------------------------------------ #
    # Lease expiry / reclaim
    # ------------------------------------------------------------------ #
    def test_reclaim_on_lease_expiry(self, queue, clock):
        queue.put(make_items(1))
        item = queue.claim("dead-worker", lease=30.0)
        # Lease still live: nothing to reclaim, nothing claimable.
        assert queue.reclaim_expired() == 0
        assert queue.claim("w1") is None
        clock.advance(31.0)
        assert queue.reclaim_expired() == 1
        assert queue.counts() == (1, 0, 0)
        reissued = queue.claim("w1", lease=30.0)
        assert reissued is not None and reissued.key == item.key
        # The dead worker's lease is gone: its ack must be refused, the
        # new holder's accepted (at-least-once delivery, single ack).
        assert queue.ack(item.key, "dead-worker") is False
        assert queue.ack(item.key, "w1") is True

    def test_reclaimed_item_keeps_queue_position(self, queue, clock):
        queue.put(make_items(2, priority=3, prefix="high"))
        queue.put(make_items(1, priority=0, prefix="low"))
        first = queue.claim("dead", lease=10.0)
        assert first.key == "high-000"
        clock.advance(11.0)
        assert queue.reclaim_expired() == 1
        # The reclaimed high-priority item still outranks the low one.
        order = [queue.claim("w1").key for _ in range(3)]
        assert order == ["high-000", "high-001", "low-000"]

    # ------------------------------------------------------------------ #
    # Concurrency
    # ------------------------------------------------------------------ #
    def test_concurrent_claimers_never_double_issue(self, queue):
        total = 24
        queue.put(make_items(total))
        issued = []
        issued_lock = threading.Lock()

        def claimer(worker):
            while True:
                item = queue.claim(worker, lease=300.0)
                if item is None:
                    return
                with issued_lock:
                    issued.append(item.key)
                queue.ack(item.key, worker)

        threads = [
            threading.Thread(target=claimer, args=(f"w{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(issued) == total
        assert len(set(issued)) == total, "an item was issued to two workers"
        assert queue.counts() == (0, 0, total)


class TestMemoryQueue(QueueContract):
    def make_queue(self, tmp_path, clock):
        return MemoryQueue(clock=clock)


class PersistentQueueContract(QueueContract):
    """Extra contract for the persistent backend: state survives reopen."""

    def test_pending_items_survive_reopen(self, tmp_path, clock):
        queue = self.make_queue(tmp_path, clock)
        queue.put(make_items(3))
        item = queue.claim("w0")
        queue.ack(item.key, "w0")

        reopened = self.make_queue(tmp_path, clock)
        assert reopened.counts() == (2, 0, 1)
        # Order is preserved across the reopen, and dedup still sees done.
        assert reopened.put(make_items(3)) == 0
        assert reopened.claim("w1").key == "cell-001"

    def test_claims_survive_reopen_until_lease_expires(self, tmp_path, clock):
        queue = self.make_queue(tmp_path, clock)
        queue.put(make_items(1))
        queue.claim("crashed-worker", lease=30.0)

        reopened = self.make_queue(tmp_path, clock)
        assert reopened.counts().claimed == 1
        assert reopened.claim("w1") is None
        clock.advance(31.0)
        assert reopened.reclaim_expired() == 1
        assert reopened.claim("w1").key == "cell-000"


class TestSqliteQueue(PersistentQueueContract):
    def make_queue(self, tmp_path, clock):
        return SqliteQueue(tmp_path / "queue.sqlite", clock=clock)
