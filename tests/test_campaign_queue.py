"""Backend-conformance suite for the campaign work queues.

One shared test class defines the queue contract — FIFO order, priority
order, claim/ack, lease-based reclaim, dedup-by-key, no double issue under
concurrent claimers — and both backends (``memory`` and ``sqlite``)
subclass it (the frontera pattern: interchangeable implementations proven
interchangeable by running identical tests against each).
"""

import multiprocessing
import os
import sqlite3
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


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


def _open_at_barrier(path, barrier):
    """Open ``path`` as a queue the moment every party is ready; put one item."""
    barrier.wait(timeout=60)
    queue = SqliteQueue(path)
    queue.put(make_items(1, prefix=f"pid{os.getpid()}-{threading.get_ident()}"))
    queue.close()


def _claim_in_child(queue, results):
    """Forked child: claim through the inherited queue, report what it saw."""
    inherited = queue._local.conn
    item = queue.claim("child", lease=300.0)
    results.put((item.key, queue._local.conn is not inherited))


class TestSqliteQueue(PersistentQueueContract):
    def make_queue(self, tmp_path, clock):
        return SqliteQueue(tmp_path / "queue.sqlite", clock=clock)

    def test_file_runs_in_wal_mode_with_full_sync(self, queue):
        conn = queue._connection()
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        # 2 == FULL: every commit is fsynced before it returns.
        assert conn.execute("PRAGMA synchronous").fetchone()[0] == 2

    def test_close_removes_the_log_and_the_queue_reopens(self, tmp_path, queue):
        queue.put(make_items(2))
        assert (tmp_path / "queue.sqlite-wal").exists()
        queue.close()
        assert not (tmp_path / "queue.sqlite-wal").exists()
        assert not (tmp_path / "queue.sqlite-shm").exists()
        # The next operation opens a fresh connection.
        assert queue.claim("w0").key == "cell-000"
        queue.close()

    @needs_fork
    def test_concurrent_opens_of_a_fresh_file_all_succeed(self, tmp_path):
        """Threads and processes opening one new file at the same moment race
        on the switch to WAL mode; every one of them must get through.

        Two processes lose that race most of the time without the retry, so
        a few rounds of them make a reliable check."""
        context = multiprocessing.get_context("fork")
        rounds = [(2, 2)] + [(0, 2)] * 6
        for attempt, (n_threads, n_processes) in enumerate(rounds):
            path = tmp_path / f"race-{attempt}.sqlite"
            barrier = context.Barrier(n_threads + n_processes)
            processes = [
                context.Process(target=_open_at_barrier, args=(path, barrier))
                for _ in range(n_processes)
            ]
            for process in processes:
                process.start()
            errors = []

            def opener():
                try:
                    _open_at_barrier(path, barrier)
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=opener) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for process in processes:
                process.join(timeout=60)
            assert errors == []
            assert [process.exitcode for process in processes] == [0] * n_processes
            queue = SqliteQueue(path)
            assert queue.counts() == (n_threads + n_processes, 0, 0)
            queue.close()

    def test_exception_inside_a_transaction_rolls_back(self, queue, clock):
        """An exception mid-transaction must not leave the cached connection
        inside an open transaction: the next claim works."""

        def items_then_failure():
            yield from make_items(2)
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError):
            queue.put(items_then_failure())
        assert queue.counts() == (0, 0, 0)

        queue.put(make_items(2))

        def broken_clock():
            raise RuntimeError("clock failed")

        queue._clock = broken_clock
        with pytest.raises(RuntimeError):
            queue.claim("w0")
        queue._clock = clock
        assert queue.counts() == (2, 0, 0)
        assert queue.claim("w0").key == "cell-000"
        assert queue.ack("cell-000", "w0")

    @needs_fork
    def test_forked_child_opens_its_own_connection(self, queue):
        """A child forked from a process holding an open connection claims
        through a connection of its own, and never gets the parent's item."""
        queue.put(make_items(3))
        held = queue.claim("parent", lease=300.0)
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(target=_claim_in_child, args=(queue, results))
        child.start()
        key, own_connection = results.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert own_connection
        assert key != held.key
        assert queue.counts() == (1, 2, 0)
        # The parent's connection is untouched by the child.
        assert queue.ack(held.key, "parent")
        assert queue.claim("parent").key not in (held.key, key)

    def test_each_thread_has_its_own_connection(self, queue):
        connections = []
        thread = threading.Thread(
            target=lambda: connections.append(queue._connection())
        )
        thread.start()
        thread.join()
        assert connections[0] is not queue._connection()
        with pytest.raises(sqlite3.ProgrammingError):
            connections[0].execute("SELECT 1")
