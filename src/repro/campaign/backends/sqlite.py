"""SQLite-backed work queue: one database file, transactional claims.

The persistent backend, and the default of ``repro campaign run``: claims
run inside ``BEGIN IMMEDIATE`` transactions, so SQLite's file locking
serializes concurrent claimers across threads and processes on one host —
no two workers are ever issued the same item, and a killed runner's queue
survives for the next one to resume.

The file runs in write-ahead-log mode (``journal_mode=WAL``, switched once
when a queue is opened) with ``synchronous=FULL``, so every commit is still
fsynced before it returns.  Each process and thread keeps one connection,
opened on first use and cached in a :class:`threading.local` keyed by
``os.getpid()``: a forked child or another thread opens its own, and a
connection is never used outside the process that opened it.  A claim or
an ack therefore costs one WAL commit on an open connection, not a
connection open plus a rollback-journal commit.  :meth:`SqliteQueue.close`
closes the calling thread's connection; closing the last one checkpoints
the log and removes the ``-wal``/``-shm`` files beside the database.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Union

from repro.campaign.queue import DEFAULT_LEASE, QueueCounts, WorkItem, WorkQueue

_SCHEMA = """
CREATE TABLE IF NOT EXISTS items (
    key      TEXT PRIMARY KEY,
    payload  TEXT NOT NULL,
    priority INTEGER NOT NULL,
    seq      INTEGER NOT NULL,
    state    TEXT NOT NULL DEFAULT 'pending',
    worker   TEXT,
    deadline REAL
);
CREATE INDEX IF NOT EXISTS idx_items_state ON items (state, priority DESC, seq ASC);
"""

#: Seconds a connection waits on another's lock before raising; also the
#: bound on retrying the switch to WAL mode.
_TIMEOUT = 30.0

#: Connections a forked child inherited from its parent.  SQLite forbids
#: using a connection across ``fork()``, and closing one in the child could
#: release file locks the child's own connection holds, so the child keeps
#: them referenced here and never touches them.
_INHERITED: List[sqlite3.Connection] = []


class SqliteQueue(WorkQueue):
    """Single-file transactional queue (multi-process work stealing)."""

    name = "sqlite"

    def __init__(
        self, path: Union[str, Path], clock: Callable[[], float] = time.time
    ) -> None:
        super().__init__(clock)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        conn = self._connection()
        self._enable_wal(conn)
        conn.executescript(_SCHEMA)

    def _connection(self) -> sqlite3.Connection:
        """This process's and thread's connection, opened on first use."""
        local = self._local
        pid = os.getpid()
        if getattr(local, "pid", None) != pid:
            inherited = getattr(local, "conn", None)
            if inherited is not None:
                _INHERITED.append(inherited)
            # isolation_level=None: explicit BEGIN IMMEDIATE below; the
            # busy timeout rides out contending claimers instead of raising.
            conn = sqlite3.connect(self.path, timeout=_TIMEOUT, isolation_level=None)
            conn.execute("PRAGMA synchronous=FULL")
            local.conn, local.pid = conn, pid
        return local.conn

    def _enable_wal(self, conn: sqlite3.Connection) -> None:
        # The busy timeout does not cover a journal-mode switch: two
        # processes opening a fresh file at once make one of them fail at
        # once with "database is locked" (or read back the old mode), so
        # retry until the file reports WAL.
        deadline = time.monotonic() + _TIMEOUT
        while True:
            try:
                mode = conn.execute("PRAGMA journal_mode=WAL").fetchone()[0]
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
            else:
                if mode == "wal":
                    return
                if time.monotonic() >= deadline:
                    raise sqlite3.OperationalError(
                        f"{self.path}: journal_mode stays {mode!r}, not 'wal'"
                    )
            time.sleep(0.01)

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """``BEGIN IMMEDIATE`` on the cached connection; commit, or roll
        back on any exception so the connection stays usable."""
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.rollback()
            raise
        conn.commit()

    def close(self) -> None:
        """Close the calling thread's connection (the next operation reopens)."""
        local = self._local
        conn = getattr(local, "conn", None)
        if conn is not None and local.pid == os.getpid():
            local.conn = local.pid = None
            conn.close()

    # ------------------------------------------------------------------ #
    # WorkQueue interface
    # ------------------------------------------------------------------ #
    def put(self, items: Iterable[WorkItem]) -> int:
        added = 0
        with self._transaction() as conn:
            row = conn.execute("SELECT COALESCE(MAX(seq), 0) FROM items").fetchone()
            seq = int(row[0])
            for item in items:
                seq += 1
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO items (key, payload, priority, seq)"
                    " VALUES (?, ?, ?, ?)",
                    (item.key, item.payload, item.priority, seq),
                )
                added += cursor.rowcount
        return added

    def claim(self, worker: str, lease: float = DEFAULT_LEASE) -> Optional[WorkItem]:
        with self._transaction() as conn:
            row = conn.execute(
                "SELECT key, payload, priority, seq FROM items"
                " WHERE state = 'pending'"
                " ORDER BY priority DESC, seq ASC LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            key, payload, priority, seq = row
            conn.execute(
                "UPDATE items SET state = 'claimed', worker = ?, deadline = ?"
                " WHERE key = ?",
                (worker, self._clock() + lease, key),
            )
            return WorkItem(key=key, payload=payload, priority=priority, seq=seq)

    def ack(self, key: str, worker: str) -> bool:
        with self._transaction() as conn:
            cursor = conn.execute(
                "UPDATE items SET state = 'done', worker = NULL, deadline = NULL"
                " WHERE key = ? AND state = 'claimed' AND worker = ?",
                (key, worker),
            )
            return cursor.rowcount == 1

    def reclaim_expired(self) -> int:
        with self._transaction() as conn:
            cursor = conn.execute(
                "UPDATE items SET state = 'pending', worker = NULL, deadline = NULL"
                " WHERE state = 'claimed' AND deadline <= ?",
                (self._clock(),),
            )
            return cursor.rowcount

    def counts(self) -> QueueCounts:
        rows = dict(
            self._connection()
            .execute("SELECT state, COUNT(*) FROM items GROUP BY state")
            .fetchall()
        )
        return QueueCounts(
            rows.get("pending", 0), rows.get("claimed", 0), rows.get("done", 0)
        )
