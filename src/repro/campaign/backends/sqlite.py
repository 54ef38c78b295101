"""SQLite-backed work queue: one database file, transactional claims.

The persistent backend, and the default of ``repro campaign run``: claims
run inside ``BEGIN IMMEDIATE`` transactions, so SQLite's file locking
serializes concurrent claimers across threads and processes on one host —
no two workers are ever issued the same item, and a killed runner's queue
survives for the next one to resume.  Every operation opens a short-lived
connection, which keeps the backend safe to use from any thread or from
forked workers without connection hand-me-down hazards.
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

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


class SqliteQueue(WorkQueue):
    """Single-file transactional queue (multi-process work stealing)."""

    name = "sqlite"

    def __init__(
        self, path: Union[str, Path], clock: Callable[[], float] = time.time
    ) -> None:
        super().__init__(clock)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        # isolation_level=None: explicit BEGIN IMMEDIATE below; the 30s
        # busy timeout rides out contending claimers instead of raising.
        conn = sqlite3.connect(self.path, timeout=30.0, isolation_level=None)
        try:
            yield conn
            conn.commit()
        finally:
            conn.close()

    # ------------------------------------------------------------------ #
    # WorkQueue interface
    # ------------------------------------------------------------------ #
    def put(self, items: Iterable[WorkItem]) -> int:
        added = 0
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
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
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
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
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            cursor = conn.execute(
                "UPDATE items SET state = 'done', worker = NULL, deadline = NULL"
                " WHERE key = ? AND state = 'claimed' AND worker = ?",
                (key, worker),
            )
            return cursor.rowcount == 1

    def reclaim_expired(self) -> int:
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            cursor = conn.execute(
                "UPDATE items SET state = 'pending', worker = NULL, deadline = NULL"
                " WHERE state = 'claimed' AND deadline <= ?",
                (self._clock(),),
            )
            return cursor.rowcount

    def counts(self) -> QueueCounts:
        with self._connect() as conn:
            rows = dict(
                conn.execute(
                    "SELECT state, COUNT(*) FROM items GROUP BY state"
                ).fetchall()
            )
        return QueueCounts(
            rows.get("pending", 0), rows.get("claimed", 0), rows.get("done", 0)
        )
