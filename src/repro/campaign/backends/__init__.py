"""The two :class:`~repro.campaign.queue.WorkQueue` implementations.

* ``memory`` — in-process FIFO/priority heap; fastest, not persistent.
* ``sqlite`` — single-file SQLite database, claims inside ``BEGIN
  IMMEDIATE`` transactions; survives a kill and is shared by every runner
  process pointed at the same file.
"""

from repro.campaign.backends.memory import MemoryQueue
from repro.campaign.backends.sqlite import SqliteQueue

__all__ = ["MemoryQueue", "SqliteQueue"]
