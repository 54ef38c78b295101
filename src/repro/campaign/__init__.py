"""Distributed, resumable experiment campaigns.

This package scales the one-shot :meth:`~repro.experiment.session.Session.run_many`
grid into a *campaign*: a persistent, content-addressed results database plus a
pluggable work queue that any number of workers — in one process, many
processes or many hosts — can drain cooperatively, with crash recovery at
every layer.

* :class:`~repro.campaign.store.ResultStore` — versioned
  :class:`~repro.experiment.session.RunRecord` JSONs indexed by canonical
  spec hash; atomic writes, checksummed reads, corrupt-file quarantine and
  incremental invalidation on ``CACHE_VERSION`` bumps.
* :class:`~repro.campaign.queue.WorkQueue` — the backend interface
  (claim/ack with lease-based reclaim of abandoned work), with three
  registered implementations: in-memory FIFO/priority for local runs, a
  directory-backed claim-file queue and a sqlite-backed queue for
  multi-process / multi-host work stealing.  One shared conformance suite
  (``tests/test_campaign_queue.py``) pins every backend to the same
  semantics, frontera-style.
* :class:`~repro.campaign.runner.CampaignRunner` — expands a declarative
  :class:`~repro.experiment.spec.CampaignSpec` into queue items, drives N
  workers through the store, checkpoints progress and resumes after a kill
  with zero recomputation of completed cells.
* :mod:`~repro.campaign.serve` — a read-only stdlib HTTP JSON API
  (``repro serve``) answering spec-hash and grid queries from the store
  without simulating.
"""

from repro.campaign.backends import DirectoryQueue, MemoryQueue, SqliteQueue
from repro.campaign.queue import (
    QueueCounts,
    WorkItem,
    WorkQueue,
    create_backend,
    queue_backend_catalog,
    queue_backend_names,
    register_backend,
)
from repro.campaign.runner import CampaignRunner, CampaignStatus
from repro.campaign.serve import make_server
from repro.campaign.store import ResultStore, default_store_dir
from repro.experiment.spec import CampaignSpec

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "DirectoryQueue",
    "MemoryQueue",
    "QueueCounts",
    "ResultStore",
    "SqliteQueue",
    "WorkItem",
    "WorkQueue",
    "create_backend",
    "default_store_dir",
    "make_server",
    "queue_backend_catalog",
    "queue_backend_names",
    "register_backend",
]
