"""Resumable experiment campaigns.

This package scales the one-shot :meth:`~repro.experiment.session.Session.run_many`
grid into a *campaign*: a persistent, content-addressed results database plus a
claim/ack work queue that any number of workers — in one process or in many
processes on one host — can drain cooperatively, with crash recovery at
every layer.

* :class:`~repro.campaign.store.ResultStore` — versioned
  :class:`~repro.experiment.session.RunRecord` JSONs indexed by canonical
  spec hash; atomic writes, checksummed reads, corrupt-file quarantine and
  incremental invalidation on ``CACHE_VERSION`` bumps.
* :class:`~repro.campaign.queue.WorkQueue` — the queue interface
  (claim/ack with lease-based reclaim of abandoned work), with two
  implementations: :class:`MemoryQueue`, an in-process FIFO/priority heap
  for local runs, and :class:`SqliteQueue`, a single-file queue that
  survives a kill and lets several runner processes steal work from one
  another.  One shared conformance suite (``tests/test_campaign_queue.py``)
  pins both to the same semantics, frontera-style.
* :class:`~repro.campaign.runner.CampaignRunner` — expands a declarative
  :class:`~repro.experiment.spec.CampaignSpec` into queue items, drives N
  workers through the store, checkpoints progress and resumes after a kill
  with zero recomputation of completed cells.
* :mod:`~repro.campaign.serve` — a read-only stdlib HTTP JSON API
  (``repro serve``) answering spec-hash and grid queries from the store
  without simulating.
"""

from repro.campaign.backends import MemoryQueue, SqliteQueue
from repro.campaign.queue import QueueCounts, WorkItem, WorkQueue
from repro.campaign.runner import CampaignRunner, CampaignStatus
from repro.campaign.serve import make_server
from repro.campaign.store import ResultStore, default_store_dir
from repro.experiment.spec import CampaignSpec

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "MemoryQueue",
    "QueueCounts",
    "ResultStore",
    "SqliteQueue",
    "WorkItem",
    "WorkQueue",
    "default_store_dir",
    "make_server",
]
