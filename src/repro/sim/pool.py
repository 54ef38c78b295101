"""Shared warm worker pool for campaign and sweep fan-out.

Both fan-out layers — :meth:`repro.experiment.session.Session.run_many`
and :class:`repro.campaign.runner.CampaignRunner` — execute cells in a
``ProcessPoolExecutor``.  Each used to build (and tear down) its own pool
per ``run()`` call, so every campaign paid worker spawn plus a cold import
of the whole simulator stack in every worker before the first cell could
start; for the short cells typical of audit sweeps (seconds each) that
fixed cost rivals the real work.  This module keeps one process pool per
driver process, warmed by an initializer that pre-imports the execution
machinery and the workload/mitigation registries, so consecutive
campaigns and sweeps reuse hot workers.

Worker reuse is safe because both worker entry points
(:func:`repro.campaign.runner._execute_payload`,
:func:`repro.experiment.execute.execute_spec`) construct the entire simulated system
per cell from a plain-data spec; the only state that persists across cells
is deliberately cacheable (imported modules, memoized trace synthesis —
deterministic functions of the spec).

Callers must NOT shut the shared pool down after a run — that is the whole
point.  It is torn down at interpreter exit (or explicitly via
:func:`shutdown_shared_pool`, which tests use to assert cold-start
behaviour).
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: int = 0


def _warm_worker() -> None:  # pragma: no cover - runs inside pool workers
    """Pre-import the heavy modules a cell execution needs.

    Runs once per worker process at spawn time, moving the simulator-stack
    import cost (the dominant per-worker fixed cost for short cells) off
    the first cell's critical path.
    """
    import repro.analysis.security  # noqa: F401
    import repro.experiment.execute  # noqa: F401
    import repro.mitigations  # noqa: F401
    import repro.workloads  # noqa: F401


def shared_pool(max_workers: int) -> ProcessPoolExecutor:
    """The process-wide warm pool, (re)built only when it must grow.

    A pool with at least ``max_workers`` workers is reused as-is — callers
    throttle their own in-flight work, so a bigger pool never over-commits
    them.  A request for more workers than the current pool has replaces
    it (the old one drains in the background).
    """
    global _pool, _pool_workers
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if _pool is not None and _pool_workers >= max_workers:
        return _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=False)
    # The platform-default start method, same as the per-run pools this
    # replaces: fork (Linux) inherits the driver's imports and makes the
    # initializer a cheap no-op, while spawn-default platforms (macOS,
    # Windows) pay a real per-worker interpreter warm-up — there the
    # initializer's pre-imports and the pool's process-long lifetime are
    # exactly what keeps that cost out of every run.  (Explicitly forcing
    # spawn/forkserver everywhere would re-import the driver's
    # ``__main__`` per worker, breaking guardless driver scripts that
    # worked with the old per-run pools.)
    _pool = ProcessPoolExecutor(max_workers=max_workers, initializer=_warm_worker)
    _pool_workers = max_workers
    return _pool


def shutdown_shared_pool(wait: bool = True) -> None:
    """Tear down the shared pool (no-op when none exists)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=wait, cancel_futures=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_shared_pool, wait=False)
