"""Global switch for the accelerated simulation hot path.

The simulator ships two functionally identical hot paths:

* the **fast path** — the controller's fused select/issue closures (one
  struct-of-arrays demand scan that expresses every registered scheduler,
  plus one closure applying a command and all its bookkeeping) and the
  event kernel's "untouched channel" decision-cache skip, which avoid most
  of the per-event Python dispatch; and
* the **reference path** — the scheduler's per-bank ``bank_candidate``
  behind the controller's generic select/post-issue pair, and per-event
  controller rescheduling in :class:`~repro.sim.engine.EventKernel`.

Both paths are bit-identical (pinned by ``tests/golden/`` and by
``tests/test_fastpath_identity.py``, whole runs and single decisions).  The
reference path survives as the oracle those tests compare against and for
measurement: ``benchmarks/test_micro_kernel_e2e.py`` builds one system per
path *in the same process* and reports the whole-run speedup in
``benchmarks/results/BENCH_kernel.json``.

The switch is read at component *construction* time (controller ``__init__``
and kernel ``__init__``), so toggling it never changes the behaviour of a
system that already exists.  Set the environment variable
``REPRO_FASTPATH=0`` to build reference-path systems globally (e.g. to
bisect a suspected fast-path divergence), or use :func:`forced` for scoped
toggling.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_enabled: bool = os.environ.get("REPRO_FASTPATH", "1") != "0"


def enabled() -> bool:
    """True when newly built systems should use the accelerated hot path."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Set the switch; returns the previous value (for manual save/restore)."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def forced(flag: bool):
    """Scope the switch to ``flag``; systems built inside use that path."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)
