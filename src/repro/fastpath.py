"""Stub kept only for the benchmark's environment record.

``perfbench/run.py`` records ``fastpath.enabled()`` with each result.  The
simulator has a single hot path, so it is always ``True``; delete this
module once the benchmark stops reading it.
"""


def enabled() -> bool:
    return True
