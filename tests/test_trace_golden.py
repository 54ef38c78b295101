"""Trace synthesis is pinned: every registered workload's trace matches its
golden digest (``tests/golden/traces.json``) on both platforms and seeds.

A refactor of the address layout, the trace record or a generator must not
change a single synthesized access.  Regenerate only when a generator's
output intentionally changes:
``PYTHONPATH=src python tools/gen_trace_golden.py``.
"""

from __future__ import annotations

from trace_golden import (
    TRACE_PLATFORMS,
    TRACE_REQUESTS,
    TRACE_SEEDS,
    load_trace_golden,
    trace_digests,
)


def test_golden_covers_the_current_parameters():
    golden = load_trace_golden()
    assert golden["requests"] == TRACE_REQUESTS
    assert golden["seeds"] == list(TRACE_SEEDS)
    assert golden["platforms"] == TRACE_PLATFORMS


def test_every_workload_trace_matches_its_golden_digest():
    expected = load_trace_golden()["traces"]
    fresh = trace_digests()
    assert sorted(fresh) == sorted(expected), (
        "registered workloads differ from tests/golden/traces.json; "
        "regenerate with tools/gen_trace_golden.py"
    )
    for name in sorted(fresh):
        for point in sorted(fresh[name]):
            assert fresh[name][point] == expected[name][point], (
                f"first differing trace: {name} ({point}); if the change is "
                "intentional, regenerate with tools/gen_trace_golden.py"
            )
