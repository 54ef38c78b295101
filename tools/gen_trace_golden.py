"""Regenerate the golden trace digests in tests/golden/traces.json.

The file pins one sha256 of the synthesized ``(bubble_count, address,
is_write)`` records per registered workload, on the default platform and on
a 2-channel one, at two seeds (``tests/trace_golden.py``).
``tests/test_trace_golden.py`` rebuilds every trace and names the first
workload whose digest differs, so a change to the address layout, the trace
record or a generator's RNG order cannot silently change the traces every
result is computed from.  Regenerate only when a generator's output
intentionally changes:

    PYTHONPATH=src python tools/gen_trace_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from trace_golden import (  # noqa: E402
    TRACE_GOLDEN_PATH,
    TRACE_PLATFORMS,
    TRACE_REQUESTS,
    TRACE_SEEDS,
    trace_digests,
)


def generate() -> None:
    golden = {
        "requests": TRACE_REQUESTS,
        "seeds": list(TRACE_SEEDS),
        "platforms": TRACE_PLATFORMS,
        "traces": trace_digests(),
    }
    TRACE_GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TRACE_GOLDEN_PATH} ({len(golden['traces'])} workloads)")


if __name__ == "__main__":
    generate()
