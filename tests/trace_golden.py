"""The golden trace digests (``tests/golden/traces.json``).

One sha256 per registered workload, platform and seed over the synthesized
trace's ``(bubble_count, address, is_write)`` records.  Shared by the tier-1
test that pins trace synthesis and by ``tools/gen_trace_golden.py``, which
writes the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.experiment.registry import registered_workload_names
from repro.experiment.spec import WorkloadSpec, default_experiment_config

TRACE_GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "traces.json"

#: Long enough to cover every generator's schedule shape, short enough that
#: building every workload on every platform and seed stays well under 1 s.
TRACE_REQUESTS = 300
TRACE_SEEDS = (0, 7)
#: The default single-channel geometry and a 2-channel one (the channel
#: field of the address layout and the multichannel generators).
TRACE_PLATFORMS = {"default": 1, "channels=2": 2}


def trace_digest(trace) -> str:
    """sha256 over a trace's records, one ``bubble address write`` line each."""
    digest = hashlib.sha256()
    for entry in trace:
        digest.update(
            f"{entry.bubble_count} {entry.address} {int(entry.is_write)}\n".encode()
        )
    return digest.hexdigest()


def trace_digests() -> Dict[str, Dict[str, str]]:
    """``{workload: {"<platform>/seed=<n>": sha256}}`` for every workload."""
    configs = {
        platform: default_experiment_config(channels=channels)
        for platform, channels in TRACE_PLATFORMS.items()
    }
    digests: Dict[str, Dict[str, str]] = {}
    for name in registered_workload_names():
        per_workload = digests.setdefault(name, {})
        for platform, config in configs.items():
            for seed in TRACE_SEEDS:
                (trace,) = WorkloadSpec(
                    name=name, num_requests=TRACE_REQUESTS, seed=seed
                ).build_traces(config)
                per_workload[f"{platform}/seed={seed}"] = trace_digest(trace)
    return digests


def load_trace_golden() -> dict:
    return json.loads(TRACE_GOLDEN_PATH.read_text())
