"""The golden simulation results (``tests/golden/channels1.json``).

One definition of a result's fingerprint, shared by the tests that pin runs
to the golden file and by ``tools/gen_golden.py``, which writes it.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "channels1.json"

#: The heterogeneous 4-core mix of the multi-core golden points.
MIX4 = ("429.mcf", "462.libquantum", "473.astar", "bfs_dblp")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def result_fingerprint(result) -> dict:
    """Every numerically meaningful field of a SimulationResult, unrounded."""
    return {
        "name": result.name,
        "mitigation_name": result.mitigation_name,
        "cycles": result.cycles,
        "per_core_ipc": result.per_core_ipc,
        "per_core_instructions": result.per_core_instructions,
        "average_read_latency": result.average_read_latency,
        "read_requests": result.read_requests,
        "write_requests": result.write_requests,
        "dram_stats": result.dram_stats,
        "energy": result.energy.as_dict(),
        "preventive_refreshes": result.preventive_refreshes,
        "early_refresh_operations": result.early_refresh_operations,
        "mitigation_stats": result.mitigation_stats,
        "security_ok": result.security_ok,
        "max_disturbance": result.max_disturbance,
        "steps": result.steps,
    }


def assert_matches_golden(result, run, entry: dict) -> None:
    """One run against its golden entry: every fingerprint field, and the
    hash of a command stream that must also pass the JEDEC oracle
    (``run`` is the run's ``oracle_commands.CheckedRun``)."""
    run.assert_clean()
    expected = {k: v for k, v in entry.items() if k not in ("command_stream", "spec")}
    assert result_fingerprint(result) == expected
    assert run.hexdigest() == entry["command_stream"]
