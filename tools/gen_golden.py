"""Regenerate the golden 1-channel results used by tests/test_channel_fabric.py.

The golden file pins the exact numerical output of the simulator for one
benign workload, one attack and one 2-core mix across the whole mitigation
registry.  The channel-partitioned fabric must reproduce these bit-for-bit
when ``channels=1`` (the refactor's equivalence contract); regenerate only
when simulation semantics intentionally change:

    PYTHONPATH=src python tools/gen_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiment.execute import run_system
from repro.experiment.registry import mitigation_names
from repro.experiment.spec import default_experiment_config
from repro.workloads.attacks import traditional_rowhammer_attack
from repro.workloads.suite import build_multicore_traces, build_trace

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "channels1.json"


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


def generate() -> dict:
    dram_config = default_experiment_config()
    benign = build_trace("450.soplex", num_requests=2000, dram_config=dram_config)
    attack = traditional_rowhammer_attack(
        num_requests=3000, dram_config=dram_config, aggressor_rows_per_bank=2
    )
    mix = build_multicore_traces(
        "429.mcf", num_cores=2, num_requests=1200, dram_config=dram_config
    )

    golden: dict = {}
    for name in mitigation_names():
        result = run_system(
            [benign], name, nrh=250, dram_config=dram_config,
            verify_security=name != "none",
        )
        golden[f"benign/{name}"] = result_fingerprint(result)
    golden["attack/comet"] = result_fingerprint(
        run_system([attack], "comet", nrh=125, dram_config=dram_config)
    )
    golden["multicore/comet"] = result_fingerprint(
        run_system(mix, "comet", nrh=250, dram_config=dram_config, name="mix")
    )
    return golden


def main() -> None:
    golden = generate()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden fingerprints to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
