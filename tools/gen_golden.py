"""Regenerate the golden simulation results in tests/golden/channels1.json.

The golden file pins the exact numerical output of the simulator for one
benign workload, one attack and one 2-core mix across the whole mitigation
registry (``tests/test_channel_fabric.py``: the channel-partitioned fabric
must reproduce them bit-for-bit when ``channels=1``), plus one entry per
spec in :data:`SPECS` (``tests/test_fastpath_identity.py``): small runs
that together cover every registered scheduler x row policy.  Each entry
also carries ``command_stream``, the sha256 of the run's whole DRAM command
stream as recorded by ``tests/oracle_commands.py``, and each spec entry the
spec it was run from.  Regenerate only when simulation semantics
intentionally change:

    PYTHONPATH=src python tools/gen_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.controller.policies import ControllerPolicySpec
from repro.experiment.execute import execute_spec, run_system
from repro.experiment.registry import mitigation_names
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    WorkloadSpec,
    default_experiment_config,
)
from repro.workloads.attacks import traditional_rowhammer_attack
from repro.workloads.suite import build_multicore_traces, build_trace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from golden_runs import GOLDEN_PATH, MIX4, result_fingerprint  # noqa: E402
from oracle_commands import checked_runs  # noqa: E402

def mix_point(scheduler: str, row_policy: str, **params) -> ExperimentSpec:
    """A heterogeneous 4-core mix on 2 channels under one policy pair."""
    return ExperimentSpec(
        workload=WorkloadSpec(
            name="mix4",
            mix=tuple(WorkloadSpec(name=m, num_requests=300) for m in MIX4),
        ),
        mitigation=MitigationSpec(name="comet", nrh=125),
        platform=PlatformSpec(
            channels=2,
            controller=ControllerPolicySpec(
                scheduler=scheduler, row_policy=row_policy, params=params
            ),
        ),
    )


#: Small but structurally diverse runs: single channel with full violation
#: recording, a multi-core 2-channel fabric (per-channel skip state), an
#: adversarial pattern under the streaming verifier, and 4-core mixes that
#: put every scheduler x row policy pair on contended banks.
#: ``bliss_closed_page`` is single-core, so its one core is the whole
#: blacklist and demotion never reorders anything; ``bliss_4core_open_page``
#: is the point where it does, on open rows where the column cap and
#: hit-first ordering both bite.
SPECS = {
    "single_core_comet": ExperimentSpec(
        workload=WorkloadSpec(name="429.mcf", num_requests=800),
        mitigation=MitigationSpec(name="comet", nrh=250),
    ),
    "multicore_2ch": ExperimentSpec(
        workload=WorkloadSpec(name="429.mcf", num_requests=500, num_cores=4),
        mitigation=MitigationSpec(name="comet", nrh=250),
        platform=PlatformSpec(channels=2),
    ),
    "attack_streaming": ExperimentSpec(
        workload=WorkloadSpec(name="attack_traditional", num_requests=800),
        mitigation=MitigationSpec(name="para", nrh=125),
        verify_security="streaming",
    ),
    "bliss_closed_page": ExperimentSpec(
        workload=WorkloadSpec(name="429.mcf", num_requests=800),
        mitigation=MitigationSpec(name="comet", nrh=250),
        platform=PlatformSpec(
            controller=ControllerPolicySpec(
                scheduler="bliss", row_policy="closed_page"
            )
        ),
    ),
    "bliss_4core_open_page": mix_point(
        "bliss", "open_page", bliss_clearing_interval=4000
    ),
    "bliss_4core_adaptive_timeout": mix_point(
        "bliss", "adaptive_timeout", bliss_clearing_interval=4000, row_timeout=200
    ),
    "fcfs_4core_adaptive_timeout": mix_point(
        "fcfs", "adaptive_timeout", row_timeout=200
    ),
    "fcfs_4core_open_page": mix_point("fcfs", "open_page"),
    "fcfs_4core_closed_page": mix_point("fcfs", "closed_page"),
    "fr_fcfs_4core_closed_page": mix_point("fr_fcfs", "closed_page"),
    "fr_fcfs_4core_adaptive_timeout": mix_point(
        "fr_fcfs", "adaptive_timeout", row_timeout=200
    ),
}


def _entry(result, run) -> dict:
    entry = result_fingerprint(result)
    entry["command_stream"] = run.hexdigest()
    return entry


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
    with checked_runs() as runs:
        for name in mitigation_names():
            result = run_system(
                [benign], name, nrh=250, dram_config=dram_config,
                verify_security=name != "none",
            )
            golden[f"benign/{name}"] = _entry(result, runs[-1])
        result = run_system([attack], "comet", nrh=125, dram_config=dram_config)
        golden["attack/comet"] = _entry(result, runs[-1])
        result = run_system(mix, "comet", nrh=250, dram_config=dram_config, name="mix")
        golden["multicore/comet"] = _entry(result, runs[-1])
        for label, spec in SPECS.items():
            entry = _entry(execute_spec(spec), runs[-1])
            entry["spec"] = spec.to_dict()
            golden[f"spec/{label}"] = entry
    # A golden must never pin an illegal command stream.
    for run in runs:
        run.assert_clean()
    return golden


def main() -> None:
    golden = generate()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden fingerprints to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
