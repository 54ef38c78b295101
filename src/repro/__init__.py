"""repro: a full Python reproduction of CoMeT (HPCA 2024).

CoMeT is a low-cost RowHammer mitigation that tracks DRAM row activations
with a Count-Min Sketch (the Counter Table) backed by a small table of
per-row counters for recently identified aggressor rows (the Recent
Aggressor Table).  This package reproduces the mechanism and the entire
evaluation stack the paper builds it on:

* :mod:`repro.core` — the CoMeT mechanism itself.
* :mod:`repro.sketch` — Count-Min Sketch / counting Bloom filter /
  Misra-Gries substrates.
* :mod:`repro.dram`, :mod:`repro.controller`, :mod:`repro.cpu` — the DDR4
  device model, FR-FCFS memory controller and trace-driven cores (the
  Ramulator substitute).
* :mod:`repro.mitigations` — the comparison points: PARA, Graphene, Hydra,
  REGA, BlockHammer and the unprotected baseline.
* :mod:`repro.energy`, :mod:`repro.area` — DRAMPower- and CACTI-style models.
* :mod:`repro.workloads` — the synthetic 61-workload suite and attack traces.
* :mod:`repro.sim`, :mod:`repro.analysis` — system assembly, experiment
  runners, metrics, the security verifier and tracker analysis.
* :mod:`repro.experiment` — the declarative experiment API: typed,
  JSON-round-trippable specs, component registries and the Session facade
  every entry point (CLI, examples, benchmarks, sweeps) shares.
* :mod:`repro.security` — adversarial attack synthesis (fuzzed, sketch-aware,
  refresh-straddling and multi-channel patterns) and spec-driven security
  audit campaigns reducing to :class:`~repro.security.audit.SecurityReport`.

Quickstart::

    from repro import ExperimentSpec, ExperimentWorkloadSpec, MitigationSpec, Session

    record = Session().run(
        ExperimentSpec(
            workload=ExperimentWorkloadSpec(name="429.mcf", num_requests=5000),
            mitigation=MitigationSpec(name="comet", nrh=1000),
        )
    )
    print(record.result.summary())
"""

from repro.core import CoMeT, CoMeTConfig, CounterTable, RecentAggressorTable
from repro.dram import DRAMConfig
from repro.mitigations import (
    BlockHammer,
    Graphene,
    Hydra,
    NoMitigation,
    PARA,
    REGA,
)
from repro.sim import (
    System,
    SystemConfig,
    SimulationResult,
    normalized_ipc,
)
from repro.experiment import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    RunRecord,
    Session,
    expand_grid,
)
from repro.experiment.spec import WorkloadSpec as ExperimentWorkloadSpec
from repro.experiment.spec import default_experiment_config
from repro.security import SecurityReport, run_audit
from repro.workloads import (
    WORKLOAD_SUITE,
    build_trace,
    build_multicore_traces,
    workload_names,
    traditional_rowhammer_attack,
)

__version__ = "1.0.0"

__all__ = [
    "CoMeT",
    "CoMeTConfig",
    "CounterTable",
    "RecentAggressorTable",
    "DRAMConfig",
    "NoMitigation",
    "PARA",
    "Graphene",
    "Hydra",
    "REGA",
    "BlockHammer",
    "System",
    "SystemConfig",
    "SimulationResult",
    "normalized_ipc",
    "default_experiment_config",
    "ExperimentSpec",
    "ExperimentWorkloadSpec",
    "MitigationSpec",
    "PlatformSpec",
    "Session",
    "RunRecord",
    "expand_grid",
    "SecurityReport",
    "run_audit",
    "WORKLOAD_SUITE",
    "build_trace",
    "build_multicore_traces",
    "workload_names",
    "traditional_rowhammer_attack",
    "__version__",
]
