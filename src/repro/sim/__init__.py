"""System assembly and experiment running.

* :mod:`repro.sim.engine` — the event-driven simulation kernel: one min-heap
  of timestamped events shared by cores, the memory controller and the
  mitigation.
* :mod:`repro.sim.sweep` — the design-space sweep executor: declarative
  sweep points, worker-process fan-out, on-disk result caching.
* :class:`~repro.sim.system.System` — wires cores, the memory controller,
  the DRAM model, a RowHammer mitigation and the security verifier together
  and runs the event-driven simulation to completion.
* :mod:`repro.sim.metrics` — IPC, weighted speedup, geometric means and
  normalization helpers (the metrics of Figures 10-16).
* :mod:`repro.sim.runner` — convenience functions used by the examples and
  the benchmark harnesses: run one workload under one mitigation, compare
  mitigations, sweep configurations.
* :mod:`repro.sim.sampled` — the sampled-fidelity executor: functional
  fast-forward between detailed windows (``fidelity="sampled"`` specs).
"""

from repro.sim.engine import (
    EventKernel,
    SimulationDeadlockError,
    StepBudgetExhaustedError,
)
from repro.sim.system import System, SystemConfig, SimulationResult
from repro.sim.metrics import (
    geometric_mean,
    normalized_values,
    weighted_speedup,
    normalized_weighted_speedup,
    summarize_distribution,
)
from repro.sim.runner import (
    MITIGATION_FACTORIES,
    MITIGATION_REGISTRY,
    build_mitigation,
    run_single_core,
    run_multi_core,
    compare_single_core,
    normalized_ipc,
)
from repro.sim.sampled import run_sampled
from repro.sim.sweep import SweepPoint, SweepRunner, execute_point

__all__ = [
    "run_sampled",
    "EventKernel",
    "SimulationDeadlockError",
    "StepBudgetExhaustedError",
    "System",
    "SystemConfig",
    "SimulationResult",
    "SweepPoint",
    "SweepRunner",
    "execute_point",
    "geometric_mean",
    "normalized_values",
    "weighted_speedup",
    "normalized_weighted_speedup",
    "summarize_distribution",
    "MITIGATION_FACTORIES",
    "MITIGATION_REGISTRY",
    "build_mitigation",
    "run_single_core",
    "run_multi_core",
    "compare_single_core",
    "normalized_ipc",
]
