"""System assembly and experiment running.

* :mod:`repro.sim.engine` — the event-driven simulation kernel: one min-heap
  of timestamped events shared by cores, the memory controller and the
  mitigation.
* :class:`~repro.sim.system.System` — wires cores, the memory controller,
  the DRAM model, a RowHammer mitigation and the security verifier together
  and runs the event-driven simulation to completion.
* :mod:`repro.sim.metrics` — IPC, weighted speedup, geometric means and
  normalization helpers (the metrics of Figures 10-16).
* :mod:`repro.sim.pool` — the shared warm worker pool that
  :class:`~repro.experiment.session.Session` and the campaign runner fan
  cells across.
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
    normalized_ipc,
    normalized_values,
    weighted_speedup,
    normalized_weighted_speedup,
    summarize_distribution,
)
from repro.sim.sampled import run_sampled

__all__ = [
    "run_sampled",
    "EventKernel",
    "SimulationDeadlockError",
    "StepBudgetExhaustedError",
    "System",
    "SystemConfig",
    "SimulationResult",
    "geometric_mean",
    "normalized_values",
    "weighted_speedup",
    "normalized_weighted_speedup",
    "summarize_distribution",
    "normalized_ipc",
]
