"""Shared infrastructure for the benchmark harnesses.

Every benchmark regenerates one table or figure of the CoMeT paper
(see DESIGN.md's experiment index).  They share:

* a single scaled DRAM configuration (:func:`experiment_config`);
* a session-wide simulation cache so that e.g. the unprotected baseline of a
  workload is simulated once and reused by every figure that normalizes to it;
* a result recorder that prints each regenerated table/figure at the end of
  the pytest session (so ``pytest benchmarks/ --benchmark-only`` shows the
  rows/series the paper reports).

Artifact policy: machine-readable JSON only.  The files that live (and are
committed) under ``benchmarks/results/`` are the ``BENCH_*.json``
artifacts the CI micro-benchmark job diffs against; the old per-figure
``.txt`` twins were plain renderings of the same data, nothing read them,
and they churned on every timing-sensitive run — so :func:`record` keeps
figures in memory for the end-of-session printout and writes nothing to
disk.  Benchmarks that want a persistent artifact write JSON explicitly
(see ``test_micro_kernel_e2e.py``).

Every simulation is described as an
:class:`~repro.experiment.spec.ExperimentSpec` and executed through
:func:`repro.experiment.execute.execute_spec`, the same execution core the
:class:`~repro.experiment.session.Session` facade and its workers use, so
benchmark runs can share a :class:`~repro.campaign.store.ResultStore` with
sweeps and campaigns (keys are the specs' canonical-JSON content hashes).

Environment knobs:

* ``REPRO_FULL_SUITE=1`` — use the full 61-workload suite instead of the
  5-workload representative subset (much slower).
* ``REPRO_BENCH_REQUESTS=<n>`` — override the per-workload trace length.
* ``REPRO_BENCH_DISK_CACHE=<dir>`` — also memoize results in a result
  store at ``<dir>`` (see EXPERIMENTS.md), so re-running a figure after an
  unrelated edit reuses every simulation.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.campaign.store import ResultStore
from repro.dram.dram_system import DRAMStatistics
from repro.energy.model import DRAMEnergyModel
from repro.experiment.execute import execute_spec
from repro.experiment.spec import ExperimentSpec, MitigationSpec, WorkloadSpec
from repro.sim.system import SimulationResult
from repro.workloads.suite import workload_names

# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
THRESHOLDS = [1000, 500, 250, 125]

#: Representative subset: two high-, two medium-, one low-intensity workload.
DEFAULT_WORKLOADS = ["429.mcf", "bfs_dblp", "462.libquantum", "473.astar", "502.gcc"]

NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "12000"))
MULTICORE_REQUESTS = max(1000, NUM_REQUESTS // 8)
RESULTS_DIR = Path(__file__).parent / "results"

_RECORDED: List[Tuple[str, str]] = []


def bench_workloads() -> List[str]:
    if os.environ.get("REPRO_FULL_SUITE") == "1":
        return workload_names()
    return list(DEFAULT_WORKLOADS)


def record(title: str, text: str) -> None:
    """Record a regenerated table/figure for the end-of-session printout.

    In-memory only — see the module docstring's artifact policy.  The
    JSON artifacts under ``benchmarks/results/`` are written by the
    benchmarks that own them, not here.
    """
    _RECORDED.append((title, text))


def recorded_results() -> List[Tuple[str, str]]:
    """All (title, text) pairs recorded so far in this session."""
    return list(_RECORDED)


# --------------------------------------------------------------------------- #
# Simulation cache
# --------------------------------------------------------------------------- #
class SimulationCache:
    """Caches traces and simulation results across benchmark files.

    Every simulation is described as an
    :class:`~repro.experiment.spec.ExperimentSpec` and executed through
    :func:`~repro.experiment.execute.execute_spec`, so results are
    interchangeable with (and, when ``REPRO_BENCH_DISK_CACHE`` is set,
    shared with) the Session's result store.
    """

    def __init__(self) -> None:
        self.energy_model = DRAMEnergyModel(num_ranks=2)
        self._results: Dict[Tuple, SimulationResult] = {}
        disk_dir = os.environ.get("REPRO_BENCH_DISK_CACHE")
        self.disk_cache: Optional[ResultStore] = (
            ResultStore(disk_dir) if disk_dir else None
        )

    def simulate(self, spec: ExperimentSpec) -> SimulationResult:
        """Execute one spec through the optional on-disk result store."""
        if self.disk_cache is not None:
            cached = self.disk_cache.get_result(spec)
            if cached is not None:
                return cached
        result = execute_spec(spec)
        if self.disk_cache is not None:
            self.disk_cache.put_result(spec, result)
        return result

    def _spec(
        self,
        workload: str,
        mitigation: str,
        nrh: int,
        num_requests: int,
        num_cores: int = 1,
        overrides: Optional[dict] = None,
    ) -> ExperimentSpec:
        return ExperimentSpec(
            workload=WorkloadSpec(
                name=workload, num_requests=num_requests, num_cores=num_cores
            ),
            mitigation=MitigationSpec(
                name=mitigation, nrh=nrh, overrides=overrides or ()
            ),
            verify_security=mitigation != "none",
        )

    # -- single-core runs --------------------------------------------------
    def run(
        self,
        workload: str,
        mitigation: str,
        nrh: int,
        num_requests: int = NUM_REQUESTS,
        overrides: Optional[dict] = None,
        overrides_key: Optional[str] = None,
    ) -> SimulationResult:
        if mitigation == "none":
            nrh = 0  # the baseline is threshold-independent; share one run
        key = ("run", workload, mitigation, nrh, num_requests, overrides_key)
        if key not in self._results:
            self._results[key] = self.simulate(
                self._spec(
                    workload,
                    mitigation,
                    nrh=max(1, nrh) if mitigation == "none" else nrh,
                    num_requests=num_requests,
                    overrides=overrides,
                )
            )
        return self._results[key]

    def baseline(self, workload: str, num_requests: int = NUM_REQUESTS) -> SimulationResult:
        return self.run(workload, "none", 1000, num_requests)

    # -- multi-core runs ----------------------------------------------------
    def run_multicore(
        self,
        workload: str,
        mitigation: str,
        nrh: int,
        num_cores: int = 8,
        num_requests: int = MULTICORE_REQUESTS,
        overrides: Optional[dict] = None,
        overrides_key: Optional[str] = None,
    ) -> SimulationResult:
        if mitigation == "none":
            nrh = 0
        key = ("mc_run", workload, mitigation, nrh, num_cores, num_requests, overrides_key)
        if key not in self._results:
            self._results[key] = self.simulate(
                self._spec(
                    workload,
                    mitigation,
                    nrh=max(1, nrh) if mitigation == "none" else nrh,
                    num_requests=num_requests,
                    num_cores=num_cores,
                    overrides=overrides,
                )
            )
        return self._results[key]

    def multicore_baseline(self, workload: str, num_cores: int = 8) -> SimulationResult:
        return self.run_multicore(workload, "none", 1000, num_cores)

    # -- derived metrics -----------------------------------------------------
    @staticmethod
    def _to_stats(result: SimulationResult) -> DRAMStatistics:
        d = result.dram_stats
        return DRAMStatistics(
            acts=d["acts"],
            pres=d["pres"],
            reads=d["reads"],
            writes=d["writes"],
            refreshes=d["refreshes"],
            preventive_acts=d["preventive_acts"],
        )

    def normalized_ipc(self, result: SimulationResult, baseline: SimulationResult) -> float:
        if baseline.ipc == 0:
            return 0.0
        return result.ipc / baseline.ipc

    def normalized_weighted_speedup(
        self, result: SimulationResult, baseline: SimulationResult
    ) -> float:
        base_sum = sum(baseline.per_core_ipc)
        if base_sum == 0:
            return 0.0
        return sum(result.per_core_ipc) / base_sum

    def normalized_energy(self, result: SimulationResult, baseline: SimulationResult) -> float:
        return self.energy_model.normalized_energy(
            self._to_stats(result), result.cycles, self._to_stats(baseline), baseline.cycles
        )


_CACHE = SimulationCache()


def get_cache() -> SimulationCache:
    """The process-wide simulation cache shared by every benchmark file."""
    return _CACHE


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
