"""Execution core shared by every experiment entry point.

:func:`run_system` is the single place a simulation is assembled from parts
(traces + mitigation name + DRAM/core config): the :class:`Session` facade,
its worker processes, the campaign runner and the trace-level tests all
call it, so a spec-driven run and a hand-assembled one with the same parts
are bit-identical.  :func:`execute_spec` materializes an
:class:`~repro.experiment.spec.ExperimentSpec` (platform -> configs,
workload -> traces, mitigation -> per-channel instances) and runs it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.controller.policies import ControllerPolicySpec
from repro.cpu.core import CoreConfig
from repro.cpu.trace import Trace
from repro.dram.config import DRAMConfig
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    SampledConfig,
    WorkloadSpec,
)
from repro.sim.system import SimulationResult, System, SystemConfig


def run_system(
    traces: Sequence[Trace],
    mitigation_name: str,
    nrh: int,
    dram_config: DRAMConfig,
    core_config: Optional[CoreConfig] = None,
    mitigation_overrides: Optional[dict] = None,
    verify_security: bool = True,
    name: Optional[str] = None,
    record_violations: bool = True,
    policy: Optional[ControllerPolicySpec] = None,
    sampled: Optional[SampledConfig] = None,
) -> SimulationResult:
    """Assemble and run one system: the common tail of every entry point.

    ``sampled`` switches the run to the sampled-fidelity executor
    (:func:`repro.sim.sampled.run_sampled`); ``None`` (the default) runs
    full fidelity on the event kernel, bit-identical to every prior release.
    """
    mitigations = MitigationSpec(
        name=mitigation_name, nrh=nrh, overrides=mitigation_overrides or ()
    ).build_instances(dram_config.organization.channels)
    system_config = SystemConfig(
        dram=dram_config,
        policy=policy,
        core=core_config or CoreConfig(),
        verify_security=verify_security,
        nrh_for_verification=nrh,
        record_violations=record_violations,
    )
    system = System(
        list(traces),
        mitigation=mitigations,
        config=system_config,
        name=name or traces[0].name,
    )
    if sampled is not None:
        from repro.sim.sampled import run_sampled

        return run_sampled(system, sampled)
    return system.run()


#: Per-process memo of built traces: rebuilding the same multi-thousand-entry
#: synthetic trace for every mitigation x NRH cell of a sweep is pure wasted
#: RNG/address-mapping work (traces are read-only during simulation).
_TRACE_CACHE: Dict[Tuple[str, str], List[Trace]] = {}
_TRACE_CACHE_MAX = 64


def build_workload_traces(
    workload: WorkloadSpec, dram_config: DRAMConfig
) -> List[Trace]:
    """Traces for one workload spec, memoized per process.

    The workload spec alone decides the traces (mitigation and verification
    settings never touch trace generation) together with the DRAM geometry
    the generator maps rows onto, so those two ``repr``s are the memo key.
    """
    key = (repr(workload), repr(dram_config))
    if key not in _TRACE_CACHE:
        if len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        _TRACE_CACHE[key] = workload.build_traces(dram_config)
    return _TRACE_CACHE[key]


def execute_spec(spec: ExperimentSpec) -> SimulationResult:
    """Run one :class:`ExperimentSpec` to completion on the event engine."""
    dram_config = spec.platform.dram_config()
    traces = build_workload_traces(spec.workload, dram_config)
    if spec.name is None and len(traces) == 1:
        # Single-core runs keep the trace's own name (pinned by the golden
        # tests).
        name: Optional[str] = traces[0].name
    else:
        name = spec.run_name()
    # "streaming" verifies with the cheap max-margin verifier (no violation
    # objects) — the audit campaigns' mode.
    verify = spec.verify_security
    return run_system(
        traces,
        mitigation_name=spec.mitigation.name,
        nrh=spec.mitigation.nrh,
        dram_config=dram_config,
        core_config=spec.platform.core,
        mitigation_overrides=spec.mitigation.overrides_dict(),
        verify_security=bool(verify),
        name=name,
        record_violations=verify != "streaming",
        policy=spec.platform.controller,
        sampled=spec.sampled if spec.fidelity == "sampled" else None,
    )


def clear_trace_cache() -> None:
    """Drop the per-process trace memo (tests and long-lived sessions)."""
    _TRACE_CACHE.clear()


__all__ = [
    "run_system",
    "execute_spec",
    "build_workload_traces",
    "clear_trace_cache",
]
