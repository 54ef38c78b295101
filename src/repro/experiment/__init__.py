"""repro.experiment: the declarative experiment API.

One typed front door for running simulations, shared by the CLI, the
examples, the benchmark harnesses and the campaign runner:

* :mod:`repro.experiment.spec` — frozen, hashable, JSON-round-trippable
  spec dataclasses (:class:`ExperimentSpec` = :class:`WorkloadSpec` x
  :class:`MitigationSpec` x :class:`PlatformSpec`) and grid expansion.
* :mod:`repro.experiment.registry` — decorator-based component registries:
  mechanisms (``@register_mitigation``) and workloads
  (``@register_workload`` / the synthetic suite) register themselves.
* :mod:`repro.experiment.session` — the :class:`Session` facade executing
  one spec, a list or a grid through the result store and the shared
  worker pool, returning versioned :class:`RunRecord` objects.
* :mod:`repro.experiment.execute` — the execution core every entry point
  shares (what makes a spec-driven run bit-identical to the same system
  assembled by hand).

Submodules are imported lazily: mechanism modules import
``repro.experiment.registry`` at class-definition time, and a heavy eager
package init here would turn that into an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "CampaignSpec": "repro.experiment.spec",
    "ExperimentSpec": "repro.experiment.spec",
    "WorkloadSpec": "repro.experiment.spec",
    "MitigationSpec": "repro.experiment.spec",
    "PlatformSpec": "repro.experiment.spec",
    "SampledConfig": "repro.experiment.spec",
    "SPEC_VERSION": "repro.experiment.spec",
    "expand_grid": "repro.experiment.spec",
    "Session": "repro.experiment.session",
    "RunRecord": "repro.experiment.session",
    "RECORD_VERSION": "repro.experiment.session",
    "register_mitigation": "repro.experiment.registry",
    "register_workload": "repro.experiment.registry",
    "register_suite_workload": "repro.experiment.registry",
    "mitigation_entry": "repro.experiment.registry",
    "mitigation_names": "repro.experiment.registry",
    "mitigation_entries": "repro.experiment.registry",
    "workload_entry": "repro.experiment.registry",
    "registered_workload_names": "repro.experiment.registry",
    "UnknownMitigationError": "repro.experiment.registry",
    "UnknownWorkloadError": "repro.experiment.registry",
    "MitigationEntry": "repro.experiment.registry",
    "WorkloadEntry": "repro.experiment.registry",
    "run_system": "repro.experiment.execute",
    "execute_spec": "repro.experiment.execute",
    "encode_value": "repro.experiment.codec",
    "decode_value": "repro.experiment.codec",
    "SpecCodecError": "repro.experiment.codec",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
