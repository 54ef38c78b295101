"""Component registries for the experiment API.

Mechanisms and workloads register *themselves* (the pluggable-component
pattern of crawl-frontera's backend/middleware registry): a mitigation class
carries a ``@register_mitigation("comet")`` decorator, a trace builder a
``@register_workload("attack_traditional", category="attack")`` decorator,
and the synthetic suite registers each of its :class:`WorkloadSpec` entries
when :mod:`repro.workloads.suite` is imported.  Everything that needs to
resolve a name — the CLI, the :class:`~repro.experiment.session.Session`
facade, :meth:`~repro.experiment.spec.MitigationSpec.build_instances` —
looks it up here, so there is exactly one table of record.

Registry entries carry construction metadata so call sites need no
special-casing:

* ``takes_nrh`` — whether the constructor takes the RowHammer threshold as
  its first argument (everything except the unprotected baseline).  Entries
  with ``takes_nrh=False`` are built with no arguments and ignore overrides,
  which is what the ``"none"`` baseline has always done.
* ``seedable`` — whether the constructor accepts a ``seed`` keyword
  (randomized mechanisms: PARA, BlockHammer).  The channel fabric gives
  channel ``c > 0`` seed ``c`` so per-channel instances draw independent
  streams; channel 0 keeps the default seed, preserving 1-channel
  bit-identity.  This metadata replaces the old ``inspect.signature`` probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

_BUILTIN_LOADED = False


def _ensure_builtin() -> None:
    """Import every module that registers built-in components.

    Registration happens at import time (decorators run when the defining
    module is executed), so lookups must make sure those modules were
    imported at least once.  Submodules are imported directly — not through
    their packages — so a lookup that happens *during* a partial package
    import still sees every built-in.
    """
    global _BUILTIN_LOADED
    if _BUILTIN_LOADED:
        return
    _BUILTIN_LOADED = True
    import repro.core.comet  # noqa: F401
    import repro.mitigations.blockhammer  # noqa: F401
    import repro.mitigations.graphene  # noqa: F401
    import repro.mitigations.hydra  # noqa: F401
    import repro.mitigations.none  # noqa: F401
    import repro.mitigations.para  # noqa: F401
    import repro.mitigations.prac  # noqa: F401
    import repro.mitigations.rega  # noqa: F401
    import repro.security.synth  # noqa: F401
    import repro.workloads.attacks  # noqa: F401
    import repro.workloads.suite  # noqa: F401


# --------------------------------------------------------------------------- #
# Mitigations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MitigationEntry:
    """One registered mitigation mechanism and its construction metadata."""

    name: str
    cls: type
    takes_nrh: bool = True
    seedable: bool = False

    def build(self, nrh: int, seed: Optional[int] = None, **overrides):
        """Construct one instance at a RowHammer threshold.

        ``seed`` is only forwarded to seedable mechanisms (and never
        overrides an explicit ``seed`` in ``overrides``); entries that do not
        take a threshold ignore ``nrh`` and every override.
        """
        if not self.takes_nrh:
            return self.cls()
        if self.seedable and seed is not None and "seed" not in overrides:
            overrides = {**overrides, "seed": seed}
        return self.cls(nrh, **overrides)


_MITIGATIONS: Dict[str, MitigationEntry] = {}


class UnknownMitigationError(ValueError):
    """A mitigation name that is not in the registry."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown mitigation {name!r}; known: {sorted(_MITIGATIONS)}"
        )
        self.name = name


def register_mitigation(
    name: str, *, takes_nrh: bool = True, seedable: bool = False
) -> Callable[[type], type]:
    """Class decorator registering a RowHammer mitigation under ``name``."""

    def decorator(cls: type) -> type:
        _MITIGATIONS[name] = MitigationEntry(
            name=name, cls=cls, takes_nrh=takes_nrh, seedable=seedable
        )
        return cls

    return decorator


def mitigation_entry(name: str) -> MitigationEntry:
    """Registry entry for ``name``; raises a helpful error when unknown."""
    _ensure_builtin()
    entry = _MITIGATIONS.get(name)
    if entry is None:
        raise UnknownMitigationError(name)
    return entry


def mitigation_names() -> List[str]:
    _ensure_builtin()
    return sorted(_MITIGATIONS)


def mitigation_entries() -> Dict[str, MitigationEntry]:
    _ensure_builtin()
    return dict(_MITIGATIONS)


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
#: A workload builder: ``fn(num_requests, dram_config, seed, **params)`` -> Trace.
WorkloadBuilder = Callable[..., object]


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload (benign suite entry or attack generator)."""

    name: str
    category: str
    builder: WorkloadBuilder = field(repr=False)
    #: The synthetic :class:`~repro.workloads.synthetic.WorkloadSpec` behind a
    #: suite entry (``None`` for attack generators and custom builders).
    synthetic_spec: Optional[object] = field(default=None, repr=False)

    def build(self, num_requests: int, dram_config=None, seed: int = 0, **params):
        return self.builder(
            num_requests=num_requests, dram_config=dram_config, seed=seed, **params
        )


_WORKLOADS: Dict[str, WorkloadEntry] = {}


class UnknownWorkloadError(KeyError):
    """A workload name that is not in the registry."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown workload {name!r}; known workloads: {sorted(_WORKLOADS)}"
        )
        self.name = name

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message flat
        return self.args[0]


def register_workload(
    name: str, *, category: str = "custom"
) -> Callable[[WorkloadBuilder], WorkloadBuilder]:
    """Decorator registering a trace-builder callable under ``name``.

    The builder is called as ``fn(num_requests=..., dram_config=...,
    seed=..., **params)`` and must return a :class:`~repro.cpu.trace.Trace`.
    """

    def decorator(fn: WorkloadBuilder) -> WorkloadBuilder:
        _WORKLOADS[name] = WorkloadEntry(name=name, category=category, builder=fn)
        return fn

    return decorator


def register_suite_workload(spec) -> None:
    """Register one synthetic-suite :class:`WorkloadSpec` (non-decorator form)."""
    from repro.workloads.synthetic import SyntheticWorkloadGenerator

    def builder(num_requests, dram_config=None, seed=0, **params):
        if params:
            raise TypeError(
                f"suite workload {spec.name!r} takes no extra parameters, "
                f"got {sorted(params)}"
            )
        generator = SyntheticWorkloadGenerator(spec, dram_config=dram_config, seed=seed)
        return generator.generate(num_requests)

    _WORKLOADS[spec.name] = WorkloadEntry(
        name=spec.name, category=spec.category, builder=builder, synthetic_spec=spec
    )


def workload_entry(name: str) -> WorkloadEntry:
    """Registry entry for ``name``; raises a helpful error when unknown."""
    _ensure_builtin()
    entry = _WORKLOADS.get(name)
    if entry is None:
        raise UnknownWorkloadError(name)
    return entry


def registered_workload_names(category: Optional[str] = None) -> List[str]:
    _ensure_builtin()
    if category is None:
        return sorted(_WORKLOADS)
    return sorted(n for n, e in _WORKLOADS.items() if e.category == category)
