"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the one typed description of a simulator run
that every entry point shares — the :class:`~repro.experiment.session.Session`
facade, the CLI (``repro run --spec``), the campaign runner and the
benchmark harnesses.  It composes three sub-specs:

* :class:`WorkloadSpec` — *what runs*: a registered workload name (benign
  suite entry or attack generator) plus trace length, core count, seed and
  builder parameters; or a heterogeneous ``mix`` of sub-workloads (one per
  core), the Figure 16 benign+attacker pattern.
* :class:`MitigationSpec` — *what defends*: a registered mechanism name, the
  RowHammer threshold and constructor overrides (e.g. a
  :class:`~repro.core.config.CoMeTConfig` for the sensitivity sweeps).
* :class:`PlatformSpec` — *what it runs on*: the scaled DRAM geometry,
  channel count, refresh-window scale, core model and the
  memory-controller policy triple
  (:class:`~repro.controller.policies.ControllerPolicySpec`).

Specs are frozen, hashable and JSON-round-trippable; ``canonical_json()``
(sorted keys, compact separators) is the content-hash material used as the
result-store key, so two specs describe the same experiment if and only if
their hashes match.  Unknown workload/mitigation names are rejected at
construction time with an error listing every registered name.
"""

from __future__ import annotations

import collections.abc
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.controller.policies import ControllerPolicySpec, normalize_policy
from repro.cpu.core import CoreConfig
from repro.dram.config import DRAMConfig, small_test_config
from repro.experiment.codec import SpecCodecError, decode_value, encode_value
from repro.experiment.registry import mitigation_entry, workload_entry

#: Bump when the spec schema changes incompatibly.
SPEC_VERSION = 1

_Pairs = Tuple[Tuple[str, Any], ...]


def _freeze(value: Any) -> Any:
    """Convert a value into an immutable (hashable) equivalent."""
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _as_pairs(value: Union[None, Mapping[str, Any], Sequence] ) -> _Pairs:
    """Normalize a mapping (or pair sequence) to sorted, frozen key/value pairs."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = [(k, v) for k, v in value]
    return tuple(sorted((str(key), _freeze(val)) for key, val in items))


def _pairs_to_dict(pairs: _Pairs) -> Dict[str, Any]:
    return {key: value for key, value in pairs}


def _mapping(data: Any, what: str) -> Mapping[str, Any]:
    """``data`` when it is a JSON object; a :class:`SpecCodecError` otherwise.

    Every store read decodes a spec through here, so a decoded JSON object
    (a ``dict``) passes on one type test, and the ABC check — not
    ``typing.Mapping``'s much slower Python-level one — covers the rest.
    """
    if type(data) is not dict and not isinstance(data, collections.abc.Mapping):
        raise SpecCodecError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    return data


# --------------------------------------------------------------------------- #
# Mitigation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MitigationSpec:
    """A mitigation mechanism at a RowHammer threshold, with overrides."""

    name: str
    nrh: int = 125
    #: Constructor overrides, normalized to sorted ``(key, value)`` pairs so
    #: the spec stays hashable; pass a plain dict, it is converted.
    overrides: _Pairs = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", _as_pairs(self.overrides))
        if self.nrh <= 0:
            raise ValueError("nrh must be positive")
        mitigation_entry(self.name)  # raises listing known names when unknown

    def overrides_dict(self) -> Dict[str, Any]:
        return _pairs_to_dict(self.overrides)

    def build_instances(self, channels: int) -> List:
        """One independently-constructed instance per memory channel.

        Channel ``c > 0`` of a seedable mechanism gets ``seed=c`` so channels
        draw independent random streams; channel 0 keeps the default seed,
        preserving 1-channel bit-identity.
        """
        entry = mitigation_entry(self.name)
        overrides = self.overrides_dict()
        return [
            entry.build(self.nrh, seed=channel if channel > 0 else None, **overrides)
            for channel in range(channels)
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "nrh": self.nrh,
            "overrides": {k: encode_value(v) for k, v in self.overrides},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MitigationSpec":
        data = _mapping(data, "mitigation")
        overrides = _mapping(data.get("overrides", {}), "mitigation.overrides")
        return cls(
            name=data["name"],
            nrh=data.get("nrh", 125),
            overrides={k: decode_value(v) for k, v in overrides.items()},
        )


# --------------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkloadSpec:
    """A reference to a registered workload (or an inline mix of them).

    ``name`` resolves through the workload registry: the 61-entry benign
    suite, the multichannel additions and the attack generators all live
    there.  ``params`` are forwarded to the registered builder (attack knobs
    such as ``distinct_rows`` or ``channel``).  ``num_cores > 1`` builds a
    homogeneous multi-programmed mix (one seed-shifted copy per core, the
    paper's 8-core pattern); ``mix`` builds a heterogeneous one (each member
    contributes its own traces, e.g. one benign core plus one attacker core).
    """

    name: str
    num_requests: int = 8000
    num_cores: int = 1
    seed: int = 0
    params: _Pairs = ()
    mix: Tuple["WorkloadSpec", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _as_pairs(self.params))
        object.__setattr__(self, "mix", tuple(self.mix))
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if not self.mix:
            workload_entry(self.name)  # raises listing known names when unknown

    def params_dict(self) -> Dict[str, Any]:
        return _pairs_to_dict(self.params)

    def build_traces(self, dram_config: Optional[DRAMConfig] = None) -> List:
        """Build the trace list (one per core) this spec describes."""
        if self.mix:
            traces: List = []
            for member in self.mix:
                traces.extend(member.build_traces(dram_config))
            return traces
        entry = workload_entry(self.name)
        params = self.params_dict()
        return [
            entry.build(
                num_requests=self.num_requests,
                dram_config=dram_config,
                seed=self.seed + core,
                **params,
            )
            for core in range(self.num_cores)
        ]

    @property
    def total_cores(self) -> int:
        if self.mix:
            return sum(member.total_cores for member in self.mix)
        return self.num_cores

    def default_run_name(self) -> str:
        if self.mix:
            return self.name or "+".join(m.default_run_name() for m in self.mix)
        if self.num_cores > 1:
            return f"{self.name}_x{self.num_cores}"
        return self.name

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "num_requests": self.num_requests,
            "num_cores": self.num_cores,
            "seed": self.seed,
            "params": {k: encode_value(v) for k, v in self.params},
        }
        if self.mix:
            data["mix"] = [member.to_dict() for member in self.mix]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        data = _mapping(data, "workload")
        params = _mapping(data.get("params", {}), "workload.params")
        return cls(
            name=data.get("name", ""),
            num_requests=data.get("num_requests", 8000),
            num_cores=data.get("num_cores", 1),
            seed=data.get("seed", 0),
            params={k: decode_value(v) for k, v in params.items()},
            mix=tuple(cls.from_dict(member) for member in data.get("mix", ())),
        )


# --------------------------------------------------------------------------- #
# Platform
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlatformSpec:
    """The simulated machine: scaled DRAM geometry, channels, core model.

    The scalar knobs mirror the scaled experiment configuration every
    entry point has always used (see :func:`default_experiment_config`); a full
    :class:`~repro.dram.config.DRAMConfig` in ``dram`` overrides them.
    ``channels`` defaults to *inherit* (``None``): the channel count of
    ``dram`` when one is given, otherwise 1.  An explicit ``channels``
    always wins — that is the grid's channel-scaling axis — re-channeling a
    full ``dram`` override if the two disagree.
    """

    rows_per_bank: int = 4096
    refresh_window_scale: float = 1.0 / 256.0
    #: Memory channels; ``None`` inherits from ``dram`` (or 1 without one).
    channels: Optional[int] = None
    #: Memory-controller policy triple (scheduler / row policy / refresh
    #: policy); ``None`` selects the default (fr_fcfs, open_page, all_bank).
    #: An explicit default is normalized to ``None`` so the two spellings
    #: hash — and therefore cache — identically.
    controller: Optional[ControllerPolicySpec] = None
    #: Full DRAM configuration override (wins over the scalar knobs).
    dram: Optional[DRAMConfig] = None
    #: Core model override (defaults to the paper's Table 2 core).
    core: Optional[CoreConfig] = None

    def __post_init__(self) -> None:
        if self.channels is not None and self.channels < 1:
            raise ValueError("channels must be >= 1")
        object.__setattr__(self, "controller", normalize_policy(self.controller))

    @property
    def channel_count(self) -> int:
        """The resolved memory-channel count this platform simulates."""
        if self.channels is not None:
            return self.channels
        if self.dram is not None:
            return self.dram.organization.channels
        return 1

    def dram_config(self) -> DRAMConfig:
        channels = self.channel_count
        if self.dram is not None:
            if self.dram.organization.channels != channels:
                return replace(
                    self.dram,
                    organization=replace(self.dram.organization, channels=channels),
                )
            return self.dram
        return small_test_config(
            rows_per_bank=self.rows_per_bank,
            banks_per_bankgroup=2,
            bankgroups_per_rank=2,
            ranks_per_channel=2,
            refresh_window_scale=self.refresh_window_scale,
            channels=channels,
        )

    def core_config(self) -> CoreConfig:
        return self.core if self.core is not None else CoreConfig()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rows_per_bank": self.rows_per_bank,
            "refresh_window_scale": self.refresh_window_scale,
            "channels": self.channels,
            "controller": (
                self.controller.to_dict() if self.controller is not None else None
            ),
            "dram": encode_value(self.dram) if self.dram is not None else None,
            "core": encode_value(self.core) if self.core is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformSpec":
        data = _mapping(data, "platform")
        controller = data.get("controller")
        return cls(
            rows_per_bank=data.get("rows_per_bank", 4096),
            refresh_window_scale=data.get("refresh_window_scale", 1.0 / 256.0),
            channels=data.get("channels"),
            controller=(
                ControllerPolicySpec.from_dict(
                    _mapping(controller, "platform.controller")
                )
                if controller is not None
                else None
            ),
            dram=decode_value(data["dram"]) if data.get("dram") is not None else None,
            core=decode_value(data["core"]) if data.get("core") is not None else None,
        )


def default_experiment_config(
    rows_per_bank: int = 4096,
    refresh_window_scale: float = 1.0 / 256.0,
    channels: int = 1,
) -> DRAMConfig:
    """The scaled DRAM configuration used by examples and benches.

    Two ranks with four banks each, 4K rows per bank, and a refresh window of
    ~300K DRAM cycles.  The scale is chosen so that, for the synthetic
    workload suite, the number of activations a hot row receives per
    counter-reset period relative to the preventive-refresh thresholds is in
    the same regime as the paper's full-length simulations (hot rows cross
    NPR at NRH=125 but not at NRH=1K); see EXPERIMENTS.md.  This is exactly
    what :meth:`PlatformSpec.dram_config` builds.
    """
    return PlatformSpec(
        rows_per_bank=rows_per_bank,
        refresh_window_scale=refresh_window_scale,
        channels=channels,
    ).dram_config()


# --------------------------------------------------------------------------- #
# Sampled fidelity
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SampledConfig:
    """Knobs for the sampled-fidelity executor (``fidelity="sampled"``).

    All three knobs are measured in *trace entries per core* (requests), the
    unit the fast-forward executor budgets detailed windows in:

    * ``warmup`` — entries simulated in full detail at the start of the run
      (cold caches, empty queues and unwarmed sketches would otherwise bias
      the first sampled window);
    * ``interval`` — the sampling period: out of every ``interval`` entries,
      ``detailed_window`` run on the event kernel and the remainder are
      fast-forwarded functionally;
    * ``detailed_window`` — detailed entries per period.

    Security state is *never* sampled: the fast-forward path replays every
    activation and every periodic refresh through the DRAM observer lists,
    so mitigations and the security verifier see the exact event stream in
    both modes — only command timing is approximated between windows.
    """

    interval: int = 2000
    detailed_window: int = 200
    warmup: int = 200

    def __post_init__(self) -> None:
        if self.detailed_window < 1:
            raise ValueError("detailed_window must be >= 1")
        if self.interval <= self.detailed_window:
            raise ValueError(
                "interval must exceed detailed_window "
                f"(got interval={self.interval}, detailed_window={self.detailed_window})"
            )
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interval": self.interval,
            "detailed_window": self.detailed_window,
            "warmup": self.warmup,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SampledConfig":
        data = _mapping(data, "sampled")
        return cls(
            interval=data.get("interval", 2000),
            detailed_window=data.get("detailed_window", 200),
            warmup=data.get("warmup", 200),
        )


# --------------------------------------------------------------------------- #
# The composed experiment
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-described simulator run: workload x mitigation x platform.

    ``verify_security`` is ``True``/``False`` or the string ``"streaming"``.
    ``"streaming"`` is the same run as ``True`` (one verifier, one ACT
    path); security-audit campaigns write it, and it stays accepted because
    it is part of their canonical JSON, so of their spec hashes and
    result-store keys.

    ``fidelity`` selects the executor: ``"full"`` (default) simulates every
    entry on the event kernel and stays bit-identical to the pre-sampling
    code; ``"sampled"`` fast-forwards between detailed windows under the
    :class:`SampledConfig` knobs (see EXPERIMENTS.md for the error bounds).
    A full-fidelity spec serializes without the fidelity keys, so its
    canonical JSON — and therefore its content hash and result-store key —
    is unchanged from earlier spec versions.
    """

    workload: WorkloadSpec
    mitigation: MitigationSpec
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    verify_security: Union[bool, str] = True
    #: Optional display name for the run (defaults to the workload's name).
    name: Optional[str] = None
    #: ``"full"`` or ``"sampled"`` (fast-forward between detailed windows).
    fidelity: str = "full"
    #: Sampling knobs; only meaningful (and only serialized) when
    #: ``fidelity="sampled"``.  ``None`` under sampled fidelity selects the
    #: :class:`SampledConfig` defaults.
    sampled: Optional[SampledConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.verify_security, bool) and self.verify_security != "streaming":
            raise ValueError(
                "verify_security must be True, False or 'streaming', "
                f"got {self.verify_security!r}"
            )
        if self.fidelity not in ("full", "sampled"):
            raise ValueError(
                f"fidelity must be 'full' or 'sampled', got {self.fidelity!r}"
            )
        if self.fidelity == "sampled":
            if self.sampled is None:
                object.__setattr__(self, "sampled", SampledConfig())
        elif self.sampled is not None:
            # Normalized away so the two spellings of a full-fidelity spec
            # hash (and cache) identically.
            object.__setattr__(self, "sampled", None)

    def run_name(self) -> str:
        return self.name or self.workload.default_run_name()

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "verify_security": self.verify_security,
            "workload": self.workload.to_dict(),
            "mitigation": self.mitigation.to_dict(),
            "platform": self.platform.to_dict(),
        }
        if self.fidelity != "full":
            data["fidelity"] = self.fidelity
            data["sampled"] = self.sampled.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        data = _mapping(data, "experiment spec")
        version = data.get("spec_version", SPEC_VERSION)
        if version > SPEC_VERSION:
            raise ValueError(
                f"spec_version {version} is newer than this build supports "
                f"({SPEC_VERSION}); upgrade repro"
            )
        sampled = data.get("sampled")
        return cls(
            workload=WorkloadSpec.from_dict(data["workload"]),
            mitigation=MitigationSpec.from_dict(data["mitigation"]),
            platform=PlatformSpec.from_dict(data.get("platform", {})),
            verify_security=data.get("verify_security", True),
            name=data.get("name"),
            fidelity=data.get("fidelity", "full"),
            sampled=SampledConfig.from_dict(sampled) if sampled is not None else None,
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def canonical_json(self) -> str:
        """Deterministic compact JSON: the content-hash / cache-key material."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """sha256 over the canonical JSON; equal iff the experiments match."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Campaigns
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign: a grid of experiments plus priority and budget.

    Where an :class:`ExperimentSpec` describes one run, a ``CampaignSpec``
    describes a whole persistent evaluation — the grid the
    :class:`~repro.campaign.runner.CampaignRunner` expands into work-queue
    items and drains into a :class:`~repro.campaign.store.ResultStore`.
    Like every spec it is frozen, hashable and JSON-round-trippable;
    ``campaign_id()`` (the sha256 of the canonical JSON) names the campaign
    in checkpoints, provenance and the serve API.

    ``priority`` is the base queue priority of every cell; ``priorities``
    maps mitigation names to overrides (higher drains first).  Baseline
    (``"none"``) cells always outrank everything else — every normalized
    metric needs them, so they are computed first.  ``budget`` caps how
    many cells one ``run()`` invocation may *execute* (completed cells cost
    nothing); ``None`` is unlimited.

    ``audit=True`` switches the grid to a *security-audit* campaign:
    expansion goes through :func:`repro.security.audit.build_audit_grid`
    instead of :func:`expand_grid`, so every cell runs with the security
    verifier attached, ``mitigations`` may include
    refresh-policy mechanisms (``"rfm"``), and ``seed`` seeds the
    adversarial pattern synthesis.  Audit grids are single-core; both new
    fields serialize only when non-default, so every pre-existing
    campaign's ``campaign_id()`` is unchanged.
    """

    name: str
    workloads: Tuple[str, ...]
    mitigations: Tuple[str, ...]
    nrhs: Tuple[int, ...]
    num_requests: int = 8000
    num_cores: int = 1
    channels: Tuple[int, ...] = (1,)
    include_baseline: bool = True
    priority: int = 0
    #: Per-mitigation priority overrides, e.g. ``{"comet": 10}``.
    priorities: _Pairs = ()
    #: Maximum cells executed per ``run()`` invocation (``None``: unlimited).
    budget: Optional[int] = None
    #: Expand as a streaming-verified security-audit grid (see class doc).
    audit: bool = False
    #: Workload seed for audit grids (ignored by performance grids).
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "mitigations", tuple(self.mitigations))
        object.__setattr__(self, "nrhs", tuple(int(n) for n in self.nrhs))
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        object.__setattr__(self, "priorities", _as_pairs(self.priorities))
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.workloads or not self.mitigations or not self.nrhs:
            raise ValueError("campaign grid axes must be non-empty")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0 (None for unlimited)")

    def priorities_dict(self) -> Dict[str, int]:
        return _pairs_to_dict(self.priorities)

    def cells(self) -> List[Tuple["ExperimentSpec", int]]:
        """The campaign's grid: ``(spec, queue priority)`` per cell.

        Expansion goes through :func:`expand_grid`, so the cell set — and
        every cell's content hash — is identical to what a one-shot sweep
        of the same axes would produce; campaigns and sweeps share cache
        entries in a shared store.
        """
        priorities = self.priorities_dict()
        baseline_priority = (
            max([self.priority, *priorities.values()]) + 1
            if self.include_baseline
            else self.priority
        )
        if self.audit:
            return self._audit_cells(priorities, baseline_priority)
        specs = expand_grid(
            workloads=list(self.workloads),
            mitigations=list(self.mitigations),
            nrhs=list(self.nrhs),
            num_requests=self.num_requests,
            num_cores=self.num_cores,
            include_baseline=self.include_baseline,
            channels=list(self.channels),
        )
        cells = []
        for spec in specs:
            if spec.mitigation.name == "none":
                cells.append((spec, baseline_priority))
            else:
                cells.append(
                    (spec, priorities.get(spec.mitigation.name, self.priority))
                )
        return cells

    def _audit_cells(
        self, priorities: Dict[str, int], baseline_priority: int
    ) -> List[Tuple["ExperimentSpec", int]]:
        """Audit-mode expansion: the security grid, one slice per channel
        count.  Priorities key on the *mechanism* label (``mechanism_of``),
        so refresh-policy rows (``"rfm"``) are prioritized under their own
        name even though they run the ``"none"`` mitigation."""
        # Lazy: repro.security.audit imports this module at its top level.
        from repro.security.audit import build_audit_grid, mechanism_of

        specs: List[ExperimentSpec] = []
        for num_channels in self.channels:
            specs.extend(
                build_audit_grid(
                    mitigations=list(self.mitigations),
                    patterns=list(self.workloads),
                    nrhs=list(self.nrhs),
                    num_requests=self.num_requests,
                    channels=num_channels,
                    seed=self.seed,
                    include_baseline=self.include_baseline,
                )
            )
        cells = []
        for spec in specs:
            mechanism = mechanism_of(spec)
            if mechanism == "none":
                cells.append((spec, baseline_priority))
            else:
                cells.append((spec, priorities.get(mechanism, self.priority)))
        return cells

    def total_cells(self) -> int:
        return len(self.cells())

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "workloads": list(self.workloads),
            "mitigations": list(self.mitigations),
            "nrhs": list(self.nrhs),
            "num_requests": self.num_requests,
            "num_cores": self.num_cores,
            "channels": list(self.channels),
            "include_baseline": self.include_baseline,
            "priority": self.priority,
            "priorities": {k: encode_value(v) for k, v in self.priorities},
            "budget": self.budget,
        }
        # Emitted only when non-default so the canonical JSON — and every
        # pre-existing campaign_id — is byte-identical to older builds.
        if self.audit:
            data["audit"] = True
        if self.seed:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        data = _mapping(data, "campaign spec")
        version = data.get("spec_version", SPEC_VERSION)
        if version > SPEC_VERSION:
            raise ValueError(
                f"spec_version {version} is newer than this build supports "
                f"({SPEC_VERSION}); upgrade repro"
            )
        return cls(
            name=data["name"],
            workloads=tuple(data["workloads"]),
            mitigations=tuple(data["mitigations"]),
            nrhs=tuple(data["nrhs"]),
            num_requests=data.get("num_requests", 8000),
            num_cores=data.get("num_cores", 1),
            channels=tuple(data.get("channels", (1,))),
            include_baseline=data.get("include_baseline", True),
            priority=data.get("priority", 0),
            priorities={
                k: decode_value(v)
                for k, v in _mapping(data.get("priorities", {}), "priorities").items()
            },
            budget=data.get("budget"),
            audit=data.get("audit", False),
            seed=data.get("seed", 0),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def campaign_id(self) -> str:
        """sha256 over the canonical JSON; names the campaign durably."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Grid expansion
# --------------------------------------------------------------------------- #
def expand_grid(
    workloads: Sequence[str],
    mitigations: Sequence[str],
    nrhs: Sequence[int],
    num_requests: int = 8000,
    num_cores: int = 1,
    include_baseline: bool = True,
    mitigation_overrides: Optional[Mapping[str, Any]] = None,
    channels: Sequence[int] = (1,),
    platform: Optional[PlatformSpec] = None,
    policies: Sequence[Optional[ControllerPolicySpec]] = (None,),
) -> List[ExperimentSpec]:
    """The Figures 6-9 pattern: workload x mitigation x NRH (x channels
    x controller policies).

    The unprotected baseline (needed by every normalized metric) is
    threshold-independent, so ``include_baseline`` adds a single ``"none"``
    spec per workload per channel count *per policy* (normalized IPC is only
    meaningful against a baseline running the same controller policies),
    pinned at ``nrh=1`` so its cache key is the same regardless of the swept
    threshold list.  ``policies`` is the controller-policy axis; ``None``
    entries mean the platform's own policy (the default triple when the
    platform carries none).
    """
    base_platform = platform or PlatformSpec()
    specs: List[ExperimentSpec] = []
    for num_channels in channels:
        for policy in policies:
            plat = replace(base_platform, channels=num_channels)
            if policy is not None:
                plat = replace(plat, controller=policy)
            for workload in workloads:
                wspec = WorkloadSpec(
                    name=workload, num_requests=num_requests, num_cores=num_cores
                )
                if include_baseline:
                    specs.append(
                        ExperimentSpec(
                            workload=wspec,
                            mitigation=MitigationSpec(name="none", nrh=1),
                            platform=plat,
                            verify_security=False,
                        )
                    )
                for mitigation in mitigations:
                    if mitigation == "none":
                        continue
                    for nrh in nrhs:
                        specs.append(
                            ExperimentSpec(
                                workload=wspec,
                                mitigation=MitigationSpec(
                                    name=mitigation,
                                    nrh=nrh,
                                    overrides=mitigation_overrides or (),
                                ),
                                platform=plat,
                            )
                        )
    return specs
