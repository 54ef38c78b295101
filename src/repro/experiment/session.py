"""The Session facade: execute experiment specs through the result store.

A :class:`Session` turns :class:`~repro.experiment.spec.ExperimentSpec`
objects into :class:`RunRecord` results.  One spec, a list of specs or a
whole grid expansion all go through :meth:`Session.run_many`, so every run
is memoized in one :class:`~repro.campaign.store.ResultStore` (keyed by the
spec's canonical-JSON content hash — the same database campaigns write)
and lists fan out across the shared warm worker pool
(:mod:`repro.sim.pool`).

    from repro.experiment import ExperimentSpec, MitigationSpec, Session, WorkloadSpec

    session = Session()
    record = session.run(
        ExperimentSpec(
            workload=WorkloadSpec(name="429.mcf", num_requests=8000),
            mitigation=MitigationSpec(name="comet", nrh=125),
        )
    )
    print(record.result.summary())
"""

from __future__ import annotations

import os
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING, Union

from repro.experiment.codec import decode_value, encode_value
from repro.experiment.execute import execute_spec
from repro.experiment.spec import (
    CampaignSpec,
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    SampledConfig,
    WorkloadSpec,
)
from repro.sim.pool import shared_pool
from repro.sim.system import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (audit imports spec)
    from repro.campaign.store import ResultStore
    from repro.security.audit import SecurityReport

#: Bump when the RunRecord schema changes incompatibly.
RECORD_VERSION = 1

#: Bump when simulation semantics change in a way that invalidates stored
#: results (scheduler behaviour, trace generation, statistics definitions);
#: :class:`~repro.campaign.store.ResultStore` records carry it and treat any
#: other value as a miss.
#: v2: channel-partitioned fabric.
#: v3: the declarative experiment API — results keyed by the sha256 of the
#: canonical spec JSON.
#: v4: the security-audit subsystem — :class:`SimulationResult` grew
#: ``security_violations``/``first_violation_cycle``.
#: v5: the pluggable controller-policy layer — the canonical spec JSON grew
#: ``platform.controller`` (old keys would alias new configurations).
#: v6: sampled-fidelity execution — the canonical spec JSON grew
#: ``fidelity``/``sampled`` (emitted only when non-default, so full-fidelity
#: hashes are unchanged).
#: v7: tWTR_S/L enforced against every earlier write to the rank (per bank
#: group), not only the last column command — some schedules, and with them
#: cycles and IPC, changed.
#: v8: the verifier counts every ACT before the row refreshes the same ACT
#: triggers (one ACT path for ``verify_security=True`` and ``"streaming"``);
#: a v7 ``verify_security=True`` PRAC record can read ``max_disturbance``
#: one lower than the same run now does.
CACHE_VERSION = 8

_DEFAULT_STORE = object()


@dataclass(frozen=True)
class RunRecord:
    """One executed experiment: the spec, its result and provenance.

    Serializes to JSON (``to_json``/``from_json``) so batch runs can be
    archived and post-processed without re-simulating.
    """

    spec: ExperimentSpec
    result: SimulationResult
    provenance: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "record_version": RECORD_VERSION,
            "spec": self.spec.to_dict(),
            "result": encode_value(self.result),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        version = data.get("record_version", RECORD_VERSION)
        if version > RECORD_VERSION:
            raise ValueError(
                f"record_version {version} is newer than this build supports "
                f"({RECORD_VERSION}); upgrade repro"
            )
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            result=decode_value(data["result"]),
            provenance=dict(data.get("provenance", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        import json

        return cls.from_dict(json.loads(text))


class Session:
    """Executes experiment specs through one result store, in parallel.

    Parameters
    ----------
    max_workers:
        Worker processes for lists/grids (``0``/``1`` runs inline;
        ``None`` uses ``os.cpu_count()``).
    store:
        The :class:`~repro.campaign.store.ResultStore` every run caches
        through, a path to open one at, or ``None`` to run uncached.  The
        default opens :func:`~repro.campaign.store.default_store_dir`
        (``$REPRO_CAMPAIGN_STORE`` or ``~/.cache/repro/campaigns``), so
        interactive runs, sweeps and campaigns all share one database.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        store: Union["ResultStore", str, Path, None] = _DEFAULT_STORE,
    ) -> None:
        # Imported here: repro.campaign.store imports this module.
        from repro.campaign.store import ResultStore, default_store_dir

        if store is _DEFAULT_STORE:
            store = default_store_dir()
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self._store = store
        self.max_workers = (os.cpu_count() or 1) if max_workers is None else max_workers

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, spec: ExperimentSpec) -> RunRecord:
        """Execute one spec (through the cache) and return its record."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[ExperimentSpec]) -> List[RunRecord]:
        """Execute a list of specs; records come back in input order.

        Store misses run inline when ``max_workers <= 1`` or only one spec
        misses, otherwise on the shared warm pool; each computed result is
        stored the moment it lands, so interrupting a long batch keeps the
        finished runs.
        """
        specs = list(specs)
        records: List[Optional[RunRecord]] = [None] * len(specs)
        pending: List[int] = []
        for index, spec in enumerate(specs):
            cached = self._store.get_result(spec) if self._store is not None else None
            if cached is not None:
                records[index] = self._record(spec, cached, from_cache=True)
            else:
                pending.append(index)

        def finish(index: int, result: SimulationResult) -> None:
            if self._store is not None:
                self._store.put_result(specs[index], result)
            records[index] = self._record(specs[index], result, from_cache=False)

        if self.max_workers <= 1 or len(pending) == 1:
            for index in pending:
                finish(index, execute_spec(specs[index]))
        elif pending:
            # The shared warm pool outlives this call on purpose:
            # consecutive batches reuse hot workers instead of paying spawn
            # plus simulator import per call.
            pool = shared_pool(min(self.max_workers, len(pending)))
            futures = {
                pool.submit(execute_spec, specs[index]): index for index in pending
            }
            for future in as_completed(futures):
                finish(futures[future], future.result())
        return list(records)  # type: ignore[arg-type]

    def compare(
        self,
        workload: Union[str, WorkloadSpec],
        mitigations: Sequence[str],
        nrh: int,
        platform: Optional[PlatformSpec] = None,
        verify_security: bool = True,
        fidelity: str = "full",
        sampled: Optional["SampledConfig"] = None,
    ) -> Dict[str, RunRecord]:
        """Run one workload under several mitigations plus the baseline.

        Returns a mapping mitigation name -> record; the unprotected
        baseline is always included under ``"none"`` so callers can
        normalize.  ``fidelity``/``sampled`` select the executor per
        :class:`~repro.experiment.spec.ExperimentSpec` (sampled runs cache
        under distinct keys from full-fidelity runs).
        """
        if isinstance(workload, str):
            workload = WorkloadSpec(name=workload)
        names = list(dict.fromkeys(["none", *mitigations]))
        specs = [
            ExperimentSpec(
                workload=workload,
                # The unprotected baseline is threshold-independent; pinning
                # it at nrh=1 gives it one cache entry shared across every
                # compared threshold (the expand_grid convention).
                mitigation=MitigationSpec(name=name, nrh=1 if name == "none" else nrh),
                platform=platform or PlatformSpec(),
                verify_security=verify_security and name != "none",
                fidelity=fidelity,
                sampled=sampled,
            )
            for name in names
        ]
        records = self.run_many(specs)
        return dict(zip(names, records))

    def audit(self, **kwargs) -> "SecurityReport":
        """Run a security-audit campaign through this session.

        Keyword arguments mirror :func:`repro.security.audit.run_audit`
        (``mitigations``, ``patterns``, ``nrhs``, ``num_requests``,
        ``channels``, ``seed``, ``platform``, ``include_baseline``); the
        campaign executes through this session's cache and worker pool and
        reduces to a :class:`~repro.security.audit.SecurityReport`.
        """
        from repro.security.audit import run_audit

        return run_audit(session=self, **kwargs)

    def campaign(
        self,
        campaign: "CampaignSpec",
        store: Optional[Any] = None,
        backend: Union[str, Any] = "memory",
        lease: float = 60.0,
        budget: Optional[int] = None,
        **runner_kwargs,
    ):
        """Run a persistent, resumable campaign through this session.

        ``campaign`` is a :class:`~repro.experiment.spec.CampaignSpec`;
        ``store`` a :class:`~repro.campaign.store.ResultStore` or path
        (defaults to this session's store, which must then be set);
        ``backend`` a queue backend name (``"memory"``, in-process, or
        ``"sqlite"``, at ``<store>/queue.sqlite``) or a
        :class:`~repro.campaign.queue.WorkQueue` instance.  Execution fans
        across this session's worker count and lands in the store;
        re-invoking with the same arguments resumes, recomputing nothing
        that already completed.
        Returns the final :class:`~repro.campaign.runner.CampaignStatus`.
        """
        from repro.campaign.runner import CampaignRunner

        store = store if store is not None else self._store
        if store is None:
            raise ValueError(
                "Session.campaign() needs a result store: pass store=... here "
                "or construct the Session with one"
            )
        runner = CampaignRunner(
            campaign,
            store=store,
            queue=backend,
            max_workers=self.max_workers,
            lease=lease,
            budget=budget,
            **runner_kwargs,
        )
        return runner.run()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional["ResultStore"]:
        """The result store spec runs cache through (``None``: uncached)."""
        return self._store

    @property
    def cache_hits(self) -> int:
        return self._store.hits if self._store is not None else 0

    @property
    def cache_misses(self) -> int:
        return self._store.misses if self._store is not None else 0

    def _record(
        self, spec: ExperimentSpec, result: SimulationResult, from_cache: bool
    ) -> RunRecord:
        from repro import __version__

        provenance = {
            "repro_version": __version__,
            "cache_version": CACHE_VERSION,
            "spec_hash": spec.content_hash(),
            "from_cache": from_cache,
        }
        return RunRecord(spec=spec, result=result, provenance=provenance)
