"""The benchmark's workloads.

Each workload derives its inputs from the run's seed, knows how to set them
up, runs one timed operation on an input, and checks the operation's output.
Every workload then publishes its results to a ``ResultStore`` and revisits
them (resume passes plus a ``repro serve`` burst), so every end-to-end metric
has a value on every workload.

Why these four (see README.md for the per-layer predictions):

* ``hammer_comet`` -- every request is an ACT and ~5 % of commands are
  preventive refreshes: the mitigation, sketch and verifier do the most work
  they ever do while the controller serves one hot bank.
* ``mix4_2ch`` -- a heterogeneous 4-core benign mix on 2 channels: row hits
  and misses, no preventive refreshes; the fused select/issue path, the
  kernel's idle-channel skip and the CPU model dominate.
* ``mix4_2ch_bliss`` -- the same traffic under BLISS, which takes the generic
  select path; a gain on the fused path that costs the generic one shows here.
* ``campaign_audit`` -- a seeded audit campaign through a sqlite queue and an
  inline worker into a fresh store: the only workload whose timed operation
  runs ``repro.campaign``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.campaign.backends.sqlite import SqliteQueue
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.controller.policies import ControllerPolicySpec
from repro.experiment import execute
from repro.experiment.spec import (
    CampaignSpec,
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    WorkloadSpec,
)
from repro.sim.system import SimulationResult, System, SystemConfig

#: Distinct inputs per simulator run.  Operations cycle over them, so every
#: input runs at least twice (the same-seed determinism check) and the
#: deterministic metrics average over several traces instead of one.
SIM_INPUTS = 4
NRH = 125
MIX_MEMBERS = ("429.mcf", "462.libquantum", "473.astar", "bfs_dblp")
AUDIT_MECHANISMS = ("blockhammer", "comet", "graphene", "hydra", "para", "prac", "rega")
AUDIT_PATTERNS = ("synth_uniform", "synth_blacksmith")
AUDIT_NRHS = (125, 250)


def _figures(runs: List[Tuple[ExperimentSpec, SimulationResult]]) -> Dict[str, float]:
    """Simulated figures over runs: totals, plus IPC (summed over cores) as a
    mean over the runs and ``max_disturbance / NRH`` as a mean over the
    protected runs."""
    results = [result for _, result in runs]
    margins = [
        result.max_disturbance / spec.mitigation.nrh
        for spec, result in runs
        if spec.mitigation.name != "none"
    ]
    return {
        "cycles": sum(r.cycles for r in results),
        "steps": sum(r.steps for r in results),
        "ipc": sum(sum(r.per_core_ipc) for r in results) / len(results),
        "margin": sum(margins) / len(margins),
        "acts": sum(r.dram_stats["acts"] for r in results),
        "columns": sum(r.dram_stats["reads"] + r.dram_stats["writes"] for r in results),
        "refreshes": sum(r.dram_stats["refreshes"] for r in results),
        "preventive": sum(r.preventive_refreshes for r in results),
    }


class Workload:
    """Inputs, set-up, one timed operation and its checks."""

    name = ""
    n_inputs = 1

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Untimed work before an operation."""

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> Optional[str]:
        """``None`` when the output is correct, else what is wrong."""
        raise NotImplementedError

    def fingerprint(self, output):
        """The part of an output two runs of the same input must agree on."""
        return output

    def sim_figures(self, index: int, output) -> Dict[str, float]:
        """Simulated figures of one operation (see :func:`_figures`)."""
        raise NotImplementedError

    def cells(self, output) -> int:
        """Experiments one operation completes."""
        return 1

    def publish(self, outputs: Dict[int, object]) -> ResultStore:
        """A store holding this run's results, for the resume and serve tail."""
        raise NotImplementedError

    def resume(self, store: ResultStore) -> Optional[str]:
        """One resume pass over the published store; ``None`` when correct."""
        raise NotImplementedError

    def serve_paths(self, store: ResultStore) -> List[Tuple[str, dict]]:
        """``(path, expected JSON body)`` pairs, one serve round: every
        record, plus one grid query per eight records (at least one), so
        that ``serve_p95_ms`` falls inside the query population rather than
        on the edge between the two kinds of request."""
        records = {
            spec_hash: store.get_record(spec_hash)
            for spec_hash in sorted(store.iter_spec_hashes())
        }
        paths = [
            (f"/records/{spec_hash}", {"spec_hash": spec_hash, "record": record.to_dict()})
            for spec_hash, record in records.items()
        ]
        mitigations = sorted({r.spec.mitigation.name for r in records.values()})
        for mitigation in mitigations[: max(1, round(len(records) / 8))]:
            rows = store.query(mitigation=mitigation)
            paths.append(
                (f"/query?mitigation={mitigation}", {"count": len(rows), "results": rows})
            )
        # JSON round trip: tuples become lists, as in the served body.
        return [(path, json.loads(json.dumps(body))) for path, body in paths]


# --------------------------------------------------------------------------- #
# Simulator workloads
# --------------------------------------------------------------------------- #
class SimWorkload(Workload):
    """One ``execute_spec`` per operation, cycling over ``SIM_INPUTS`` specs."""

    n_inputs = SIM_INPUTS

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        self.specs = [self.make_spec(seed * SIM_INPUTS + k) for k in range(SIM_INPUTS)]
        self.expected_instructions: List[List[int]] = []

    def make_spec(self, input_seed: int) -> ExperimentSpec:
        raise NotImplementedError

    def setup(self) -> None:
        """Trace synthesis (warming the per-process trace memo) and System
        construction for every input."""
        execute.clear_trace_cache()
        expected = []
        for spec in self.specs:
            dram_config = spec.platform.dram_config()
            traces = execute.build_workload_traces(spec.workload, dram_config)
            System(
                list(traces),
                mitigation=spec.mitigation.build_instances(
                    dram_config.organization.channels
                ),
                config=SystemConfig(
                    dram=dram_config,
                    policy=spec.platform.controller,
                    core=spec.platform.core_config(),
                    nrh_for_verification=spec.mitigation.nrh,
                ),
            )
            expected.append([trace.total_instructions for trace in traces])
        self.expected_instructions = expected

    def op(self, index: int) -> SimulationResult:
        # Looked up on the module so the traced run's wrap is seen.
        return execute.execute_spec(self.specs[index])

    def check(self, index: int, result: SimulationResult) -> Optional[str]:
        expected = self.expected_instructions[index]
        if result.per_core_instructions != expected:
            return (
                f"cores retired {result.per_core_instructions} instructions, "
                f"traces hold {expected}"
            )
        if not result.security_ok or result.security_violations:
            return (
                f"comet@{NRH} reported insecure: max disturbance "
                f"{result.max_disturbance}, {result.security_violations} violations"
            )
        return None

    def sim_figures(self, index: int, result: SimulationResult) -> Dict[str, float]:
        return _figures([(self.specs[index], result)])

    def publish(self, outputs: Dict[int, SimulationResult]) -> ResultStore:
        store = ResultStore(self.scratch / "published")
        for index, result in sorted(outputs.items()):
            store.put_result(self.specs[index], result)
        self._published = dict(outputs)
        return store

    def resume(self, store: ResultStore) -> Optional[str]:
        for index, result in sorted(self._published.items()):
            record = store.get_record(self.specs[index])
            if record is None:
                return f"published input {index} is missing from the store"
            if record.result != result:
                return f"published input {index} reads back a different result"
        return None


class HammerComet(SimWorkload):
    name = "hammer_comet"

    def make_spec(self, input_seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            workload=WorkloadSpec(
                name="attack_traditional",
                num_requests=600 if self.tiny else 8000,
                seed=input_seed,
            ),
            mitigation=MitigationSpec(name="comet", nrh=NRH),
        )


class Mix4(SimWorkload):
    name = "mix4_2ch"
    scheduler = "fr_fcfs"

    def make_spec(self, input_seed: int) -> ExperimentSpec:
        members = tuple(
            WorkloadSpec(
                name=member, num_requests=150 if self.tiny else 1500, seed=input_seed
            )
            for member in MIX_MEMBERS
        )
        return ExperimentSpec(
            workload=WorkloadSpec(name=self.name, mix=members),
            mitigation=MitigationSpec(name="comet", nrh=NRH),
            platform=PlatformSpec(
                channels=2, controller=ControllerPolicySpec(scheduler=self.scheduler)
            ),
        )


class Mix4Bliss(Mix4):
    name = "mix4_2ch_bliss"
    scheduler = "bliss"


# --------------------------------------------------------------------------- #
# Campaign workload
# --------------------------------------------------------------------------- #
class CampaignAudit(Workload):
    """A cold audit campaign into a fresh store per operation.

    Operations alternate between two seeded campaigns, so the deterministic
    metrics average over both instead of resting on one set of patterns.
    """

    name = "campaign_audit"
    n_inputs = 2

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        self.campaigns = [
            CampaignSpec(
                name=f"perfbench-audit-{campaign_seed}",
                workloads=AUDIT_PATTERNS,
                mitigations=("comet", "para") if tiny else AUDIT_MECHANISMS,
                nrhs=(NRH,) if tiny else AUDIT_NRHS,
                num_requests=80 if tiny else 600,
                audit=True,
                seed=campaign_seed,
            )
            for campaign_seed in range(seed * self.n_inputs, (seed + 1) * self.n_inputs)
        ]
        self._ops = 0
        self._setups = 0
        self._last: Optional[Tuple[Path, int]] = None
        self._published: Optional[Tuple[Path, int]] = None

    def setup(self) -> None:
        """Grid expansion, opening a store and queue, warming the trace memo."""
        execute.clear_trace_cache()
        self.cell_specs = [
            [spec for spec, _ in campaign.cells()] for campaign in self.campaigns
        ]
        self._setups += 1
        root = self.scratch / f"setup-{self._setups}"
        ResultStore(root)
        SqliteQueue(root / "queue.sqlite")
        for specs in self.cell_specs:
            for spec in specs:
                execute.build_workload_traces(spec.workload, spec.platform.dram_config())

    def _runner(self, root: Path, index: int) -> CampaignRunner:
        return CampaignRunner(
            self.campaigns[index],
            ResultStore(root),
            queue=SqliteQueue(root / "queue.sqlite"),
            max_workers=0,
            worker_id="perfbench",
        )

    def prepare(self, index: int) -> None:
        # A fresh store per operation; the published one stays for the tail.
        if self._last not in (None, self._published):
            shutil.rmtree(self._last[0], ignore_errors=True)
        self._ops += 1
        self._last = (self.scratch / f"campaign-{self._ops}", index)

    def op(self, index: int):
        runner = self._runner(self._last[0], index)
        return runner.store, runner.run()

    def check(self, index: int, output) -> Optional[str]:
        _, status = output
        total = len(self.cell_specs[index])
        if status.executed != total or not status.finished:
            return (
                f"cold pass executed {status.executed}/{total} cells, "
                f"finished={status.finished}"
            )
        return None

    def fingerprint(self, output) -> Dict[str, bytes]:
        """Record bytes per spec hash (records carry no timestamps)."""
        store, _ = output
        return {
            path.stem: path.read_bytes()
            for path in sorted(store.records_dir.glob("*/*.json"))
        }

    def sim_figures(self, index: int, output) -> Dict[str, float]:
        store, _ = output
        return _figures(
            [(spec, store.get_record(spec).result) for spec in self.cell_specs[index]]
        )

    def cells(self, output) -> int:
        return output[1].executed

    def publish(self, outputs) -> ResultStore:
        """The latest operation's store (the campaign it holds is finished)."""
        if self._published not in (None, self._last):
            shutil.rmtree(self._published[0], ignore_errors=True)
        self._published = self._last
        return ResultStore(self._published[0])

    def resume(self, store: ResultStore) -> Optional[str]:
        status = self._runner(store.root, self._published[1]).run()
        if status.executed != 0 or not status.finished:
            return (
                f"resume executed {status.executed} cells, finished={status.finished}"
            )
        return None


WORKLOADS = {
    workload.name: workload
    for workload in (HammerComet, Mix4, Mix4Bliss, CampaignAudit)
}
