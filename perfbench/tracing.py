"""In-memory span tracer and the instrumentation the traced run installs.

The program carries no tracing code: the benchmark records spans around
public calls into each layer by wrapping them for the duration of one traced
operation and restoring the originals afterwards.

A span is ``(name, start, end, parent)``; spans live in flat arrays until the
run ends.  A span's *self* time is its duration minus the time covered by its
child spans.  Two binding rules decide where a wrapper goes:

* The event kernel's fused loop calls a controller's ``_fast_select`` /
  ``_fast_issue_fn`` closures directly, so a class-level wrap of
  ``next_decision`` / ``issue_decision`` / ``issue_next`` never fires.  Those
  are wrapped on each controller *instance* (inside the ``System.run`` wrap,
  after construction): the kernel sees the instance override and calls the
  public method, which delegates to the same closure.
* DRAM observers (the verifier's ACT callbacks and ``observe_batch``) and the
  controller -> mitigation wiring are bound methods captured when the System
  is built, so they are wrapped at class level *before* the System exists.

DRAM timing is inlined into the fused issue closure, so ``controller.issue``
spans include DRAM bookkeeping; the mitigation, sketch and verifier work
they trigger is recorded as child spans.

The tracer assumes one traced call runs at a time.  The serve burst is a
closed loop (the client waits for each response), so the server's handler
thread never records while the client thread does.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple


class Tracer:
    """Span recorder: parallel arrays of name id, start, end and parent."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        #: Counts recorded at the same boundaries as spans (no span of their
        #: own): enqueue attempts and rejects, verifier ACT events.
        self.counters: Counter = Counter()
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.name_id)

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        nid = self._id(name)
        names, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        clock = time.perf_counter_ns
        get_stack = self._stack

        def traced(*args, **kwargs):
            stack = get_stack()
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def summarize(self, first: int, last: int) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``total_s`` and ``self_s`` over spans [first, last).

        ``total_s`` counts a span only when its parent has another name, so a
        name's nested calls (a mix's member trace builds, ``content_hash`` ->
        ``canonical_json``) are not counted twice.  ``under_campaign_s`` is the
        ``total_s`` of spans that have a ``campaign.run`` ancestor.
        """
        names, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        child = {}
        for index in range(first, last):
            parent = parents[index]
            if parent >= first:
                child[parent] = child.get(parent, 0) + ends[index] - starts[index]
        campaign_id = self._name_ids.get("campaign.run", -1)
        in_campaign = {}
        stats: Dict[str, Dict[str, float]] = {}
        for index in range(first, last):
            nid = names[index]
            parent = parents[index]
            duration = ends[index] - starts[index]
            inside = parent >= first and (
                names[parent] == campaign_id or in_campaign.get(parent, False)
            )
            if inside:
                in_campaign[index] = True
            entry = stats.get(self.names[nid])
            if entry is None:
                entry = stats[self.names[nid]] = {
                    "calls": 0,
                    "total_s": 0.0,
                    "self_s": 0.0,
                    "under_campaign_s": 0.0,
                }
            entry["calls"] += 1
            entry["self_s"] += (duration - child.get(index, 0)) * 1e-9
            if parent < first or names[parent] != nid:
                entry["total_s"] += duration * 1e-9
                if inside:
                    entry["under_campaign_s"] += duration * 1e-9
        return stats


# --------------------------------------------------------------------------- #
# Instrumentation
# --------------------------------------------------------------------------- #
def _class_targets() -> List[Tuple[type, str, str]]:
    """``(class, method, span name)`` for every class-level wrap."""
    from repro.analysis.security import SecurityVerifier
    from repro.campaign.backends.sqlite import SqliteQueue
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.serve import StoreRequestHandler
    from repro.campaign.store import ResultStore
    from repro.controller.controller import MemoryController
    from repro.cpu.core import Core
    from repro.experiment.registry import WorkloadEntry
    from repro.experiment.spec import CampaignSpec, ExperimentSpec
    from repro.sketch.count_min import ConservativeCountMinSketch, CountMinSketch
    from repro.sketch.counting_bloom import CountingBloomFilter
    from repro.sketch.misra_gries import MisraGriesSummary

    targets = [
        (Core, "step", "cpu.step"),
        (Core, "retry_blocked", "cpu.retry"),
        (MemoryController, "_on_activation", "mitigations.on_activation"),
        (MemoryController, "_on_refresh", "mitigations.on_refresh"),
        (SecurityVerifier, "_on_activation", "analysis.verifier"),
        (SecurityVerifier, "observe_batch", "analysis.verifier"),
        (SecurityVerifier, "_on_rank_refresh", "analysis.verifier"),
        (SecurityVerifier, "_on_row_refresh", "analysis.verifier"),
        (WorkloadEntry, "build", "workloads.build"),
        (ExperimentSpec, "content_hash", "experiment.hash"),
        (ExperimentSpec, "canonical_json", "experiment.hash"),
        (CampaignSpec, "campaign_id", "experiment.hash"),
        (CampaignSpec, "canonical_json", "experiment.hash"),
        (CampaignRunner, "run", "campaign.run"),
        (ResultStore, "get_record", "campaign.store_get"),
        (ResultStore, "put_result", "campaign.store_put"),
        (SqliteQueue, "claim", "campaign.queue_claim"),
        (SqliteQueue, "ack", "campaign.queue_ack"),
        (StoreRequestHandler, "do_GET", "campaign.serve"),
    ]
    for cls in (CountMinSketch, ConservativeCountMinSketch, CountingBloomFilter,
                MisraGriesSummary):
        for method in ("update", "estimate"):
            if method in cls.__dict__:
                targets.append((cls, method, f"sketch.{method}"))
    for cls in (CountMinSketch, CountingBloomFilter, MisraGriesSummary):
        for method in ("set_group", "reset"):
            if method in cls.__dict__:
                targets.append((cls, method, "sketch.other"))
    return targets


def _instrument_controller(tracer: Tracer, ctl) -> None:
    """Instance-level wraps on one controller (see the module docstring)."""
    ctl.next_decision = tracer.wrap("controller.select", ctl.next_decision)
    # issue_next selects and then issues through the (wrapped) instance
    # attribute issue_decision, so its self time is select time.
    ctl.issue_next = tracer.wrap("controller.select", ctl.issue_next)
    ctl.issue_decision = tracer.wrap("controller.issue", ctl.issue_decision)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrap for the duration of the block, then restore."""
    from repro.analysis.security import SecurityVerifier
    from repro.campaign.store import ResultStore
    from repro.controller.controller import MemoryController
    from repro.experiment import execute
    from repro.experiment.registry import WorkloadEntry
    from repro.sim.system import System

    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_counted(owner, attr, count):
        """Wrap ``owner.attr`` so ``count(args, result)`` runs after each call."""
        fn = owner.__dict__[attr]

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, result)
            return result

        patch(owner, attr, counted)

    counters = tracer.counters

    def enqueue_reject(args, accepted):
        if not accepted:
            counters["controller.enqueue_rejects"] += 1

    def verifier_event(args, _):
        counters["analysis.verifier_events"] += 1

    def verifier_batch(args, _):
        counters["analysis.verifier_events"] += len(args[1])

    def trace_entries(args, trace):
        counters["workloads.entries"] += len(trace)

    def store_get(args, record):
        counters["campaign.store_gets"] += 1
        if record is not None:
            counters["campaign.store_hits"] += 1

    def sim_steps(args, result):
        counters["sim.steps"] += result.steps

    try:
        for cls, method, name in _class_targets():
            patch(cls, method, tracer.wrap(name, cls.__dict__[method]))
        patch_counted(MemoryController, "enqueue", enqueue_reject)
        patch_counted(SecurityVerifier, "_on_activation", verifier_event)
        patch_counted(SecurityVerifier, "observe_batch", verifier_batch)
        patch_counted(WorkloadEntry, "build", trace_entries)
        patch_counted(ResultStore, "get_record", store_get)
        patch_counted(System, "run", sim_steps)
        traced_run = tracer.wrap("sim.run", System.__dict__["run"])

        def run(self):
            for ctl in self.fabric.controllers:
                _instrument_controller(tracer, ctl)
            return traced_run(self)

        patch(System, "run", run)
        patch(
            execute,
            "execute_spec",
            tracer.wrap("experiment.execute", execute.__dict__["execute_spec"]),
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
