"""The benchmark loop: set-up, timed operations, checks, tail, metrics.

One process generates the load in a closed loop: an operation starts only
after the previous one finished.  A run has three phases:

1. **Set-up**, repeated (see ``SETUP_REPEATS``); ``setup_s`` is the median.
   It synthesizes the traces (warming the per-process trace memo, so trace
   generation lands here and not in ``wall_s``) and builds the systems.
2. **Timed operations** for ``seconds`` seconds, cycling over the workload's
   inputs; each input runs at least twice.  Every output is checked; a
   failed check counts in ``failed`` and its time is dropped, so a faster
   wrong answer never reads as a gain.
3. **Tail**, interleaved with the operations after the first pass over the
   inputs, so its samples see the same host conditions as the operations:
   the first results are published to a fresh ``ResultStore``, resumed
   ``RESUME_PASSES`` times and served to one closed-loop client for at least
   ``SERVE_REQUESTS`` requests, each response checked against the store.

Cache policy: nothing reads ``~/.cache/repro``.  ``run.py`` points the sweep
cache and the default store at the run's scratch directory before importing
the program, every campaign operation gets a fresh store, and the only cache
left warm on purpose is the per-process trace memo filled during set-up.

Every set-up, every timed operation and every share of the tail starts after
an untimed full garbage collection, so no sample pays for garbage another one left.

Host-time metrics are reported at a fixed reference host speed: a fixed
pure-Python loop (the *gauge*) is timed before and after every set-up and
every operation, and each sample is scaled by ``REFERENCE_S`` over the
gauge's mean time beside it (tail samples use the gauge readings of the
operation they follow).  The raw, unscaled medians are returned too.

A traced run (``trace=True``) does the same work in *passes*: one untraced
and one traced operation per input, then a traced tail.  Per-layer metrics
are totals over one pass (per set-up for ``workloads.*``), the median over
passes for times; counts must repeat exactly from pass to pass.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import Tracer, instrumented
from workloads import WORKLOADS, Workload

#: Set-up runs at least ``SETUP_REPEATS`` times and until ``SETUP_SECONDS``
#: of set-up were measured (cheap set-ups repeat more), at most
#: ``SETUP_MAX_REPEATS`` times.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 100
RESUME_PASSES = 60
SERVE_REQUESTS = 240
#: Traced runs make at least this many passes, so count repeatability is
#: checked on every traced run.
MIN_TRACED_PASSES = 2
#: Nominal gauge time: the speed host-time metrics are scaled to.  The 2-vCPU
#: VM this benchmark was tuned on drifts by up to +-20 % over minutes, which
#: no run length that fits the time budget averages out; the gauge drifts with
#: it and scaling by it cut the drift to about +-5 %.
REFERENCE_S = 0.02
GAUGE_ITERATIONS = 200_000


def gauge_seconds() -> float:
    """Time of the fixed reference loop (no allocation the GC tracks)."""
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Gauge:
    """Host-speed readings; ``factor`` scales raw seconds to reference speed."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.factor = 1.0

    def read(self) -> None:
        self.readings.append(gauge_seconds())
        self.factor = REFERENCE_S / statistics.fmean(self.readings[-2:])


class Samples:
    """Host-time samples, raw and scaled to the reference speed."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def add(self, seconds: float, factor: float) -> None:
        self.raw.append(seconds)
        self.scaled.append(seconds * factor)


class Run:
    """Bookkeeping of one benchmark run: attempts, failures, samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.gauge = Gauge()
        self.setups = Samples()
        self.ops = Samples()
        self.op_inputs: List[int] = []
        self.op_cells: List[int] = []
        self.resumes = Samples()
        self.serves = Samples()

    def record(self, error: Optional[str]) -> bool:
        self.attempted += 1
        if error is not None:
            self.failures.append(error)
        return error is None


def _attempt(workload: Workload, index: int) -> Tuple[float, object, Optional[str]]:
    start = time.perf_counter()
    try:
        output = workload.op(index)
    except Exception as exc:  # a crashing operation is a failed operation
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, output, None


def _timed_op(workload: Workload, index: int,
              gauge: Gauge) -> Tuple[float, object, Optional[str]]:
    workload.prepare(index)
    gc.collect()
    gauge.read()
    elapsed, output, error = _attempt(workload, index)
    gauge.read()
    if error is None:
        error = workload.check(index, output)
    return elapsed, output, error


class ServeClient:
    """A ``repro serve`` server on a thread plus a closed-loop client: one
    request in flight at a time."""

    def __init__(self, store) -> None:
        from repro.campaign.serve import make_server

        self.server = make_server(store)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.5}
        )
        self.thread.start()
        self.sent = 0

    def round(self, expected: List[Tuple[str, dict]], run: Run, latencies: Samples,
              factor: float) -> None:
        """One request per expected path, each response checked."""
        host, port = self.server.server_address[:2]
        for path, body in expected:
            self.sent += 1
            conn = http.client.HTTPConnection(host, port, timeout=30)
            start = time.perf_counter()
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                payload = response.read()
                elapsed = time.perf_counter() - start
                status = response.status
            except OSError as exc:
                run.record(f"serve {path}: {exc}")
                continue
            finally:
                conn.close()
            if status != 200:
                run.record(f"serve {path}: HTTP {status}")
            elif json.loads(payload) != body:
                run.record(f"serve {path}: body differs from the store's record")
            else:
                run.record(None)
                latencies.add(elapsed, factor)

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()


def _serve_burst(store, expected: List[Tuple[str, dict]], run: Run) -> None:
    client = ServeClient(store)
    try:
        while expected and client.sent < SERVE_REQUESTS:
            client.round(expected, run, Samples(), 1.0)
    finally:
        client.close()


def _resume_pass(workload: Workload, store, run: Run, times: Samples,
                 factor: float) -> None:
    start = time.perf_counter()
    error = workload.resume(store)
    elapsed = time.perf_counter() - start
    if run.record(error):
        times.add(elapsed, factor)


def _percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Untraced run: end-to-end metrics
# --------------------------------------------------------------------------- #
def run_untraced(workload: Workload, seconds: float) -> Tuple[Run, Dict[str, float]]:
    run = Run()
    gauge = run.gauge
    while len(run.setups.raw) < SETUP_REPEATS or (
        sum(run.setups.raw) < SETUP_SECONDS and len(run.setups.raw) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        gauge.read()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        gauge.read()
        run.setups.add(elapsed, gauge.factor)

    outputs: Dict[int, object] = {}
    fingerprints: Dict[int, object] = {}
    figures: Dict[int, Dict[str, float]] = {}
    runs_per_input = [0] * workload.n_inputs

    def operation(index: int) -> None:
        runs_per_input[index] += 1
        elapsed, output, error = _timed_op(workload, index, gauge)
        if error is None:
            fingerprint = workload.fingerprint(output)
            if index not in fingerprints:
                fingerprints[index] = fingerprint
                outputs[index] = output
                figures[index] = workload.sim_figures(index, output)
            elif fingerprint != fingerprints[index]:
                error = f"input {index}: output differs from an earlier run of the same input"
        if run.record(error):
            run.ops.add(elapsed, gauge.factor)
            run.op_inputs.append(index)
            run.op_cells.append(workload.cells(output))

    start = time.perf_counter()
    deadline = start + seconds
    for index in range(workload.n_inputs):
        operation(index)
    if not outputs:
        return run, _untraced_metrics(run, figures)

    # The tail: one share after every remaining operation.
    store = workload.publish(outputs)
    expected = workload.serve_paths(store)
    first_pass = time.perf_counter() - start
    ops_left = max(1.0, (deadline - time.perf_counter()) * workload.n_inputs / first_pass)
    resumes_per_op = math.ceil(RESUME_PASSES / ops_left)
    rounds_per_op = math.ceil(SERVE_REQUESTS / (ops_left * len(expected)))
    client = ServeClient(store)
    try:
        op = workload.n_inputs
        resumes = 0
        while time.perf_counter() < deadline or min(runs_per_input) < 2:
            operation(op % workload.n_inputs)
            op += 1
            gc.collect()
            for _ in range(resumes_per_op):
                _resume_pass(workload, store, run, run.resumes, gauge.factor)
            resumes += resumes_per_op
            for _ in range(rounds_per_op):
                client.round(expected, run, run.serves, gauge.factor)
        for _ in range(RESUME_PASSES - resumes):
            _resume_pass(workload, store, run, run.resumes, gauge.factor)
        while client.sent < SERVE_REQUESTS:
            client.round(expected, run, run.serves, gauge.factor)
    finally:
        client.close()
    return run, _untraced_metrics(run, figures)


def _time_metrics(run: Run, scaled: bool) -> Dict[str, Optional[float]]:
    """The host-time metrics, scaled to the reference speed or raw."""

    def pick(samples: Samples) -> List[float]:
        return samples.scaled if scaled else samples.raw

    def median(values: List[float], scale: float = 1.0) -> Optional[float]:
        return statistics.median(values) * scale if values else None

    serves = pick(run.serves)
    return {
        "wall_s": median(pick(run.ops)),
        "setup_s": median(pick(run.setups)),
        "resume_s": median(pick(run.resumes)),
        "serve_p50_ms": median(serves, 1e3),
        "serve_p95_ms": _percentile(serves, 0.95) * 1e3 if serves else None,
    }


def _untraced_metrics(run: Run, figures: Dict[int, Dict[str, float]]
                      ) -> Dict[str, Optional[float]]:
    metrics: Dict[str, Optional[float]] = {
        **_time_metrics(run, scaled=True),
        "peak_rss_mb": _peak_rss_mb(),
        "success_rate": (run.attempted - len(run.failures)) / run.attempted,
        "sim_cycles_per_s": None,
        "events_per_s": None,
        "sim_ipc": None,
        "security_margin": None,
        "cells_per_s": None,
    }
    if run.ops.scaled:
        pairs = list(zip(run.op_inputs, run.ops.scaled))
        metrics.update(
            sim_cycles_per_s=statistics.median(
                figures[i]["cycles"] / t for i, t in pairs
            ),
            events_per_s=statistics.median(figures[i]["steps"] / t for i, t in pairs),
            sim_ipc=statistics.fmean(f["ipc"] for f in figures.values()),
            security_margin=statistics.fmean(f["margin"] for f in figures.values()),
            cells_per_s=sum(run.op_cells) / sum(run.ops.scaled),
        )
    return metrics


# --------------------------------------------------------------------------- #
# Traced run: per-layer metrics
# --------------------------------------------------------------------------- #
def _layer_metrics(stats: Dict[str, Dict[str, float]], counters: Dict[str, int],
                   figures: Dict[str, float]) -> Dict[str, float]:
    def calls(name: str) -> int:
        return stats.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return stats.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return stats.get(name, {}).get("self_s", 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "sim.run_s": total("sim.run"),
        "sim.self_s": self_s("sim.run"),
        "sim.steps": counters.get("sim.steps", 0),
        "cpu.step_calls": calls("cpu.step"),
        "cpu.step_s": total("cpu.step") + total("cpu.retry"),
        "cpu.retry_calls": calls("cpu.retry"),
        "controller.select_calls": calls("controller.select"),
        "controller.select_s": self_s("controller.select"),
        "controller.issue_calls": calls("controller.issue"),
        "controller.issue_s": total("controller.issue"),
        "controller.issue_self_s": self_s("controller.issue"),
        "controller.issue_per_select": ratio(
            calls("controller.issue"), calls("controller.select")
        ),
        "controller.enqueue_rejects": counters.get("controller.enqueue_rejects", 0),
        "dram.acts": figures.get("acts", 0),
        "dram.column_per_act": ratio(figures.get("columns", 0), figures.get("acts", 0)),
        "dram.refreshes": figures.get("refreshes", 0),
        "mitigations.on_activation_calls": calls("mitigations.on_activation"),
        "mitigations.on_activation_s": total("mitigations.on_activation"),
        "mitigations.self_s": self_s("mitigations.on_activation")
        + self_s("mitigations.on_refresh"),
        "mitigations.preventive_per_act": ratio(
            figures.get("preventive", 0), figures.get("acts", 0)
        ),
        "sketch.update_calls": calls("sketch.update"),
        "sketch.estimate_calls": calls("sketch.estimate"),
        "sketch.s": self_s("sketch.update") + self_s("sketch.estimate")
        + self_s("sketch.other"),
        "analysis.verifier_events": counters.get("analysis.verifier_events", 0),
        "analysis.verifier_s": total("analysis.verifier"),
        "experiment.hash_calls": calls("experiment.hash"),
        "experiment.hash_s": total("experiment.hash"),
        "campaign.simulate_s": stats.get("experiment.execute", {}).get(
            "under_campaign_s", 0.0
        ),
        "campaign.store_get_calls": calls("campaign.store_get"),
        "campaign.store_get_s": total("campaign.store_get"),
        "campaign.store_put_s": total("campaign.store_put"),
        "campaign.store_hit_ratio": ratio(
            counters.get("campaign.store_hits", 0), counters.get("campaign.store_gets", 0)
        ),
        "campaign.queue_claims": calls("campaign.queue_claim"),
        "campaign.queue_claim_s": total("campaign.queue_claim"),
        "campaign.queue_ack_s": total("campaign.queue_ack"),
        "campaign.serve_requests": calls("campaign.serve"),
        "campaign.serve_handler_s": total("campaign.serve"),
    }


#: Per-layer metrics that are counts: they must repeat exactly across passes.
COUNT_METRICS = (
    "sim.steps", "cpu.step_calls", "cpu.retry_calls", "controller.select_calls",
    "controller.issue_calls", "controller.enqueue_rejects", "dram.acts",
    "dram.refreshes", "mitigations.on_activation_calls", "sketch.update_calls",
    "sketch.estimate_calls", "analysis.verifier_events", "experiment.hash_calls",
    "campaign.store_get_calls", "campaign.queue_claims", "campaign.serve_requests",
)


def _traced_block(tracer: Tracer, fn):
    """Run ``fn`` instrumented; returns its value, span summary and counters."""
    first = len(tracer)
    before = dict(tracer.counters)
    with instrumented(tracer):
        value = fn()
    counters = {
        key: count - before.get(key, 0) for key, count in tracer.counters.items()
    }
    return value, tracer.summarize(first, len(tracer)), counters


def _merge(into: Dict[str, Dict[str, float]], stats: Dict[str, Dict[str, float]]) -> None:
    for name, entry in stats.items():
        target = into.setdefault(name, dict.fromkeys(entry, 0))
        for key, value in entry.items():
            target[key] += value


def run_traced(workload: Workload, seconds: float) -> Tuple[Run, Dict[str, float]]:
    run = Run()
    tracer = Tracer()
    setup_builds = []
    for _ in range(SETUP_REPEATS):
        _, stats, counters = _traced_block(tracer, workload.setup)
        setup_builds.append(
            (stats.get("workloads.build", {}).get("total_s", 0.0),
             counters.get("workloads.entries", 0))
        )

    passes: List[Dict[str, float]] = []
    reference: Dict[int, object] = {}
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        stats: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, int] = {}
        figures: Dict[str, float] = {}
        overhead = untraced_total = 0.0
        outputs: Dict[int, object] = {}

        def traced(fn):
            value, block_stats, block_counters = _traced_block(tracer, fn)
            _merge(stats, block_stats)
            for key, count in block_counters.items():
                counters[key] = counters.get(key, 0) + count
            return value

        for index in range(workload.n_inputs):
            plain_time, plain, error = _timed_op(workload, index, run.gauge)
            if error is None:
                fingerprint = workload.fingerprint(plain)
                reference.setdefault(index, fingerprint)
                if fingerprint != reference[index]:
                    error = f"input {index}: output differs from an earlier run"
            if not run.record(error):
                continue
            workload.prepare(index)
            gc.collect()
            traced_time, output, error = traced(lambda: _attempt(workload, index))
            if error is None:
                error = workload.check(index, output)
            if error is None and workload.fingerprint(output) != reference[index]:
                error = f"input {index}: traced output differs from the untraced output"
            if not run.record(error):
                continue
            overhead += traced_time - plain_time
            untraced_total += plain_time
            outputs[index] = output
            for key, value in workload.sim_figures(index, output).items():
                figures[key] = figures.get(key, 0) + value
        if len(outputs) < workload.n_inputs:
            break
        store = traced(lambda: workload.publish(outputs))
        traced(lambda: [
            _resume_pass(workload, store, run, Samples(), 1.0)
            for _ in range(RESUME_PASSES)
        ])
        expected = workload.serve_paths(store)
        traced(lambda: _serve_burst(store, expected, run))
        metrics = _layer_metrics(stats, counters, figures)
        metrics["trace.overhead_s"] = overhead / workload.n_inputs
        metrics["trace.overhead_share"] = overhead / untraced_total
        if passes and any(metrics[key] != passes[0][key] for key in COUNT_METRICS):
            changed = [k for k in COUNT_METRICS if metrics[k] != passes[0][k]]
            run.record(f"traced call counts changed between passes: {changed}")
        passes.append(metrics)

    result: Dict[str, Optional[float]] = {}
    if passes:
        for key in passes[0]:
            result[key] = (
                passes[0][key]
                if key in COUNT_METRICS
                else statistics.median(p[key] for p in passes)
            )
    result["workloads.build_s"] = statistics.median(b for b, _ in setup_builds)
    result["workloads.entries"] = setup_builds[0][1]
    return run, result


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  scratch: Path, units: Dict[str, str], tiny: bool = False
                  ) -> Tuple[Dict[str, object], List[str], Dict[str, float]]:
    """One benchmark run.

    Returns the result line's object, the failure messages and, for an
    untraced run, the host-time medians before scaling plus the gauge's
    median time (``gauge_s``).  ``units`` names the metrics to report
    (``BENCHMARK.json``'s end-to-end list untraced, its per-layer list
    traced) with their units.
    """
    workload = WORKLOADS[name](seed, tiny, scratch)
    run, values = (run_traced if trace else run_untraced)(workload, seconds)
    metrics = {
        key: {"value": values.get(key), "unit": unit} for key, unit in units.items()
    }
    correct = not run.failures and all(m["value"] is not None for m in metrics.values())
    unscaled: Dict[str, float] = {}
    if not trace:
        unscaled = dict(_time_metrics(run, scaled=False))
        unscaled["gauge_s"] = statistics.median(run.gauge.readings)
    return (
        {
            "correct": correct,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": metrics,
        },
        run.failures,
        unscaled,
    )
