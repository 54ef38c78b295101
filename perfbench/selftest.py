"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each reports every metric ``BENCHMARK.json`` names.  Then it plants faults
and checks that each is counted as a failed operation whose time never
reaches a metric:

* a simulation truncated by a small ``max_steps`` (the kernel returns
  without error and the system drains into a normal-looking result);
* a ``repro serve`` response whose body does not match the store.

Last, it runs ``run.py`` in a directory holding only ``BENCHMARK.json`` and
the benchmark's files, where it must fail without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from run import load_units  # noqa: E402
from workloads import WORKLOADS, Mix4  # noqa: E402

SEED = 3


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def tiny_runs(scratch: Path) -> None:
    for trace in (False, True):
        units = load_units(trace)
        for name in WORKLOADS:
            result, failures, _ = harness.run_benchmark(
                name, SEED, 0, trace, scratch / f"{name}-{int(trace)}", units, tiny=True
            )
            label = f"{name} {'traced' if trace else 'untraced'}"
            check(result["correct"] and not failures, f"{label}: correct ({failures[:3]})")
            check(
                set(result["metrics"]) == set(units),
                f"{label}: reports every metric of BENCHMARK.json",
            )


def planted_truncation(scratch: Path) -> None:
    """Truncate two operations; both must fail and leave no timing behind."""
    from repro.sim.system import System

    original = System.run
    calls = {"n": 0}
    truncated_times = []

    def truncating_run(self):
        calls["n"] += 1
        if calls["n"] in (2, 7):
            self.config.max_steps = 50
            start = time.perf_counter()
            result = original(self)
            truncated_times.append(time.perf_counter() - start)
            return result
        return original(self)

    System.run = truncating_run
    try:
        workload = Mix4(SEED, True, scratch / "truncation")
        run, metrics = harness.run_untraced(workload, 0)
    finally:
        System.run = original
    retired = [f for f in run.failures if "retired" in f]
    check(
        len(run.failures) == 2 and len(retired) == 2,
        f"truncated runs count as 2 failures ({run.failures})",
    )
    check(
        not set(truncated_times) & set(run.ops.raw),
        "no truncated run's time reaches wall_s",
    )
    check(metrics["success_rate"] < 1.0, "success_rate drops below 1")


def planted_serve_mismatch(scratch: Path) -> None:
    """Tamper with one served record; it must fail and leave no latency."""
    from repro.campaign.serve import StoreRequestHandler

    original = StoreRequestHandler._send
    tampered = {"n": 0}

    def tampering_send(self, status, body):
        if "record" in body and tampered["n"] == 0:
            tampered["n"] += 1
            body = dict(body, record=dict(body["record"], provenance={"forged": True}))
        return original(self, status, body)

    StoreRequestHandler._send = tampering_send
    try:
        workload = Mix4(SEED, True, scratch / "serve")
        run, metrics = harness.run_untraced(workload, 0)
    finally:
        StoreRequestHandler._send = original
    check(
        len(run.failures) == 1 and "body differs" in run.failures[0],
        f"mismatched serve body counts as 1 failure ({run.failures})",
    )
    check(metrics["success_rate"] < 1.0, "success_rate drops below 1")


def fails_without_program(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hammer_comet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    check(
        proc.returncode != 0 and "correct" not in proc.stdout,
        f"run.py without the program exits {proc.returncode} and prints no result",
    )


def main() -> int:
    scratch = ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.environ["REPRO_SWEEP_CACHE"] = str(scratch / "sweep-cache")
    os.environ["REPRO_CAMPAIGN_STORE"] = str(scratch / "default-store")
    try:
        tiny_runs(scratch)
        planted_truncation(scratch)
        planted_serve_mismatch(scratch)
        fails_without_program(scratch)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"selftest": "passed"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
