"""One-off reconciliation of the traced layer shares with cProfile.

    python3 perfbench/profile_layers.py [--seed 1]

For ``hammer_comet`` and ``mix4_2ch`` it runs one operation under cProfile
and one under the benchmark's spans, and prints each layer's share of the
operation's host time both ways as a markdown table.  cProfile attributes
self time by source file; time in C built-ins goes to the layer of the
caller.  The spans attribute self time by the public call that was running.
README.md records the output and what the two views cannot separate.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, instrumented  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Source directory under src/repro -> layer, for cProfile.
FILE_LAYERS = {
    "sim/engine.py": "kernel",
    "cpu": "cpu",
    "controller": "controller",
    "dram": "dram",
    "mitigations": "mitigation",
    "core": "mitigation",
    "sketch": "sketch",
    "analysis": "verifier",
}

#: Span name -> layer, for the traced view.  ``controller.issue`` self time
#: holds the DRAM bookkeeping inlined into the fused issue closure.
SPAN_LAYERS = {
    "sim.run": "kernel",
    "cpu.step": "cpu",
    "cpu.retry": "cpu",
    "controller.select": "controller",
    "controller.issue": "controller issue + dram",
    "mitigations.on_activation": "mitigation",
    "mitigations.on_refresh": "mitigation",
    "sketch.update": "sketch",
    "sketch.estimate": "sketch",
    "sketch.other": "sketch",
    "analysis.verifier": "verifier",
}


def _file_layer(filename: str) -> str:
    marker = os.sep + "repro" + os.sep
    if marker not in filename:
        return "other"
    relative = filename.split(marker, 1)[1].replace(os.sep, "/")
    for prefix, layer in FILE_LAYERS.items():
        if relative.startswith(prefix):
            return layer
    return "other"


def profile_shares(workload, index: int) -> dict:
    profiler = cProfile.Profile()
    profiler.runcall(workload.op, index)
    stats = pstats.Stats(profiler).stats
    shares: dict = {}
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        if filename == "~" and callers:
            # A C built-in: charge its time to the layers that called it.
            for (caller_file, _, _), caller_stats in callers.items():
                layer = _file_layer(caller_file)
                shares[layer] = shares.get(layer, 0.0) + caller_stats[2]
        else:
            layer = _file_layer(filename)
            shares[layer] = shares.get(layer, 0.0) + tottime
    total = sum(shares.values())
    return {layer: value / total for layer, value in shares.items()}


def span_shares(workload, index: int) -> dict:
    tracer = Tracer()
    with instrumented(tracer):
        workload.op(index)
    stats = tracer.summarize(0, len(tracer))
    total = stats["experiment.execute"]["total_s"]
    shares = {"other": stats["experiment.execute"]["self_s"] / total}
    for name, entry in stats.items():
        layer = SPAN_LAYERS.get(name)
        if layer is not None:
            shares[layer] = shares.get(layer, 0.0) + entry["self_s"] / total
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    scratch = ROOT / ".perfbench_tmp" / f"profile-{os.getpid()}"
    try:
        for name in ("hammer_comet", "mix4_2ch"):
            workload = WORKLOADS[name](args.seed, False, scratch)
            workload.setup()
            workload.op(0)  # warm-up
            profiled = profile_shares(workload, 0)
            traced = span_shares(workload, 0)
            print(f"\n{name} (seed {args.seed}, input 0)\n")
            print("| layer | cProfile | spans |")
            print("|---|---|---|")
            for layer in sorted(set(profiled) | set(traced)):
                cell = [
                    f"{view[layer] * 100:.0f} %" if layer in view else "-"
                    for view in (profiled, traced)
                ]
                print(f"| {layer} | {cell[0]} | {cell[1]} |")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
