"""Gate head against a base commit on every end-to-end metric, on the same machine.

    python tools/bench_gate.py BASE_REF

Checks ``BASE_REF`` out into a temporary ``git worktree`` and runs the
benchmark's own ``perfbench/run.py --trace 0`` from both trees on every
workload ``BENCHMARK.json`` lists, for the benchmark's ``run_seconds``:
five base/head pairs per workload, alternating which tree runs first and
sharing a seed within a pair.  For each workload and each ``end_to_end``
metric of ``BENCHMARK.json`` it prints the median of base and head, head's
change in the metric's ``better`` direction (positive is worse) and base's
interquartile range relative to its median (the noise measured in this
very run).  The verdict is

* ``ok`` when the change is within the metric's ``bound``;
* ``REGRESSED`` when head is worse than base by more than the bound;
* ``unresolved`` when base's own IQR exceeds the bound: that run is too
  noisy to tell a regression of the bound's size, so it neither passes
  nor fails the metric — unless every head run reads better than every
  base run, which is ``ok``.

The gate fails on any ``REGRESSED`` metric, or when any run reports an
incorrect result.

    python tools/bench_gate.py --base-tree DIR

gates against a tree of the base that already exists instead, for a
repository where a worktree must not be added: a read-only ``.git``, or a
base exported with ``git archive`` that has no commit in this repository.

Exit status: 0 when no metric regressed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

HEAD = Path(__file__).resolve().parent.parent
PAIRS = 5


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One ``perfbench/run.py`` run in ``tree``; returns its metric values."""
    env = dict(os.environ)
    # run.py puts its own tree's src/ first; an inherited path must not
    # smuggle the other tree's package in.
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{tree.name}: {workload} seed {seed} exited {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(
            f"{tree.name}: {workload} seed {seed} reported an incorrect run "
            f"({result['failed']} of {result['attempted']} operations failed)\n"
            f"{proc.stderr[-2000:]}"
        )
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def iqr(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def relative(delta: float, reference: float) -> float:
    """``delta`` as a share of ``reference`` (a zero reference is exact)."""
    if reference:
        return delta / abs(reference)
    return 0.0 if delta == 0 else math.inf


def verdict(metric: dict, base: List[float], head: List[float]) -> Tuple[str, str]:
    """One metric's table row (without the names) and its verdict."""
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    worse = head_median - base_median
    if metric["better"] == "higher":
        worse = -worse
    change = relative(worse, base_median)
    noise = relative(iqr(base), base_median)
    bound = metric["bound"]
    if noise > bound:
        if metric["better"] == "higher":
            outcome = "ok" if min(head) > max(base) else "unresolved"
        else:
            outcome = "ok" if max(head) < min(base) else "unresolved"
    elif change > bound:
        outcome = "REGRESSED"
    else:
        outcome = "ok"
    row = (f"{base_median:>11.4g} {head_median:>11.4g} {change:>+8.1%} "
           f"{noise:>9.1%} {bound:>6.0%}")
    return row, outcome


def gate(base: Path) -> bool:
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    print(f"medians over {PAIRS} base/head pairs, {seconds:g} s per run; "
          f"change is head against base in the metric's worse direction, "
          f"base IQR relative to base's median")
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        samples: Dict[str, List[Dict[str, float]]] = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = [("base", base), ("head", HEAD)]
            if pair % 2:
                order.reverse()
            for label, tree in order:
                samples[label].append(run_once(tree, name, pair + 1, seconds))
        print(f"\n{name}")
        print(f"  {'metric':<17} {'base':>11} {'head':>11} {'change':>8} "
              f"{'base IQR':>9} {'bound':>6} verdict", flush=True)
        for metric in metrics:
            key = metric["name"]
            row, outcome = verdict(
                metric,
                [run[key] for run in samples["base"]],
                [run[key] for run in samples["head"]],
            )
            ok = ok and outcome != "REGRESSED"
            print(f"  {key:<17} {row} {outcome}", flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", nargs="?", help="git revision of the base")
    parser.add_argument("--base-tree", type=Path,
                        help="an existing checkout of the base to use instead")
    args = parser.parse_args(argv)
    if args.base_tree is not None:
        return 0 if gate(args.base_tree.resolve()) else 1
    if args.base_ref is None:
        parser.error("give BASE_REF or --base-tree")
    with tempfile.TemporaryDirectory(prefix="bench-gate-") as scratch:
        base = Path(scratch) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base), args.base_ref],
                       cwd=HEAD, check=True, capture_output=True)
        try:
            ok = gate(base)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                           cwd=HEAD, check=False, capture_output=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
