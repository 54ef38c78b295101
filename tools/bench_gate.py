"""Gate head against a base commit on whole-run wall time, on the same machine.

    python tools/bench_gate.py BASE_REF

Checks ``BASE_REF`` out into a temporary ``git worktree`` and runs the
benchmark's own ``perfbench/run.py --trace 0`` from both trees on every
workload ``BENCHMARK.json`` lists, for the benchmark's ``run_seconds``:
five base/head pairs per workload, alternating which tree runs first and
sharing a seed within a pair.  For each workload it prints the median
``wall_s`` of base and head, their relative change and base's
interquartile range (the noise measured in this very run), and fails when
head's median exceeds base's by more than ``wall_s``'s ``bound`` in
``BENCHMARK.json``, or when any run reports an incorrect result.

    python tools/bench_gate.py --base-tree DIR

gates against a tree of the base that already exists instead, for a
repository where a worktree must not be added: a read-only ``.git``, or a
base exported with ``git archive`` that has no commit in this repository.

Exit status: 0 when every workload passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

HEAD = Path(__file__).resolve().parent.parent
METRIC = "wall_s"
PAIRS = 5


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> float:
    """One ``perfbench/run.py`` run in ``tree``; returns its ``wall_s``."""
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
    value = result["metrics"][METRIC]["value"]
    if not result["correct"] or value is None:
        raise RuntimeError(
            f"{tree.name}: {workload} seed {seed} reported an incorrect run "
            f"({result['failed']} of {result['attempted']} operations failed)\n"
            f"{proc.stderr[-2000:]}"
        )
    return value


def iqr(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def gate(base: Path) -> bool:
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)
    seconds = spec["run_seconds"]
    print(f"{METRIC} medians over {PAIRS} base/head pairs, {seconds:g} s per run, "
          f"bound +{bound:.0%}")
    print(f"{'workload':<16} {'base':>9} {'head':>9} {'change':>8} "
          f"{'base IQR':>9} {'verdict':>8}")
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        samples: Dict[str, List[float]] = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = [("base", base), ("head", HEAD)]
            if pair % 2:
                order.reverse()
            for label, tree in order:
                samples[label].append(run_once(tree, name, pair + 1, seconds))
        base_median = statistics.median(samples["base"])
        head_median = statistics.median(samples["head"])
        change = head_median / base_median - 1.0
        passed = change <= bound
        ok = ok and passed
        print(f"{name:<16} {base_median:>8.3f}s {head_median:>8.3f}s "
              f"{change:>+8.1%} {iqr(samples['base']):>8.3f}s "
              f"{'ok' if passed else 'REGRESSED':>8}", flush=True)
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
