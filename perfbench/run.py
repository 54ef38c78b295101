"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hammer_comet --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and, untraced, the host-time medians before they
were scaled to the reference speed (see ``harness.py``).  Failed checks are listed on standard error.

Everything the run writes lives in a scratch directory under
``.perfbench_tmp/`` in the repository, removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    from repro import _np, fastpath

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "fastpath": fastpath.enabled(),
        "numpy_sketch_backend": _np.np is not None and fastpath.enabled(),
        "commit": git_commit(ROOT),
    }


def load_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # Any default cache or store the program might open stays in scratch.
    os.environ["REPRO_SWEEP_CACHE"] = str(scratch / "sweep-cache")
    os.environ["REPRO_CAMPAIGN_STORE"] = str(scratch / "default-store")
    sys.path.insert(0, str(SRC))
    try:
        from harness import run_benchmark
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
        result, failures, unscaled = run_benchmark(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            scratch,
            load_units(bool(args.trace)),
        )
        for failure in failures[:20]:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
        print(json.dumps({"environment": environment(), "workload": args.workload,
                          "seed": args.seed, "trace": args.trace,
                          "unscaled": unscaled}))
        print(json.dumps(result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
