"""Regenerate the golden synthesized-attack traces in tests/golden/synth/.

Each file pins the exact bytes (Trace.save text format) of one synthesized
adversarial pattern at a fixed seed on the scaled experiment configuration.
``tests/test_security_synth.py`` regenerates the same traces and compares
byte-for-byte, so a synthesizer refactor cannot silently change the access
patterns behind published security verdicts.  Regenerate only when a
pattern's semantics intentionally change:

    PYTHONPATH=src python tools/gen_synth_golden.py
"""

from __future__ import annotations

from pathlib import Path

from repro.experiment.spec import WorkloadSpec, default_experiment_config
from repro.security.synth import synth_pattern_names

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden" / "synth"

#: Small enough to diff, long enough to cover every pattern's schedule shape
#: (bursts, gaps, decoy rotations).
GOLDEN_REQUESTS = 240
GOLDEN_SEED = 1


def generate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    dram_config = default_experiment_config()
    for name in synth_pattern_names():
        trace = WorkloadSpec(
            name=name, num_requests=GOLDEN_REQUESTS, seed=GOLDEN_SEED
        ).build_traces(dram_config)[0]
        path = GOLDEN_DIR / f"{name}.trace"
        trace.save(path)
        print(f"wrote {path} ({len(trace)} entries)")


if __name__ == "__main__":
    generate()
