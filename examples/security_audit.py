#!/usr/bin/env python3
"""A security-audit campaign over synthesized adversarial patterns.

The paper's security argument (Section 5) is an invariant — no victim row
ever accumulates NRH aggressor activations between two of its refreshes —
and :mod:`repro.security` stress-tests it: the synthesis engine generates
parameterized adversarial patterns (Blacksmith-style fuzzing, sketch-aware
decoy/aliasing attacks on CoMeT's count-min counters, RowPress-style
long-open-row streams, refresh-window-straddling waves, coordinated
multi-channel variants), and the audit runner fans a
mitigation x pattern x NRH grid through a :class:`repro.Session` with the
security verifier attached to every run.

This example audits three mechanisms against four patterns plus the
unprotected baseline, prints the per-mechanism verdicts and per-pattern
margins, and highlights the headline contrast: the sketch-aware aliasing
attack pushes CoMeT's disturbance margin far above the uniform reference
while CoMeT still holds the invariant — and the unprotected baseline
demonstrably does not.

Equivalent CLI:  python -m repro.cli audit --mitigations comet graphene para \
    --patterns synth_uniform synth_blacksmith synth_sketch_aliasing synth_refresh_wave \
    --requests 3000 --include-baseline

Run with:  python examples/security_audit.py
"""

from repro import Session

MECHANISMS = ["comet", "graphene", "para"]
PATTERNS = [
    "synth_uniform",
    "synth_blacksmith",
    "synth_sketch_aliasing",
    "synth_refresh_wave",
]


def main() -> None:
    session = Session(max_workers=0, store=None)
    report = session.audit(
        mitigations=MECHANISMS,
        patterns=PATTERNS,
        num_requests=3000,
        include_baseline=True,
    )
    print(report.render())
    print()

    uniform = report.finding_for("comet", "synth_uniform", 125)
    aliasing = report.finding_for("comet", "synth_sketch_aliasing", 125)
    baseline = report.verdict_for("none")
    print(
        f"CoMeT margin under the uniform reference:      {uniform.margin:.3f}\n"
        f"CoMeT margin under sketch-aware aliasing:      {aliasing.margin:.3f}\n"
        f"unprotected baseline verdict:                  "
        f"{'secure' if baseline.secure else 'INSECURE'} "
        f"(worst margin {baseline.worst_margin:.2f} via {baseline.worst_pattern})"
    )


if __name__ == "__main__":
    main()
