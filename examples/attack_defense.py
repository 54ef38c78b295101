#!/usr/bin/env python3
"""RowHammer attack vs. defenses (the scenario of Section 8.2).

The example launches the traditional many-row hammering attack against an
unprotected system and against each mitigation at a very low RowHammer
threshold (NRH = 125), then reports:

* whether the security verifier observed a RowHammer violation (a victim row
  accumulating NRH aggressor activations without being refreshed);
* the maximum disturbance any victim row ever accumulated;
* how many preventive refreshes the mechanism spent to achieve that.

It then repeats the exercise with the CoMeT-targeted (RAT-thrashing) attack
to show the early-preventive-refresh mechanism kicking in.

Attack traces are ordinary registered workloads (``attack_traditional``,
``attack_comet_targeted``, ...), so an attack experiment is just an
:class:`repro.ExperimentSpec` whose workload names one and carries the
generator's knobs in ``params``.

Run with:  python examples/attack_defense.py
"""

from repro import ExperimentSpec, ExperimentWorkloadSpec, MitigationSpec, Session
from repro.analysis.reporting import format_table

NRH = 125
MECHANISMS = ["none", "comet", "graphene", "hydra", "para", "blockhammer"]


def run_attack(session, attack_workload, mechanisms=MECHANISMS, nrh=NRH):
    rows = []
    for name in mechanisms:
        # The baseline is verified too: watching the unprotected system
        # violate the RowHammer invariant is the point of the exercise.
        spec = ExperimentSpec(
            workload=attack_workload,
            mitigation=MitigationSpec(name=name, nrh=nrh),
        )
        result = session.run(spec).result
        rows.append(
            {
                "mitigation": name,
                "secure": result.security_ok,
                "max_disturbance": result.max_disturbance,
                "preventive_refreshes": result.preventive_refreshes,
                "early_refreshes": result.early_refresh_operations,
                "attack_IPC": round(result.ipc, 4),
            }
        )
    return rows


def main() -> None:
    session = Session(store=None)

    print(f"RowHammer threshold NRH = {NRH}\n")

    traditional = ExperimentWorkloadSpec(
        name="attack_traditional",
        num_requests=6000,
        params={"aggressor_rows_per_bank": 2},
    )
    print(
        format_table(
            run_attack(session, traditional),
            title="Traditional many-row RowHammer attack (Figure 16a scenario)",
        )
    )
    print()

    targeted = ExperimentWorkloadSpec(
        name="attack_comet_targeted",
        num_requests=6000,
        params={"distinct_rows": 48, "npr": NRH // 4},
    )
    print(
        format_table(
            run_attack(session, targeted, mechanisms=["none", "comet", "hydra"]),
            title="CoMeT-targeted RAT-thrashing attack (Figure 16b scenario)",
        )
    )
    print()
    print(
        "Interpretation: the unprotected system ('none') violates the RowHammer\n"
        "invariant (max_disturbance >= NRH), while every deterministic tracker\n"
        "keeps the maximum disturbance below the threshold at the cost of\n"
        "preventive refreshes.  The targeted attack forces CoMeT to fall back to\n"
        "early preventive refreshes, its designed-for worst case."
    )


if __name__ == "__main__":
    main()
