#!/usr/bin/env python3
"""Compare CoMeT against the state-of-the-art mitigations (mini Figure 12/14).

For a handful of representative workloads (one per memory-intensity category
of Table 3 plus an extra high-intensity one), the example runs every
mitigation at two RowHammer thresholds and prints normalized IPC and
normalized DRAM energy, the two headline metrics of the paper's evaluation.

The whole grid is expressed declaratively: :func:`repro.expand_grid` expands
workloads x mitigations x thresholds into :class:`repro.ExperimentSpec`
objects (plus one threshold-independent baseline per workload) and a
:class:`repro.Session` executes them — runs fan out across worker processes
and land in the result store (``$REPRO_CAMPAIGN_STORE`` or
``~/.cache/repro/campaigns``), so re-running the example (or any other sweep
or campaign sharing specs with it) is nearly instant.

Run with:  python examples/mitigation_comparison.py
"""

from repro import Session, expand_grid
from repro.analysis.reporting import format_table
from repro.energy.model import DRAMEnergyModel
from repro.dram.dram_system import DRAMStatistics
from repro.sim.metrics import geometric_mean

WORKLOADS = ["519.lbm", "429.mcf", "462.libquantum", "502.gcc"]
MECHANISMS = ["comet", "graphene", "hydra", "rega", "para"]
THRESHOLDS = [1000, 125]
NUM_REQUESTS = 5000


def to_stats(result) -> DRAMStatistics:
    d = result.dram_stats
    return DRAMStatistics(
        acts=d["acts"], pres=d["pres"], reads=d["reads"], writes=d["writes"],
        refreshes=d["refreshes"], preventive_acts=d["preventive_acts"],
    )


def main() -> None:
    energy_model = DRAMEnergyModel(num_ranks=2)

    specs = expand_grid(
        workloads=WORKLOADS,
        mitigations=MECHANISMS,
        nrhs=THRESHOLDS,
        num_requests=NUM_REQUESTS,
    )
    session = Session()
    records = session.run_many(specs)
    results = {
        (s.workload.name, s.mitigation.name, s.mitigation.nrh): r.result
        for s, r in zip(specs, records)
    }
    baselines = {
        s.workload.name: r.result
        for s, r in zip(specs, records)
        if s.mitigation.name == "none"
    }

    for nrh in THRESHOLDS:
        rows = []
        for mechanism in MECHANISMS:
            ipcs, energies = [], []
            for name in WORKLOADS:
                result = results[(name, mechanism, nrh)]
                base = baselines[name]
                ipcs.append(result.ipc / base.ipc)
                energies.append(
                    energy_model.normalized_energy(
                        to_stats(result), result.cycles, to_stats(base), base.cycles
                    )
                )
            rows.append(
                {
                    "mitigation": mechanism,
                    "geomean_norm_IPC": round(geometric_mean(ipcs), 4),
                    "worst_norm_IPC": round(min(ipcs), 4),
                    "geomean_norm_energy": round(geometric_mean(energies), 4),
                }
            )
        print(format_table(rows, title=f"Normalized performance/energy at NRH = {nrh} "
                                       f"({len(WORKLOADS)} workloads)"))
        print()

    print(
        "Expected shape (Figures 12 and 14): CoMeT and Graphene stay close to 1.0,\n"
        "Hydra loses performance at NRH=125 due to its counter traffic, REGA's\n"
        "slowdown grows as tRC inflates, and PARA is the most expensive at low NRH."
    )


if __name__ == "__main__":
    main()
