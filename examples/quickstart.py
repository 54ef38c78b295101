#!/usr/bin/env python3
"""Quickstart: protect a workload with CoMeT and measure its overhead.

This example walks through the declarative experiment API, the library's
front door for every kind of run:

1. describe the experiment as an :class:`repro.ExperimentSpec` — a workload
   reference (name + trace length), a mitigation (name + RowHammer
   threshold) and the simulated platform;
2. execute it through a :class:`repro.Session`, which can cache results in
   a result store (this example runs uncached) and returns a :class:`repro.RunRecord` (spec + result + provenance) that
   serializes to JSON;
3. report normalized IPC, DRAM energy, preventive refresh counts and the
   security verifier's verdict at two thresholds (1K and 125, the extremes
   of the paper);
4. print CoMeT's storage/area footprint (Table 4's CoMeT rows).

The same spec objects drive the CLI (``python -m repro.cli run --spec``),
the comparison/sweep examples and the benchmark harnesses.

Run with:  python examples/quickstart.py
"""

from repro import (
    ExperimentSpec,
    ExperimentWorkloadSpec,
    MitigationSpec,
    Session,
    normalized_ipc,
)
from repro.analysis.reporting import format_table
from repro.area.model import comet_area_report
from repro.energy.model import DRAMEnergyModel


def main() -> None:
    energy_model = DRAMEnergyModel(num_ranks=2)
    session = Session(store=None)

    # 429.mcf is one of the paper's high-memory-intensity workloads: lots of
    # row misses, skewed row popularity -- the kind of workload whose hot rows
    # approach the RowHammer threshold even without an attacker.
    workload = ExperimentWorkloadSpec(name="429.mcf", num_requests=8000)

    baseline_record = session.run(
        ExperimentSpec(
            workload=workload,
            mitigation=MitigationSpec(name="none", nrh=1000),
            verify_security=False,
        )
    )
    baseline = baseline_record.result
    print(f"workload: {baseline.name}, baseline IPC {baseline.ipc:.3f}  "
          f"(avg read latency {baseline.average_read_latency:.1f} cycles)")
    print(f"spec hash: {baseline_record.provenance['spec_hash'][:12]}  "
          f"(the result-store key of this exact experiment)")

    rows = []
    for nrh in (1000, 125):
        spec = ExperimentSpec(
            workload=workload,
            mitigation=MitigationSpec(name="comet", nrh=nrh),
        )
        result = session.run(spec).result
        norm_ipc = normalized_ipc(result, baseline)
        norm_energy = energy_model.normalized_energy(
            # Recompute from raw stats so the comparison uses one model instance.
            stats=_dram_stats(result),
            total_cycles=result.cycles,
            baseline_stats=_dram_stats(baseline),
            baseline_cycles=baseline.cycles,
        )
        rows.append(
            {
                "NRH": nrh,
                "normalized_IPC": round(norm_ipc, 4),
                "perf_overhead_%": round((1 - norm_ipc) * 100, 2),
                "normalized_energy": round(norm_energy, 4),
                "preventive_refreshes": result.preventive_refreshes,
                "early_refreshes": result.early_refresh_operations,
                "secure": result.security_ok,
            }
        )
    print()
    print(format_table(rows, title="CoMeT overhead vs. unprotected baseline (429.mcf)"))

    print()
    area_rows = [comet_area_report(nrh).as_row() for nrh in (1000, 500, 250, 125)]
    print(format_table(area_rows, title="CoMeT storage and area (Table 4, CoMeT rows)"))


def _dram_stats(result):
    """Rebuild a DRAMStatistics object from a result's stats dictionary."""
    from repro.dram.dram_system import DRAMStatistics

    stats = result.dram_stats
    return DRAMStatistics(
        acts=stats["acts"],
        pres=stats["pres"],
        reads=stats["reads"],
        writes=stats["writes"],
        refreshes=stats["refreshes"],
        preventive_acts=stats["preventive_acts"],
    )


if __name__ == "__main__":
    main()
