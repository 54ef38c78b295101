"""DRAM energy accounting.

The model charges energy per DRAM command using the parameters in
:class:`~repro.energy.params.DDR4EnergyParameters` plus a background term
proportional to the execution time, the same structure DRAMPower uses.  The
inputs are the command counts collected by the
:class:`~repro.dram.dram_system.DRAMSystem` statistics and the total
execution time, so the model can be applied to any finished simulation.

The quantities the paper reports (Figures 11, 14, 15) are DRAM energies
normalized to the unprotected baseline; the breakdown also separates the
energy attributable to preventive refreshes so the mechanism-induced overhead
can be inspected directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dram.dram_system import DRAMStatistics
from repro.energy.params import DDR4EnergyParameters


@dataclass
class EnergyBreakdown:
    """DRAM energy, in nanojoules, split by source.

    The DDR5-era terms (``rfm_nj``, ``in_dram_refresh_nj``,
    ``counter_nj``) default to zero and only appear in :meth:`as_dict`
    when nonzero, so runs that never issue an RFM or update a PRAC
    counter serialize exactly as before.
    """

    activation_nj: float
    read_nj: float
    write_nj: float
    refresh_nj: float
    background_nj: float
    preventive_nj: float
    #: RFM (Refresh Management) command energy.
    rfm_nj: float = 0.0
    #: In-DRAM victim-row refreshes (ABO recovery, RFM service, Hydra rows).
    in_dram_refresh_nj: float = 0.0
    #: In-DRAM per-row activation-counter updates (PRAC).
    counter_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        return (
            self.activation_nj
            + self.read_nj
            + self.write_nj
            + self.refresh_nj
            + self.background_nj
            + self.rfm_nj
            + self.in_dram_refresh_nj
            + self.counter_nj
        )

    def as_dict(self) -> Dict[str, float]:
        data = {
            "activation_nj": self.activation_nj,
            "read_nj": self.read_nj,
            "write_nj": self.write_nj,
            "refresh_nj": self.refresh_nj,
            "background_nj": self.background_nj,
            "preventive_nj": self.preventive_nj,
            "total_nj": self.total_nj,
        }
        if self.rfm_nj:
            data["rfm_nj"] = self.rfm_nj
        if self.in_dram_refresh_nj:
            data["in_dram_refresh_nj"] = self.in_dram_refresh_nj
        if self.counter_nj:
            data["counter_nj"] = self.counter_nj
        return data


class DRAMEnergyModel:
    """Computes DRAM energy from command counts and execution time."""

    def __init__(
        self,
        parameters: Optional[DDR4EnergyParameters] = None,
        num_ranks: int = 2,
    ) -> None:
        self.parameters = parameters or DDR4EnergyParameters()
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.num_ranks = num_ranks

    def energy(
        self,
        stats: DRAMStatistics,
        total_cycles: int,
        rows_per_refresh: Optional[int] = None,
    ) -> EnergyBreakdown:
        """Energy for a finished simulation.

        ``stats`` are the DRAM command counts; ``total_cycles`` is the
        execution time in DRAM clock cycles (background energy accrues on
        every rank for the whole run).

        ``rows_per_refresh`` is the all-bank row coverage the 28 nJ
        ``refresh_energy_nj`` calibration assumes.  When given (and the
        run tracked ``refresh_rows``), each REF is charged by the rows it
        actually covered — fine-granularity refresh issues REF 2x/4x as
        often with each covering proportionally fewer rows, so total
        refresh energy stays granularity-invariant instead of being
        overcharged 2-4x.  Without it the legacy flat per-REF charge
        applies (all-bank REFs make the two formulas agree exactly).
        """
        params = self.parameters
        # Every ACT is eventually paired with a PRE; charging per ACT keeps
        # the accounting simple and symmetric with DRAMPower.
        activation_nj = stats.acts * params.act_pre_energy_nj
        read_nj = stats.reads * params.read_energy_nj
        write_nj = stats.writes * params.write_energy_nj
        refresh_rows = getattr(stats, "refresh_rows", 0)
        if rows_per_refresh and refresh_rows > 0:
            refresh_nj = (refresh_rows / rows_per_refresh) * params.refresh_energy_nj
        else:
            refresh_nj = stats.refreshes * params.refresh_energy_nj
        background_nj = self.num_ranks * params.background_energy_nj(total_cycles)
        preventive_nj = stats.preventive_acts * params.act_pre_energy_nj
        rfm_nj = getattr(stats, "rfms", 0) * params.rfm_energy_nj
        in_dram_refresh_nj = (
            getattr(stats, "in_dram_refresh_rows", 0) * params.row_refresh_energy_nj
        )
        counter_nj = (
            getattr(stats, "counter_updates", 0) * params.counter_update_energy_nj
        )
        return EnergyBreakdown(
            activation_nj=activation_nj,
            read_nj=read_nj,
            write_nj=write_nj,
            refresh_nj=refresh_nj,
            background_nj=background_nj,
            preventive_nj=preventive_nj,
            rfm_nj=rfm_nj,
            in_dram_refresh_nj=in_dram_refresh_nj,
            counter_nj=counter_nj,
        )

    def normalized_energy(
        self,
        stats: DRAMStatistics,
        total_cycles: int,
        baseline_stats: DRAMStatistics,
        baseline_cycles: int,
    ) -> float:
        """Energy of a run normalized to a baseline run (the paper's metric).

        A zero-energy baseline means the baseline statistics are mis-wired
        (an empty run, or stats from the wrong channel); silently reporting
        1.0 would let that masquerade as "no overhead", so it raises.
        """
        baseline = self.energy(baseline_stats, baseline_cycles).total_nj
        if baseline == 0:
            raise ValueError(
                "baseline energy is zero - the baseline statistics are empty "
                "or mis-wired, refusing to normalize against them"
            )
        return self.energy(stats, total_cycles).total_nj / baseline
