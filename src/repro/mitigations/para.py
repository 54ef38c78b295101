"""PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).

PARA is stateless: on every row activation it refreshes the activated row's
neighbours with a (small) probability ``p``.  The CoMeT paper tunes ``p`` for
a target failure probability of 1e-15 within a 64 ms refresh window
(Section 6), which is what :func:`para_refresh_probability` computes: the
probability that an aggressor row is hammered ``nrh`` times without any of
those activations triggering a neighbour refresh must stay below the target.

At low RowHammer thresholds ``p`` grows quickly (about 0.034 at NRH=1K and
0.24 at NRH=125), which is exactly why PARA's performance and energy
overheads explode in Figures 12-15.
"""

from __future__ import annotations

import math
import random

from repro.dram.address import DRAMAddress
from repro.mitigations.base import RowHammerMitigation
from repro.experiment.registry import register_mitigation


def para_refresh_probability(nrh: int, target_failure_probability: float = 1e-15) -> float:
    """Per-activation refresh probability needed for the target failure rate.

    A victim experiences a bitflip only if its aggressor is activated ``nrh``
    times and none of those activations triggers a preventive refresh of the
    victim; that happens with probability ``(1 - p) ** nrh``, which must not
    exceed ``target_failure_probability``.
    """
    if nrh <= 0:
        raise ValueError("nrh must be positive")
    if not 0 < target_failure_probability < 1:
        raise ValueError("target_failure_probability must be in (0, 1)")
    return 1.0 - math.pow(target_failure_probability, 1.0 / nrh)


def para_is_feasible(
    nrh: int,
    blast_radius: int = 1,
    target_failure_probability: float = 1e-15,
) -> bool:
    """Whether PARA's preventive-refresh cascade stays subcritical at ``nrh``.

    Every preventive refresh activates ``2 * blast_radius`` neighbour rows,
    and each of those activations is itself coin-flipped (preventive ACTs
    disturb *their* neighbours too — see :meth:`PARA.on_activation`).  The
    cascade is a branching process with mean offspring
    ``p * 2 * blast_radius``: once that reaches 1 the storm of preventive
    refreshes no longer dies out and PARA consumes unbounded activation
    bandwidth — in hardware as in simulation.  With the default 1e-15
    failure target the boundary sits at NRH ≈ 50 (``p = 0.5``), which is
    why the low-NRH scaling study reports PARA as *infeasible* rather than
    insecure below it.
    """
    probability = para_refresh_probability(nrh, target_failure_probability)
    return probability * 2 * blast_radius < 1.0


@register_mitigation("para", seedable=True)
class PARA(RowHammerMitigation):
    """Probabilistic adjacent-row refresh."""

    name = "para"

    def __init__(
        self,
        nrh: int,
        target_failure_probability: float = 1e-15,
        blast_radius: int = 1,
        seed: int = 0,
        probability: float = None,
    ) -> None:
        super().__init__(nrh=nrh, blast_radius=blast_radius)
        if probability is None:
            probability = para_refresh_probability(nrh, target_failure_probability)
            # A derived p must keep the preventive cascade subcritical (an
            # explicit probability is the caller's informed choice).
            if probability * 2 * blast_radius >= 1.0:
                raise ValueError(
                    f"para is infeasible at nrh={nrh}: refresh probability "
                    f"{probability:.3f} makes the preventive-refresh cascade "
                    f"supercritical (p * {2 * blast_radius} >= 1); see "
                    "para_is_feasible()"
                )
        if not 0 <= probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self._rng = random.Random(seed)

    def on_activation(self, cycle: int, address: DRAMAddress, is_preventive: bool) -> None:
        # Preventive ACTs are activations too: they disturb their own
        # neighbours, so PARA applies the same coin flip to them.  Skipping
        # them would let a storm of preventive refreshes hammer adjacent rows
        # unobserved.
        self.stats.observed_activations += 1
        if self._rng.random() < self.probability:
            self.refresh_victims(cycle, address)

    def storage_bits_per_bank(self) -> int:
        # PARA is stateless (Section 7.3.1 of the paper).
        return 0
