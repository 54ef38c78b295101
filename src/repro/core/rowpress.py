"""RowPress-aware threshold adaptation (Section 3.1 of the paper).

RowPress (Luo et al., ISCA 2023) induces bitflips by keeping a DRAM row open
for a long time; under realistic conditions it lowers the effective
disturbance budget by one to two orders of magnitude relative to classic
RowHammer.  The CoMeT paper argues that existing activation-count-based
mitigations can be adapted to RowPress by (i) limiting how long a row may
stay open and (ii) triggering preventive actions at smaller activation counts
that correspond to the allowed row-open time.

This module implements that adaptation for CoMeT (and for any mitigation in
this package, since they all take an ``nrh`` parameter):

* :func:`effective_rowhammer_threshold` converts a RowHammer threshold plus a
  maximum row-open time into the *effective* threshold a tracker must enforce;
* :class:`RowPressAwareConfig` wraps the conversion: its ``effective_nrh``
  is the reduced budget to pass as any mitigation's ``nrh``;
* :func:`row_open_time_cap_cycles` computes the row-open-time cap the memory
  controller should enforce (the paper's adaptation (i)), given DDR4 timings.

The default RowPress coefficients follow the characterization summarized in
the RowPress paper: the longer a row stays open per activation, the fewer
activations are needed to disturb a neighbour.  The model is deliberately
simple (a piecewise-linear interpolation in log-time), which is sufficient for
the sensitivity analysis exercised by the tests and the ablation benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.dram.config import DRAMTiming

#: (row open time in nanoseconds, threshold reduction factor) anchor points.
#: With the minimum row-open time (tRAS ~ 32 ns) the classic RowHammer
#: threshold applies (factor 1); holding rows open for micro- to milliseconds
#: reduces the activation budget by one to two orders of magnitude.
DEFAULT_ROWPRESS_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (36.0, 1.0),
    (1_000.0, 0.5),
    (10_000.0, 0.1),
    (100_000.0, 0.02),
    (1_000_000.0, 0.01),
)


def rowpress_reduction_factor(
    row_open_time_ns: float,
    anchors: Sequence[Tuple[float, float]] = DEFAULT_ROWPRESS_ANCHORS,
) -> float:
    """Fraction of the RowHammer activation budget that remains at a row-open time.

    Piecewise log-linear interpolation between the anchor points; clamped to
    the first/last anchor outside the characterized range.
    """
    if row_open_time_ns <= 0:
        raise ValueError("row_open_time_ns must be positive")
    anchors = sorted(anchors)
    if row_open_time_ns <= anchors[0][0]:
        return anchors[0][1]
    if row_open_time_ns >= anchors[-1][0]:
        return anchors[-1][1]
    for (t0, f0), (t1, f1) in zip(anchors, anchors[1:]):
        if t0 <= row_open_time_ns <= t1:
            # Interpolate in log(time) against log(factor).
            position = (math.log(row_open_time_ns) - math.log(t0)) / (
                math.log(t1) - math.log(t0)
            )
            return math.exp(
                math.log(f0) + position * (math.log(f1) - math.log(f0))
            )
    return anchors[-1][1]  # pragma: no cover - unreachable


def effective_rowhammer_threshold(
    nrh: int,
    max_row_open_time_ns: float,
    anchors: Sequence[Tuple[float, float]] = DEFAULT_ROWPRESS_ANCHORS,
) -> int:
    """Effective activation threshold once RowPress at a given open time is considered.

    This is the threshold an activation-count tracker must protect to also
    prevent RowPress bitflips when rows may stay open for up to
    ``max_row_open_time_ns`` per activation.
    """
    if nrh <= 0:
        raise ValueError("nrh must be positive")
    factor = rowpress_reduction_factor(max_row_open_time_ns, anchors)
    return max(1, int(nrh * factor))


def row_open_time_cap_cycles(
    timing: Optional[DRAMTiming] = None,
    target_factor: float = 0.5,
    anchors: Sequence[Tuple[float, float]] = DEFAULT_ROWPRESS_ANCHORS,
) -> int:
    """Row-open-time cap (in DRAM cycles) that keeps the RowPress penalty bounded.

    Returns the largest row-open time whose reduction factor is still at least
    ``target_factor``, expressed in DRAM clock cycles; the memory controller
    can enforce it by issuing PRE at that deadline (adaptation (i) in the
    paper).  Never smaller than tRAS.
    """
    timing = timing or DRAMTiming()
    if not 0 < target_factor <= 1:
        raise ValueError("target_factor must be in (0, 1]")
    best_time_ns = sorted(anchors)[0][0]
    for time_ns in _log_space(sorted(anchors)[0][0], sorted(anchors)[-1][0], 200):
        if rowpress_reduction_factor(time_ns, anchors) >= target_factor:
            best_time_ns = time_ns
        else:
            break
    return max(timing.tRAS, timing.cycles(best_time_ns))


def _log_space(start: float, stop: float, count: int) -> List[float]:
    log_start, log_stop = math.log(start), math.log(stop)
    return [
        math.exp(log_start + i * (log_stop - log_start) / (count - 1)) for i in range(count)
    ]


@dataclass(frozen=True)
class RowPressAwareConfig:
    """Produces CoMeT configurations that also cover RowPress.

    Attributes
    ----------
    nrh:
        The classic RowHammer threshold of the DRAM chips.
    max_row_open_time_ns:
        The longest a row may stay open per activation (enforced by the
        memory controller's row policy).
    """

    nrh: int
    max_row_open_time_ns: float = 36.0

    @property
    def effective_nrh(self) -> int:
        return effective_rowhammer_threshold(self.nrh, self.max_row_open_time_ns)

    def describe(self) -> str:
        return (
            f"NRH={self.nrh}, row open time <= {self.max_row_open_time_ns} ns "
            f"-> effective threshold {self.effective_nrh}"
        )
